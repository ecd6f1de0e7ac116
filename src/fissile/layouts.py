"""The lattice of layouts: sets of pairwise disjoint nonempty subsets.

A layout is canonically encoded as a sorted tuple of sorted tuples, which
doubles as its ensemble key and its JSON form.
"""

import os
from itertools import combinations

from .posets import FinitePoset

DEFAULT_GROUND_BOUND = 4


class GuardExceeded(ValueError):
    """A requested size exceeds a configured enumeration or construction
    guard; commands report it as skipped-guard."""


class GuardSettingError(Exception):
    """A guard variable holds no integer; commands exit 2 with this message."""


def guard_setting(name, default):
    """The integer in the environment variable ``name``, default if unset."""
    text = os.environ.get(name, str(default))
    try:
        return int(text)
    except ValueError:
        raise GuardSettingError(f"{name}={text!r} is not an integer") from None


def layout_key(blocks):
    """Canonical form: sorted tuple of sorted, pairwise disjoint blocks."""
    norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
    seen = set()
    for b in norm:
        if not b:
            raise ValueError("layout blocks must be nonempty")
        for x in b:
            if x in seen:
                raise ValueError("layout blocks must be pairwise disjoint")
            seen.add(x)
    return norm


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_layouts(ground, bound=None):
    """Every layout on the ground set, each once, in canonical order."""
    ground = tuple(sorted(set(ground)))
    if not ground:
        raise ValueError("ground set must be nonempty")
    if bound is None:
        bound = guard_setting("FISSILE_MAX_GROUND", DEFAULT_GROUND_BOUND)
    if len(ground) > bound:
        raise GuardExceeded(
            f"ground set of size {len(ground)} exceeds the enumeration bound {bound}"
        )
    seen = set()
    for k in range(len(ground) + 1):
        for covered in combinations(ground, k):
            for part in _partitions(list(covered)):
                seen.add(layout_key(part))
    return sorted(seen)


def layout_geq(a, b):
    """a >= b when every block of b is included in some block of a."""
    return all(any(set(f) >= set(g) for f in a) for g in b)


def layout_meet(a, b):
    """Pairwise intersections of blocks, empty ones dropped."""
    out = []
    for f in a:
        for g in b:
            h = set(f) & set(g)
            if h:
                out.append(tuple(sorted(h)))
    return layout_key(out)


def resolve_block(a, g):
    """The unique block of the layout that includes the nonempty subset g."""
    g = set(g)
    if not g:
        raise ValueError("subset must be nonempty")
    for f in a:
        if g <= set(f):
            return f
    raise KeyError(f"no block of {a!r} includes {sorted(g)!r}")


class LayoutLattice:
    """Cached layout enumeration of one ground set, with its order structure."""

    def __init__(self, ground, bound=None):
        self.ground = tuple(sorted(set(ground)))
        self.layouts = enumerate_layouts(self.ground, bound=bound)
        self.top = layout_key([self.ground])
        self._poset = None

    def geq(self, a, b):
        return layout_geq(a, b)

    def poset(self):
        """The layouts under the layout order, built and verified once."""
        if self._poset is None:
            self._poset = FinitePoset(self.layouts, lambda b, a: layout_geq(a, b))
        return self._poset
