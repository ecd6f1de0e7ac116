"""The subset monoid under intersection, its monoid ring, and the ideal chain.

Subsets of the index set are canonical sorted tuples.  The ring element
``omega(J)`` is the alternating sum over subsets of J; the level-s ideal is
generated by all products <L>*omega(J) with |J| >= s, and membership in it
is decided exactly, with a certificate.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .canon import ckey
from .ensembles import (
    Ensemble,
    SubgroupGenerators,
    singleton,
    subgroup_membership,
)


def subset_key(s):
    return tuple(sorted(s))


@lru_cache(maxsize=256)
def _subsets(s):
    out = []
    for k in range(len(s) + 1):
        out.extend(subset_key(c) for c in combinations(s, k))
    return tuple(sorted(out, key=ckey))


def subsets_of(s):
    """Every subset of s in canonical order, as a new list."""
    return list(_subsets(subset_key(s)))


class SubsetMonoid:
    """All subsets of a ground set, multiplied by intersection."""

    def __init__(self, ground):
        self.ground = subset_key(ground)
        self.elements = subsets_of(self.ground)

    def op(self, a, b):
        return subset_key(set(a) & set(b))

    def identity(self):
        return self.ground


def ring_product(monoid: SubsetMonoid, x: Ensemble, y: Ensemble) -> Ensemble:
    """Bilinear extension of intersection to the monoid ring."""
    out = {}
    for a, c in x.terms.items():
        for b, d in y.terms.items():
            k = monoid.op(a, b)
            out[k] = out.get(k, 0) + c * d
    return Ensemble(out)


@lru_cache(maxsize=256)
def _omega_terms(j):
    return {k: (-1) ** (len(j) - len(k)) for k in _subsets(j)}


def omega(j) -> Ensemble:
    """Alternating sum over the subsets of j; the level-|j| ideal generator.
    Each call returns a new ensemble."""
    return Ensemble(_omega_terms(subset_key(j)))


@dataclass(frozen=True)
class IdealCertificate:
    """Integer combination over the generators <L>*omega(J), |J| >= level."""

    level: int
    combination: tuple  # entries (L, J, coeff)

    def value(self, monoid: SubsetMonoid) -> Ensemble:
        acc = Ensemble.zero()
        for l_key, j_key, c in self.combination:
            acc = acc + c * ring_product(monoid, singleton(l_key), omega(j_key))
        return acc

    def check(self, monoid: SubsetMonoid, target: Ensemble) -> bool:
        """Every L and J is a monoid element, each |J| reaches the level,
        and the combination evaluates to the target."""
        members = monoid.elements
        for l_key, j_key, _ in self.combination:
            if l_key not in members or j_key not in members or len(j_key) < self.level:
                return False
        return self.value(monoid) == target


def ideal_generators(monoid: SubsetMonoid, level: int):
    """All pairs (L, J) with |J| >= level, in canonical order."""
    out = []
    for j in monoid.elements:
        if len(j) < level:
            continue
        for l_key in monoid.elements:
            out.append((l_key, j))
    return out


def ideal_membership(monoid: SubsetMonoid, pi: Ensemble, level: int):
    """Decide membership in the level-s ideal; positive answers carry an
    :class:`IdealCertificate`, negatives are definite."""
    pairs = ideal_generators(monoid, level)
    gens = SubgroupGenerators(
        ring_product(monoid, singleton(l_key), omega(j)) for l_key, j in pairs
    )
    result = subgroup_membership(pi, gens)
    if not result:
        return None
    combo = tuple(
        (l_key, j, c)
        for (l_key, j), c in zip(pairs, result.coefficients)
        if c
    )
    cert = IdealCertificate(level=level, combination=combo)
    if not cert.check(monoid, pi):
        raise ValueError("ideal membership: the certificate fails its own check")
    return cert


def omega_annihilates(monoid: SubsetMonoid, j, k) -> bool:
    """True exactly when multiplying omega(j) by <k> gives zero."""
    return not ring_product(monoid, omega(subset_key(j)), singleton(subset_key(k)))
