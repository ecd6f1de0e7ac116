"""The subset monoid under intersection, its monoid ring, and the ideal chain.

Subsets of the index set are canonical sorted tuples.  The ring element
``omega(J)`` is the alternating sum over subsets of J; the level-s ideal is
generated by all products <L>*omega(J) with |J| >= s.  The omega(J) form a
basis of the ring, and membership in the ideal is read off an element's
coordinates in that basis, in closed form, with a certificate.  Covers,
the functions from an index set to subsets whose values union to the
ground set, are listed beside the subsets.
"""

from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType

from .canon import ckey
from .ensembles import Ensemble, singleton


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


def covers(a_size, ground):
    """All functions from an index set of the given size to subsets of the
    ground set whose values union to the whole ground set."""
    ground = subset_key(ground)
    pool = subsets_of(ground)
    n = len(ground)
    return [k for k in product(pool, repeat=a_size) if len(set().union(*k)) == n]


def proper_covers(a_size, ground):
    """Covers whose every value is a proper subset of the ground set."""
    ground = subset_key(ground)
    return [k for k in covers(a_size, ground) if ground not in k]


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
def omega_terms(j):
    """The coefficient table of omega(j), for j a canonical subset key: one
    read-only view per key, kept and shared between callers."""
    return MappingProxyType({k: (-1) ** (len(j) - len(k)) for k in _subsets(j)})


def omega(j) -> Ensemble:
    """Alternating sum over the subsets of j; the level-|j| ideal generator.
    Each call returns a new ensemble."""
    return Ensemble(omega_terms(subset_key(j)))


class IdealCertificate:
    """Integer combination over the generators <L>*omega(J), |J| >= level:
    a tuple of entries (L, J, coeff)."""

    __slots__ = ("level", "combination")

    def __init__(self, level: int, combination: tuple):
        self.level, self.combination = level, combination

    def value(self, monoid: SubsetMonoid) -> Ensemble:
        acc = Ensemble.zero()
        for l_key, j_key, c in self.combination:
            acc = acc + c * ring_product(monoid, singleton(l_key), omega(j_key))
        return acc

    def check(self, monoid: SubsetMonoid, target: Ensemble) -> bool:
        """Every J is a monoid element whose size reaches the level, its L is
        the first element containing J, as :func:`ideal_membership` writes
        it, and the combination evaluates to the target.  <L>*omega(J) is
        omega(J) for every L containing J, so any other such L would leave
        the value unchanged and go unchecked."""
        members = monoid.elements
        for l_key, j_key, _ in self.combination:
            if j_key not in members or len(j_key) < self.level:
                return False
            if l_key != _first_containing(monoid.ground, j_key):
                return False
        return self.value(monoid) == target


@lru_cache(maxsize=1024)
def _first_containing(ground, j):
    """The first subset of ground, in element order, that contains j."""
    return next(l_key for l_key in _subsets(ground) if set(j) <= set(l_key))


def ideal_membership(monoid: SubsetMonoid, pi: Ensemble, level: int):
    """Decide membership in the level-s ideal; positive answers carry an
    :class:`IdealCertificate`, negatives are definite.

    Read off the omega basis: <L>*omega(J) is omega(J) when J is within L
    and 0 otherwise (for x in J but not in L, pairing K with K xor {x}
    cancels every term), and pi is the sum of c_J * omega(J), c_J the sum of
    pi_K over K containing J (inverting omega(J), the sum of
    (-1)^(|J|-|K|) <K> over K within J, by Moebius inversion on the Boolean
    lattice).  So pi is a member exactly when its keys are monoid elements
    and every nonzero c_J has |J| >= s; the certificate lists each
    (L, J, c_J) in element order, L the first element containing J."""
    members = monoid.elements
    if any(k not in members for k in pi.terms):
        return None
    coeffs = {}
    for k, c in pi.terms.items():
        for j in _subsets(k):
            coeffs[j] = coeffs.get(j, 0) + c
    if any(c and len(j) < level for j, c in coeffs.items()):
        return None
    combo = tuple(
        (_first_containing(monoid.ground, j), j, coeffs[j])
        for j in members
        if coeffs.get(j)
    )
    cert = IdealCertificate(level=level, combination=combo)
    if not cert.check(monoid, pi):
        raise ValueError("ideal membership: the certificate fails its own check")
    return cert


def omega_annihilates(monoid: SubsetMonoid, j, k) -> bool:
    """True exactly when multiplying omega(j) by <k> gives zero."""
    return not ring_product(monoid, omega(subset_key(j)), singleton(subset_key(k)))
