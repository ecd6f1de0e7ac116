"""Brute-force verification of alternating-sum identities in tensor powers
of the subset group, expanded exactly as integer vectors indexed by tuples
of subsets.

Each side of each tensor identity is summed into one table: every term of
the side, a tensor of omega tables or of generators, is expanded into the
same dict by :func:`fissile.ensembles.expand_into`, the definition
:func:`fissile.ensembles.combining_product` uses too.  The omega factors
are the shared tables of :func:`fissile.chained.omega_terms`.  Every
function is expanded in full on every call: no sum is collapsed in closed
form and no result is kept between calls.  A side becomes an ensemble once,
when it is compared.
"""

from itertools import product

from .chained import covers, omega, omega_terms, proper_covers, subset_key, subsets_of
from .ensembles import Ensemble, expand_into, singleton


def _omega_tensors(functions):
    """One table: the sum, over the functions k, of the tensor of
    omega(k(1)), ..., omega(k(a))."""
    out = {}
    for k in functions:
        expand_into(out, [omega_terms(s) for s in k])
    return out


def _proper_alternating_sum(ground):
    """The coefficient table of <ground> - omega(ground)."""
    return (singleton(ground) - omega(ground)).terms


def cover_expansion_sides(a_size, ground):
    """The alternating sum of diagonal tensors over all subsets, and the
    cover-indexed sum of tensored alternating sums."""
    ground = subset_key(ground)
    n = len(ground)
    lhs = {}
    for j in subsets_of(ground):
        expand_into(lhs, [{j: 1}] * a_size, scale=(-1) ** (n - len(j)))
    rhs = _omega_tensors(covers(a_size, ground))
    return Ensemble(lhs), Ensemble(rhs)


def proper_cover_expansion_sides(a_size, ground):
    """The tensor power of the proper alternating sum minus its diagonal
    version, and the proper-cover sum of tensored alternating sums."""
    ground = subset_key(ground)
    n = len(ground)
    lhs = expand_into({}, [_proper_alternating_sum(ground)] * a_size)
    for j in subsets_of(ground):
        if j != ground:
            expand_into(lhs, [{j: 1}] * a_size, scale=-((-1) ** (n - 1 - len(j))))
    rhs = _omega_tensors(proper_covers(a_size, ground))
    return Ensemble(lhs), Ensemble(rhs)


def full_sum_collapse_sides(a_size, ground):
    """The tensored alternating sums summed over every function, and the
    diagonal tensor of the whole ground set."""
    ground = subset_key(ground)
    pool = subsets_of(ground)
    lhs = _omega_tensors(product(pool, repeat=a_size))
    rhs = expand_into({}, [{ground: 1}] * a_size)
    return Ensemble(lhs), Ensemble(rhs)


def proper_sum_collapse_sides(a_size, ground):
    """The tensored alternating sums summed over every function with proper
    values, and the tensor power of the proper alternating sum."""
    ground = subset_key(ground)
    pool = [s for s in subsets_of(ground) if s != ground]
    lhs = _omega_tensors(product(pool, repeat=a_size))
    rhs = expand_into({}, [_proper_alternating_sum(ground)] * a_size)
    return Ensemble(lhs), Ensemble(rhs)


def verify_cover_expansion(a_size, ground) -> bool:
    """The alternating sum of diagonal tensors over all subsets equals the
    cover-indexed sum of tensored alternating sums."""
    lhs, rhs = cover_expansion_sides(a_size, ground)
    return lhs == rhs


def verify_proper_cover_expansion(a_size, ground) -> bool:
    """Same shape over proper subsets: the tensor power of the proper
    alternating sum minus its diagonal version equals the proper-cover sum."""
    lhs, rhs = proper_cover_expansion_sides(a_size, ground)
    return lhs == rhs


def verify_full_sum_collapse(a_size, ground) -> bool:
    """Summing the tensored alternating sums over every function collapses to
    the diagonal tensor of the whole ground set."""
    lhs, rhs = full_sum_collapse_sides(a_size, ground)
    return lhs == rhs


def verify_proper_sum_collapse(a_size, ground) -> bool:
    """Summing over functions with proper values collapses to the tensor
    power of the proper alternating sum."""
    lhs, rhs = proper_sum_collapse_sides(a_size, ground)
    return lhs == rhs


def verify_cover_difference(a_size, ground) -> bool:
    """Covers minus proper covers and all functions minus proper-valued
    functions carve out the same set of functions."""
    ground = subset_key(ground)
    pool = subsets_of(ground)
    all_fns = set(product(pool, repeat=a_size))
    proper_fns = {k for k in all_fns if all(s != ground for s in k)}
    cov = set(map(tuple, covers(a_size, ground)))
    pcov = set(map(tuple, proper_covers(a_size, ground)))
    return cov - pcov == all_fns - proper_fns


IDENTITIES = (
    ("cover_expansion", verify_cover_expansion),
    ("proper_cover_expansion", verify_proper_cover_expansion),
    ("full_sum_collapse", verify_full_sum_collapse),
    ("proper_sum_collapse", verify_proper_sum_collapse),
    ("cover_difference", verify_cover_difference),
)


def run_all(max_a, max_i):
    """Exhaustively run every identity; yields (name, a_size, i_size, ok)."""
    for i_size in range(0, max_i + 1):
        ground = tuple(range(1, i_size + 1))
        for a_size in range(1, max_a + 1):
            for name, verify in IDENTITIES:
                yield (name, a_size, i_size, verify(a_size, ground))
