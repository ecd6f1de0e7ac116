"""Brute-force verification of two alternating-sum identities in tensor
powers of the subset group, expanded exactly as integer vectors indexed by
tuples of subsets."""

from itertools import product

from .ensembles import Ensemble, combining_product, singleton
from .chained import omega, subset_key, subsets_of


def covers(a_size, ground):
    """All functions from an index set of the given size to subsets of the
    ground set whose values union to the whole ground set."""
    ground = subset_key(ground)
    pool = subsets_of(ground)
    out = []
    for combo in product(pool, repeat=a_size):
        union = set()
        for s in combo:
            union |= set(s)
        if union == set(ground):
            out.append(combo)
    return out


def proper_covers(a_size, ground):
    """Covers whose every value is a proper subset of the ground set."""
    ground = subset_key(ground)
    return [k for k in covers(a_size, ground) if all(s != ground for s in k)]


def _tensor(factors):
    return combining_product(factors, lambda tup: tup)


def verify_cover_expansion(a_size, ground) -> bool:
    """The alternating sum of diagonal tensors over all subsets equals the
    cover-indexed sum of tensored alternating sums."""
    ground = subset_key(ground)
    lhs = Ensemble.zero()
    for j in subsets_of(ground):
        sign = (-1) ** (len(ground) - len(j))
        lhs = lhs + sign * _tensor([singleton(j)] * a_size)
    rhs = Ensemble.zero()
    for k in covers(a_size, ground):
        rhs = rhs + _tensor([omega(s) for s in k])
    return lhs == rhs


def verify_proper_cover_expansion(a_size, ground) -> bool:
    """Same shape over proper subsets: the tensor power of the proper
    alternating sum minus its diagonal version equals the proper-cover sum."""
    ground = subset_key(ground)
    alt = singleton(ground) - omega(ground)
    lhs = _tensor([alt] * a_size)
    for j in subsets_of(ground):
        if j == ground:
            continue
        sign = (-1) ** (len(ground) - 1 - len(j))
        lhs = lhs - sign * _tensor([singleton(j)] * a_size)
    rhs = Ensemble.zero()
    for k in proper_covers(a_size, ground):
        rhs = rhs + _tensor([omega(s) for s in k])
    return lhs == rhs


def verify_full_sum_collapse(a_size, ground) -> bool:
    """Summing the tensored alternating sums over every function collapses to
    the diagonal tensor of the whole ground set."""
    ground = subset_key(ground)
    pool = subsets_of(ground)
    total = Ensemble.zero()
    for k in product(pool, repeat=a_size):
        total = total + _tensor([omega(s) for s in k])
    return total == _tensor([singleton(ground)] * a_size)


def verify_proper_sum_collapse(a_size, ground) -> bool:
    """Summing over functions with proper values collapses to the tensor
    power of the proper alternating sum."""
    ground = subset_key(ground)
    pool = [s for s in subsets_of(ground) if s != ground]
    total = Ensemble.zero()
    for k in product(pool, repeat=a_size):
        total = total + _tensor([omega(s) for s in k])
    return total == _tensor([singleton(ground) - omega(ground)] * a_size)


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
