from itertools import product

import pytest

from fissile.chained import omega, subsets_of
from fissile.ensembles import Ensemble, combining_product, singleton
from fissile.identities import (
    cover_expansion_sides,
    covers,
    full_sum_collapse_sides,
    proper_cover_expansion_sides,
    proper_covers,
    proper_sum_collapse_sides,
    run_all,
    verify_cover_difference,
    verify_cover_expansion,
    verify_full_sum_collapse,
    verify_proper_cover_expansion,
    verify_proper_sum_collapse,
)


def test_cover_counts():
    assert covers(1, (1,)) == [((1,),)]
    assert proper_covers(1, (1,)) == []
    assert len(covers(2, (1,))) == 3


def test_cover_expansion_trivial_ground():
    assert verify_cover_expansion(1, ())
    assert verify_cover_expansion(2, ())


def test_cover_expansion_small():
    assert verify_cover_expansion(1, (1,))
    assert verify_proper_cover_expansion(1, (1,))
    assert verify_proper_cover_expansion(2, (1,))


@pytest.mark.parametrize("a_size", [1, 2, 3])
@pytest.mark.parametrize("i_size", [0, 1, 2, 3])
def test_identities_exhaustive(a_size, i_size):
    ground = tuple(range(1, i_size + 1))
    assert verify_cover_expansion(a_size, ground)
    assert verify_proper_cover_expansion(a_size, ground)
    assert verify_full_sum_collapse(a_size, ground)
    assert verify_proper_sum_collapse(a_size, ground)
    assert verify_cover_difference(a_size, ground)


def test_run_all_reports():
    results = list(run_all(2, 2))
    assert results and all(ok for *_, ok in results)


# The two sides of each tensor identity, by the identity's name.
SIDES = {
    "cover_expansion": cover_expansion_sides,
    "proper_cover_expansion": proper_cover_expansion_sides,
    "full_sum_collapse": full_sum_collapse_sides,
    "proper_sum_collapse": proper_sum_collapse_sides,
}


def _tensor(factors):
    return combining_product(factors, lambda tup: tup)


def _summed(terms):
    total = Ensemble.zero()
    for term in terms:
        total = total + term
    return total


def reference_sides(name, a_size, ground):
    """Both sides of an identity summed one function at a time, each term a
    tensor ensemble of its own added with ``+``."""
    n = len(ground)
    pool = subsets_of(ground)
    alt = singleton(ground) - omega(ground)

    def omega_tensors(functions):
        return _summed(_tensor([omega(s) for s in k]) for k in functions)

    def diagonal(j):
        return _tensor([singleton(j)] * a_size)

    if name == "cover_expansion":
        lhs = _summed((-1) ** (n - len(j)) * diagonal(j) for j in pool)
        return lhs, omega_tensors(covers(a_size, ground))
    if name == "proper_cover_expansion":
        lhs = _tensor([alt] * a_size)
        for j in pool:
            if j != ground:
                lhs = lhs - (-1) ** (n - 1 - len(j)) * diagonal(j)
        return lhs, omega_tensors(proper_covers(a_size, ground))
    if name == "full_sum_collapse":
        return omega_tensors(product(pool, repeat=a_size)), diagonal(ground)
    proper = [s for s in pool if s != ground]
    return omega_tensors(product(proper, repeat=a_size)), _tensor([alt] * a_size)


@pytest.mark.parametrize("a_size", [1, 2, 3])
@pytest.mark.parametrize("i_size", [0, 1, 2, 3])
def test_each_side_is_the_per_function_sum(a_size, i_size):
    ground = tuple(range(1, i_size + 1))
    for name, sides in SIDES.items():
        got = sides(a_size, ground)
        assert got == reference_sides(name, a_size, ground), name
        for side in got:
            assert 0 not in side.terms.values()
        # no side is zero but those that sum over no term: no function has
        # proper values on the empty ground, where <()> - omega(()) is 0,
        # and no proper cover exists with one value or on one point
        if name == "proper_cover_expansion":
            vacuous = a_size == 1 or i_size <= 1
        else:
            vacuous = name == "proper_sum_collapse" and i_size == 0
        assert not any(got) if vacuous else all(got), name
