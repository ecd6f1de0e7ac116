import random

import pytest
from hypothesis import given, strategies as st

from fissile import ensembles
from fissile.ensembles import (
    Ensemble,
    SubgroupGenerators,
    augmentation,
    combining_product,
    map_ensemble,
    singleton,
    subgroup_membership,
)


def random_ensemble(rng, universe, max_terms=4, coeff_bound=3):
    out = Ensemble.zero()
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(-coeff_bound, coeff_bound)
        out = out + c * singleton(rng.choice(universe))
    return out


def test_singleton_definition():
    assert singleton("k").terms == {"k": 1}
    assert singleton("k") - singleton("k") == Ensemble.zero()
    assert augmentation(singleton("k")) == 1


def test_augmentation_cases():
    assert augmentation(Ensemble({"k1": 2, "k2": -1})) == 1
    assert augmentation(Ensemble.zero()) == 0


def test_augmentation_respects_scaling():
    rng = random.Random(7)
    universe = ["a", "b", "c", "d"]
    for _ in range(50):
        s = random_ensemble(rng, universe)
        assert augmentation(3 * s) == 3 * augmentation(s)
        # direct summation oracle
        assert augmentation(s) == sum(s.terms.values())


def test_map_ensemble_identity_and_constant():
    s = Ensemble({"a": 2, "b": -1, "c": 4})
    assert map_ensemble(lambda x: x, s) == s
    assert map_ensemble(lambda x: "c0", s) == Ensemble({"c0": augmentation(s)})


def test_map_ensemble_preserves_augmentation():
    rng = random.Random(8)
    universe = ["a", "b", "c", "d"]
    for _ in range(50):
        s = random_ensemble(rng, universe)
        f = lambda x: x * 2  # noqa: E731
        assert augmentation(map_ensemble(f, s)) == augmentation(s)


def test_map_ensemble_undefined_raises():
    table = {"a": "x"}
    with pytest.raises(KeyError):
        map_ensemble(lambda k: table[k], singleton("b"))


@given(
    st.dictionaries(st.text(min_size=1, max_size=3), st.integers(-5, 5), max_size=5),
    st.dictionaries(st.text(min_size=1, max_size=3), st.integers(-5, 5), max_size=5),
)
def test_augmentation_additive(d1, d2):
    s, t = Ensemble(d1), Ensemble(d2)
    assert augmentation(s + t) == augmentation(s) + augmentation(t)


@given(
    st.dictionaries(st.integers(0, 9), st.integers(-5, 5), max_size=5),
    st.dictionaries(st.integers(0, 9), st.integers(-5, 5), max_size=5),
    st.integers(-4, 4),
)
def test_map_ensemble_linear(d1, d2, n):
    s, t = Ensemble(d1), Ensemble(d2)
    f = lambda x: x % 3  # noqa: E731
    assert map_ensemble(f, s + t) == map_ensemble(f, s) + map_ensemble(f, t)
    assert map_ensemble(f, n * s) == n * map_ensemble(f, s)


def test_combining_product_singletons():
    p = combining_product([singleton("a"), singleton("b")], lambda t: t)
    assert p == singleton(("a", "b"))


def test_combining_product_empty():
    assert combining_product([], lambda t: t) == singleton(())


def test_combining_product_augmentation_multiplicative():
    rng = random.Random(9)
    universe = ["a", "b", "c"]
    for _ in range(30):
        fs = [random_ensemble(rng, universe) for _ in range(rng.randint(1, 3))]
        p = combining_product(fs, lambda t: t)
        expected = 1
        for f in fs:
            expected *= augmentation(f)
        assert augmentation(p) == expected


def test_combining_product_multilinear():
    rng = random.Random(10)
    universe = ["a", "b", "c"]
    for _ in range(30):
        x = random_ensemble(rng, universe)
        y = random_ensemble(rng, universe)
        z = random_ensemble(rng, universe)
        lhs = combining_product([x + y, z], lambda t: t)
        rhs = combining_product([x, z], lambda t: t) + combining_product(
            [y, z], lambda t: t
        )
        assert lhs == rhs


def test_membership_explicit_combination():
    g1 = Ensemble({"a": 1, "b": 1})
    g2 = Ensemble({"b": 1})
    v = g1 + 2 * g2
    res = subgroup_membership(v, SubgroupGenerators([g1, g2]))
    assert res
    assert res.coefficients == (1, 2)


def test_membership_parity_obstruction():
    res = subgroup_membership(
        singleton("k"), SubgroupGenerators([2 * singleton("k")])
    )
    assert not res


def test_membership_outside_coordinates():
    res = subgroup_membership(
        singleton("q"), SubgroupGenerators([singleton("k")])
    )
    assert not res
    assert "coordinate" in res.reason


def test_membership_round_trip_random():
    rng = random.Random(11)
    universe = ["a", "b", "c", "d", "e"]
    for _ in range(60):
        gens = [random_ensemble(rng, universe) for _ in range(rng.randint(1, 4))]
        coeffs = [rng.randint(-3, 3) for _ in gens]
        v = Ensemble.zero()
        for c, g in zip(coeffs, gens):
            v = v + c * g
        res = subgroup_membership(v, SubgroupGenerators(gens))
        assert res
        rebuilt = Ensemble.zero()
        for c, g in zip(res.coefficients, gens):
            rebuilt = rebuilt + c * g
        assert rebuilt == v


def test_membership_stable_under_generator_permutation():
    rng = random.Random(12)
    universe = ["a", "b", "c"]
    for _ in range(40):
        gens = [random_ensemble(rng, universe) for _ in range(3)]
        v = random_ensemble(rng, universe)
        direct = bool(subgroup_membership(v, SubgroupGenerators(gens)))
        perm = gens[::-1]
        assert direct == bool(subgroup_membership(v, SubgroupGenerators(perm)))


def test_membership_agrees_with_bounded_search():
    # one direction of a brute-force oracle: whenever a small combination
    # exists, the decision must be positive
    rng = random.Random(13)
    universe = ["a", "b", "c"]
    from itertools import product as iproduct

    for _ in range(25):
        gens = [random_ensemble(rng, universe, max_terms=2, coeff_bound=2) for _ in range(2)]
        v = random_ensemble(rng, universe, max_terms=2, coeff_bound=2)
        found = False
        for c1, c2 in iproduct(range(-6, 7), repeat=2):
            if c1 * gens[0] + c2 * gens[1] == v:
                found = True
                break
        decided = bool(subgroup_membership(v, SubgroupGenerators(gens)))
        if found:
            assert decided
        if not decided:
            assert not found


def test_membership_arbitrary_precision():
    big = 10**30
    g1 = Ensemble({"a": big, "b": 1})
    g2 = Ensemble({"b": big})
    v = (big + 7) * g1 + (-3) * g2
    res = subgroup_membership(v, SubgroupGenerators([g1, g2]))
    assert res and res.coefficients == (big + 7, -3)
    assert not subgroup_membership(
        Ensemble({"a": big + 1}), SubgroupGenerators([Ensemble({"a": big})])
    )


def test_serialization_sorted_and_deterministic():
    s = Ensemble({"b": 2, "a": -1})
    j = s.to_json()
    assert [entry["coeff"] for entry in j] == ["-1", "2"]
    assert s.to_json() == j


def test_subgroup_membership_reevaluation_raises(monkeypatch):
    # a row transform that doubles every combination
    row_echelon = ensembles._row_echelon

    def doubled(rows):
        h, u = row_echelon(rows)
        return h, [[2 * v for v in row] for row in u]

    monkeypatch.setattr(ensembles, "_row_echelon", doubled)
    with pytest.raises(ValueError, match="subgroup membership"):
        subgroup_membership(singleton("a"), SubgroupGenerators([singleton("a")]))


def test_subgroup_membership_reevaluation_raises_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_subgroup_membership_reevaluation_raises")
