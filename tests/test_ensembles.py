import random

import pytest
from hypothesis import given, strategies as st

from fissile import ensembles
from fissile.canon import ckey
from fissile.chained import SubsetMonoid, omega, ring_product
from fissile.ensembles import (
    Ensemble,
    SubgroupGenerators,
    augmentation,
    combining_product,
    map_ensemble,
    singleton,
    subgroup_membership,
)
from fissile.suites import suite_fissilizer


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


# -- no zero coefficient is ever stored: against plain-dict arithmetic -------


def reference_sum(pairs):
    """Plain-dict reference: the sum of (element, coefficient) pairs with its
    zero sums dropped, keys in first-insertion order."""
    out = {}
    for el, c in pairs:
        out[el] = out.get(el, 0) + c
    return {el: c for el, c in out.items() if c}


def cancelling_pair(rng):
    """Two seeded ensembles on 0..5, the second cancelling some of the first's
    terms and adding terms of its own."""
    s = Ensemble({rng.randrange(6): rng.randint(-3, 3) for _ in range(rng.randint(0, 5))})
    t = {el: -c for el, c in s.terms.items() if rng.random() < 0.6}
    for _ in range(rng.randint(0, 3)):
        t[rng.randrange(6)] = rng.randint(-3, 3)
    return s, Ensemble(t)


def test_operations_store_no_zero_and_match_dict_arithmetic():
    rng = random.Random(23)
    dropped = {}

    def check(kind, s, pairs):
        reference = reference_sum(pairs)
        assert 0 not in s.terms.values()
        assert list(s.terms.items()) == list(reference.items())
        # whether a sum cancelled, so that the zero-dropping path ran
        cancelled = len({el for el, _ in pairs}) > len(reference)
        dropped[kind] = dropped.get(kind, 0) + cancelled

    for _ in range(400):
        s, t = cancelling_pair(rng)
        before = (dict(s.terms), dict(t.terms))
        a, b = list(s.terms.items()), list(t.terms.items())
        check("+", s + t, a + b)
        check("-", s - t, a + [(el, -c) for el, c in b])
        check("neg", -s, [(el, -c) for el, c in a])
        check("+", s + -s, a + [(el, -c) for el, c in a])
        for n in (-2, -1, 0, 1, 3):
            check("n*", n * s, [(el, n * c) for el, c in a])
            check("n*", s * n, [(el, n * c) for el, c in a])
        total = list((s + t).terms.items())
        check("map", map_ensemble(lambda el: el % 3, s + t), [(el % 3, c) for el, c in total])
        check(
            "combine",
            combining_product([s, t], lambda tup: sum(tup) % 4),
            [((x + y) % 4, c * d) for x, c in a for y, d in b],
        )
        # the expansion keeps the zero sums it makes in the table it fills
        start = {(x, y): rng.randint(-2, 2) for x in range(2) for y in range(2)}
        want = dict(start)
        for x, c in a:
            for y, d in b:
                want[(x, y)] = want.get((x, y), 0) - 2 * c * d
        got = ensembles.expand_into(dict(start), [s.terms, t.terms], scale=-2)
        assert list(got.items()) == list(want.items())
        assert (dict(s.terms), dict(t.terms)) == before
    assert all(dropped[kind] >= 10 for kind in ("+", "-", "n*", "map", "combine"))
    assert dropped["neg"] == 0


def test_operations_return_new_tables():
    s = Ensemble({"a": 2, "b": -1})
    for out in (s + Ensemble.zero(), s - Ensemble.zero(), 1 * s, -(-s)):
        assert out == s and out.terms is not s.terms
    assert (0 * s).terms == {} and (s * 0).terms == {}
    assert s.__rmul__(1.5) is NotImplemented


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


@pytest.mark.optimized
def test_subgroup_membership_reevaluation_raises(monkeypatch):
    # a first recorded operation that doubles both rows, so the replayed
    # combination comes out doubled while H stays as it was
    row_echelon = ensembles._echelon_form

    def doubled(rows):
        h, ops = row_echelon(rows)
        return h, [(0, 1, 2, 0, 0, 2), *ops]

    monkeypatch.setattr(ensembles, "_echelon_form", doubled)
    gens = SubgroupGenerators([singleton("a"), singleton("b")])
    with pytest.raises(ValueError, match="subgroup membership"):
        subgroup_membership(singleton("a"), gens)


def dense_row_echelon(rows):
    """Reference: integer row echelon form with a stored transform U,
    U*rows == H, reducing exactly as ``ensembles._echelon_form`` does."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            while h[i][col]:
                a, b = h[r][col], h[i][col]
                if b % a == 0:
                    q = b // a
                    for jj in range(ncols):
                        h[i][jj] -= q * h[r][jj]
                    for jj in range(m):
                        u[i][jj] -= q * u[r][jj]
                else:
                    x, y, g = ensembles._xgcd(a, b)
                    mbg, ag = -b // g, a // g
                    for jj in range(ncols):
                        aa, bb = h[r][jj], h[i][jj]
                        h[r][jj] = x * aa + y * bb
                        h[i][jj] = mbg * aa + ag * bb
                    for jj in range(m):
                        aa, bb = u[r][jj], u[i][jj]
                        u[r][jj] = x * aa + y * bb
                        u[i][jj] = mbg * aa + ag * bb
        if h[r][col] < 0:
            h[r] = [-v for v in h[r]]
            u[r] = [-v for v in u[r]]
        r += 1
        if r == m:
            break
    return h, u


class DenseMembership:
    """Reference membership over one family: the coefficient tuple of a
    target from the dense transform, or None for a non-member."""

    def __init__(self, gens):
        self.gens = gens
        coords = set()
        for g in gens:
            coords |= g.support()
        self.index = {el: i for i, el in enumerate(sorted(coords, key=ckey))}
        rows = []
        for g in gens:
            row = [0] * len(self.index)
            for el, c in g.terms.items():
                row[self.index[el]] = c
            rows.append(row)
        self.h, self.u = dense_row_echelon(rows)

    def coefficients(self, v):
        if any(el not in self.index for el in v.terms):
            return None
        residual = [0] * len(self.index)
        for el, c in v.terms.items():
            residual[self.index[el]] = c
        combo = [0] * len(self.gens)
        for i, row in enumerate(self.h):
            piv = next((j for j, val in enumerate(row) if val), None)
            if piv is None:
                break
            if residual[piv] % row[piv]:
                return None
            t = residual[piv] // row[piv]
            for j in range(len(row)):
                residual[j] -= t * row[j]
            for j in range(len(combo)):
                combo[j] += t * self.u[i][j]
        return None if any(residual) else tuple(combo)


def assert_same_coefficients(gens, targets):
    family = SubgroupGenerators(gens)
    dense = DenseMembership(gens)
    for v in targets:
        res = subgroup_membership(v, family)
        assert res.coefficients == (dense.coefficients(v) if res else None)


def test_coefficients_match_dense_transform_on_random_families():
    rng = random.Random(17)
    universe = ["a", "b", "c", "d", "e", "f"]
    for trial in range(150):
        bound = 10**30 if trial % 5 == 0 else 4
        gens = [
            random_ensemble(rng, universe, max_terms=5, coeff_bound=bound)
            for _ in range(rng.randint(1, 6))
        ]
        gens += [rng.choice(gens) for _ in range(rng.randint(0, 2))]
        gens += [Ensemble.zero()] * rng.randint(0, 1)
        if trial % 3 == 0:
            # rank deficient: a combination of two generators joins them
            gens.append(rng.randint(-3, 3) * gens[0] - rng.randint(1, 3) * gens[-1])
        rng.shuffle(gens)
        members = []
        for _ in range(4):
            v = Ensemble.zero()
            for g in gens:
                v = v + rng.randint(-5, 5) * g
            members.append(v)
        others = [random_ensemble(rng, universe, coeff_bound=bound) for _ in range(4)]
        assert_same_coefficients(gens, members + others + [Ensemble.zero()])


def test_coefficients_match_dense_transform_with_negative_pivots():
    gens = [
        Ensemble({"a": -6, "b": 4}),
        Ensemble({"a": -4, "c": -10**30}),
        Ensemble({"a": 9, "b": -3, "c": 5}),
        Ensemble({"b": -7}),
    ]
    targets = [Ensemble({"a": -1, "b": 2, "c": 3}), gens[0] - 5 * gens[3]]
    assert_same_coefficients(gens, targets)


def test_coefficients_match_dense_transform_on_ideal_families():
    rng = random.Random(19)
    for size in range(5):
        monoid = SubsetMonoid(tuple(range(1, size + 1)))
        for level in range(size + 2):
            gens = [
                ring_product(monoid, singleton(l_key), omega(j))
                for j in monoid.elements
                if len(j) >= level
                for l_key in monoid.elements
            ]
            targets = [omega(j) for j in monoid.elements]
            for _ in range(3):
                v = Ensemble.zero()
                for g in gens:
                    v = v + rng.randint(-2, 2) * g
                targets.append(v)
            assert_same_coefficients(gens, targets)


def test_defect_families_build_few_echelons(monkeypatch):
    calls = []
    row_echelon = ensembles._echelon_form

    def counted(rows):
        calls.append(len(rows))
        return row_echelon(rows)

    monkeypatch.setattr(ensembles, "_echelon_form", counted)
    reports = list(suite_fissilizer(max_e=2, cases=0, defect_cases=200, seed=3))
    assert all(ok for _case, ok in reports)
    # one echelon per family that answers an in-support query; rebuilding
    # each growing family for every candidate made 15,772
    assert len(calls) <= 3305


def test_family_builds_its_echelon_once(monkeypatch):
    calls = []
    row_echelon = ensembles._echelon_form
    monkeypatch.setattr(
        ensembles, "_echelon_form", lambda rows: calls.append(1) or row_echelon(rows)
    )
    family = SubgroupGenerators([Ensemble({"a": 2, "b": 1}), Ensemble({"b": 3})])
    targets = [singleton("a"), Ensemble({"a": 2, "b": 4}), singleton("c"), Ensemble.zero()]
    for v in targets:
        subgroup_membership(v, family)
    assert len(calls) == 1


def test_subgroup_membership_reevaluation_raises_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_subgroup_membership_reevaluation_raises")


def reference_membership(v, gens):
    """Reference: the membership algorithm that scans each row of H for its
    pivot on every call, reduces whole rows and re-evaluates through one
    new ensemble per generator."""
    index = gens.index
    if any(el not in index for el in v.terms):
        return False, None, "coordinate outside every generator"
    if not v.terms:
        return True, (0,) * len(gens.generators), "zero element"
    h, ops = gens.echelon
    residual = [0] * len(index)
    for el, c in v.terms.items():
        residual[index[el]] = c
    combo = [0] * len(h)
    for i, row in enumerate(h):
        piv = next((j for j, val in enumerate(row) if val), None)
        if piv is None:
            break
        if residual[piv] % row[piv] != 0:
            return False, None, "divisibility obstruction"
        t = combo[i] = residual[piv] // row[piv]
        for j in range(len(row)):
            residual[j] -= t * row[j]
    if any(residual):
        return False, None, "residual outside the lattice"
    for r, i, a, b, c, d in reversed(ops):
        combo[r], combo[i] = a * combo[r] + c * combo[i], b * combo[r] + d * combo[i]
    check = Ensemble.zero()
    for c, g in zip(combo, gens.generators):
        check = check + c * g
    assert check == v
    return True, tuple(combo), "certified combination"


def test_membership_matches_the_reference_algorithm():
    rng = random.Random(23)
    universe = ["a", "b", "c", "d", "e"]
    reasons = set()
    for trial in range(200):
        bound = 10**20 if trial % 7 == 0 else 6
        gens = [
            random_ensemble(rng, universe[:4], max_terms=4, coeff_bound=bound)
            for _ in range(rng.randint(1, 5))
        ]
        # zero rows: a zero generator, a repeated one, a dependent one
        gens += [Ensemble.zero()] * rng.randint(0, 1)
        gens += [rng.choice(gens) for _ in range(rng.randint(0, 1))]
        if trial % 2:
            gens.append(rng.randint(-3, 3) * gens[0] + rng.randint(1, 3) * gens[-1])
        # non-unit pivots: scaled copies make divisibility obstructions
        gens = [rng.choice((1, 2, 3, -2)) * g for g in gens]
        rng.shuffle(gens)
        family = SubgroupGenerators(gens)
        targets = [Ensemble.zero(), singleton("e")]
        targets += [random_ensemble(rng, universe[:4], coeff_bound=bound) for _ in range(3)]
        for _ in range(3):
            v = Ensemble.zero()
            for g in gens:
                v = v + rng.randint(-4, 4) * g
            targets += [v, v + singleton(rng.choice(universe[:4]))]
        for v in targets:
            res = subgroup_membership(v, family)
            got = (res.member, res.coefficients, res.reason)
            assert got == reference_membership(v, family)
            reasons.add(res.reason)
    assert reasons == {
        "zero element",
        "coordinate outside every generator",
        "divisibility obstruction",
        "residual outside the lattice",
        "certified combination",
    }


def test_the_pivot_table_lists_each_nonzero_row_of_h_from_its_pivot():
    gens = SubgroupGenerators(
        [Ensemble({"a": 2, "b": 4}), Ensemble({"a": 1, "b": 2}), Ensemble({"c": 3})]
    )
    h, _ = gens.echelon
    assert h[-1] == [0, 0, 0]
    assert gens.pivots == [(piv, h[i][piv:]) for i, piv in enumerate((0, 2))]
    assert gens.pivots is gens.pivots

