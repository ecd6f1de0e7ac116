import random

import pytest

from fissile.chained import (
    IdealCertificate,
    SubsetMonoid,
    ideal_membership,
    omega,
    omega_annihilates,
    ring_product,
    subset_key,
    subsets_of,
)
from fissile import ensembles
from fissile.ensembles import (
    Ensemble,
    SubgroupGenerators,
    augmentation,
    singleton,
    subgroup_membership,
)
from fissile.layouts import LayoutLattice
from fissile.posets import Section, nabla_inverse


def test_omega_small_cases():
    assert omega(()) == singleton(())
    assert omega((1,)) == singleton((1,)) - singleton(())
    assert omega((1, 2)) == (
        singleton((1, 2)) - singleton((1,)) - singleton((2,)) + singleton(())
    )


def test_omega_augmentation_zero():
    for j in subsets_of((1, 2, 3)):
        if j:
            assert augmentation(omega(j)) == 0


def test_ring_product_bilinear_and_commutative():
    m = SubsetMonoid((1, 2))
    rng = random.Random(31)
    pool = m.elements
    for _ in range(30):
        x = Ensemble({rng.choice(pool): rng.randint(-2, 2) for _ in range(2)})
        y = Ensemble({rng.choice(pool): rng.randint(-2, 2) for _ in range(2)})
        z = Ensemble({rng.choice(pool): rng.randint(-2, 2) for _ in range(2)})
        assert ring_product(m, x + y, z) == ring_product(m, x, z) + ring_product(
            m, y, z
        )
        assert ring_product(m, x, y) == ring_product(m, y, x)
    assert ring_product(m, singleton(m.identity()), singleton((1,))) == singleton((1,))


def test_omega_annihilation_exhaustive():
    for n in (1, 2, 3):
        ground = tuple(range(1, n + 1))
        m = SubsetMonoid(ground)
        for j in m.elements:
            for k in m.elements:
                killed = omega_annihilates(m, j, k)
                assert killed == (not set(k) >= set(j))


def test_omega_matches_inverse_transform_signs():
    # inverting the triangular transform of a point mass at a subset
    # reproduces exactly the coefficient pattern of omega at that subset
    ground = (1, 2, 3)
    m = SubsetMonoid(ground)
    from fissile.posets import FinitePoset

    poset = FinitePoset(m.elements, lambda q, p: set(q) <= set(p))
    for j in m.elements:
        inv = nabla_inverse(
            poset, lambda p, q, s: s, Section({j: singleton("u")})
        )
        pattern = {k: val.terms["u"] for k, val in inv.items()}
        assert pattern == dict(omega(j).terms)
    # and the all-ones family is the transform of the top point mass
    fam = Section({k: singleton("u") for k in m.elements})
    inv = nabla_inverse(poset, lambda p, q, s: s, fam)
    assert inv == Section({ground: singleton("u")})


def test_ideal_membership_generator():
    m = SubsetMonoid((1, 2))
    cert = ideal_membership(m, omega((1, 2)), 2)
    assert cert is not None
    assert cert.check(m, omega((1, 2)))


def test_ideal_membership_augmentation_obstruction():
    m = SubsetMonoid((1, 2))
    assert ideal_membership(m, singleton((1,)), 1) is None
    assert ideal_membership(m, singleton((1, 2)), 1) is None


def test_ideal_membership_scaled_product():
    m = SubsetMonoid((1, 2, 3))
    rng = random.Random(32)
    for _ in range(20):
        k = rng.choice(m.elements)
        j = rng.choice([j for j in m.elements if j])
        pi = ring_product(m, singleton(k), omega(j))
        cert = ideal_membership(m, pi, len(j))
        assert cert is not None and cert.check(m, pi)


def test_ideal_membership_round_trip_random():
    m = SubsetMonoid((1, 2))
    rng = random.Random(33)
    for _ in range(40):
        level = rng.randint(0, 2)
        target = Ensemble.zero()
        for _ in range(rng.randint(1, 3)):
            l_key = rng.choice(m.elements)
            j = rng.choice([j for j in m.elements if len(j) >= level])
            target = target + rng.randint(-2, 2) * ring_product(
                m, singleton(l_key), omega(j)
            )
        cert = ideal_membership(m, target, level)
        assert cert is not None and cert.check(m, target)


def test_level_one_members_have_zero_augmentation():
    m = SubsetMonoid((1, 2))
    rng = random.Random(34)
    for _ in range(30):
        combo = []
        target = Ensemble.zero()
        for _ in range(rng.randint(1, 3)):
            l_key = rng.choice(m.elements)
            j = rng.choice([j for j in m.elements if len(j) >= 1])
            c = rng.randint(-2, 2)
            combo.append((l_key, j, c))
            target = target + c * ring_product(m, singleton(l_key), omega(j))
        assert augmentation(target) == 0


def test_certificate_rejects_wrong_level():
    m = SubsetMonoid((1, 2))
    cert = IdealCertificate(level=2, combination=(((), (1,), 1),))
    assert not cert.check(m, ring_product(m, singleton(()), omega((1,))))


def test_certificate_rejects_entries_outside_the_monoid():
    m = SubsetMonoid((1, 2))
    target = ring_product(m, singleton((1, 2)), omega((2,)))
    assert IdealCertificate(level=1, combination=(((1, 2), (2,), 1),)).check(
        m, target
    )
    # the forged L evaluate to the same target
    for l_key in [("str", 2), (1, 2, 99)]:
        cert = IdealCertificate(level=1, combination=((l_key, (2,), 1),))
        assert cert.value(m) == target
        assert not cert.check(m, target)
    forged_j = IdealCertificate(level=1, combination=(((1, 2), (2, 99), 1),))
    assert not forged_j.check(m, forged_j.value(m))


@pytest.mark.optimized
def test_ideal_membership_certificate_check_raises(monkeypatch):
    m = SubsetMonoid((1, 2))
    monkeypatch.setattr(IdealCertificate, "check", lambda self, monoid, pi: False)
    with pytest.raises(ValueError, match="ideal membership"):
        ideal_membership(m, omega((1,)), 1)


def reference_ideal_membership(monoid, level):
    """The membership test of the level-s ideal by the integer echelon of the
    whole family <L>*omega(J), |J| >= s, J-major and L-minor in element
    order: it maps pi to (level, its nonzero coefficients over that family)
    or to None for a non-member.  The family and its echelon are built once."""
    pairs = [
        (l_key, j)
        for j in monoid.elements
        if len(j) >= level
        for l_key in monoid.elements
    ]
    family = SubgroupGenerators(
        ring_product(monoid, singleton(l_key), omega(j)) for l_key, j in pairs
    )

    def member(pi):
        result = subgroup_membership(pi, family)
        if not result:
            return None
        return level, tuple(
            (l_key, j, c) for (l_key, j), c in zip(pairs, result.coefficients) if c
        )

    return member


REFERENCE_GROUNDS = [
    *(tuple(range(1, n + 1)) for n in range(6)),
    (1, 10),
    (1, 2, 10),
    (2, 10, 11),
    (3, 12, 100),
]


@pytest.mark.parametrize("ground", REFERENCE_GROUNDS, ids=str)
def test_ideal_membership_matches_the_generator_family_echelon(ground):
    m = SubsetMonoid(ground)
    rng = random.Random(len(ground) * 1009 + sum(ground))
    targets = [omega(j) for j in m.elements] + [singleton(j) for j in m.elements]
    targets += [Ensemble.zero(), singleton((99,)), singleton("x"), singleton((2, 1))]
    targets.append(omega(ground) + singleton((1000,)))
    for level in range(len(ground) + 2):
        depth = [j for j in m.elements if len(j) >= level]
        members = []
        for _ in range(3 if depth else 0):
            v = Ensemble.zero()
            for _ in range(rng.randint(1, 4)):
                l_key, j = rng.choice(m.elements), rng.choice(depth)
                v = v + rng.randint(-3, 3) * ring_product(m, singleton(l_key), omega(j))
            members.append(v)
        reference = reference_ideal_membership(m, level)
        for pi in targets + members:
            cert = ideal_membership(m, pi, level)
            got = None if cert is None else (cert.level, cert.combination)
            assert got == reference(pi), (pi, level)
        assert all(ideal_membership(m, v, level) is not None for v in members)


def test_ideal_membership_builds_no_echelon(monkeypatch):
    def refuse(rows):
        raise AssertionError("ideal membership row-reduced a generator family")

    monkeypatch.setattr(ensembles, "_echelon_form", refuse)
    m = SubsetMonoid((1, 2, 3))
    for j in m.elements:
        pi = ring_product(m, singleton((1, 3)), omega(j))
        cert = ideal_membership(m, pi, len(j))
        assert cert is not None and cert.check(m, pi)
        assert ideal_membership(m, singleton(j), 1) is None


def test_ideal_membership_certificate_check_raises_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_ideal_membership_certificate_check_raises")
