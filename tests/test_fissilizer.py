import random

import pytest

from fissile import fissilizer, posets
from fissile.ensembles import (
    Ensemble,
    SubgroupGenerators,
    augmentation,
    map_ensemble,
    singleton,
)
from fissile.fissilizer import (
    FunctionFacePresheaf,
    ProductLayoutPresheaf,
    check_fissilizer_defect,
    defect_subgroup_family,
    fissilize,
    is_fissile,
    q_square,
)
from fissile.layouts import layout_geq, layout_key, resolve_block


def presheaf_on(ground, **face):
    return ProductLayoutPresheaf(FunctionFacePresheaf(ground, **face))


def random_top_ensemble(rng, lp, max_terms=4, coeff=3):
    universe = lp.face.enumerate(lp.face.ground)
    out = Ensemble.zero()
    for _ in range(rng.randint(0, max_terms)):
        out = out + rng.randint(-coeff, coeff) * singleton(rng.choice(universe))
    return out


def test_q_square_empty_layout_is_point():
    lp = presheaf_on((1, 2))
    q = singleton((0, 1)) + 2 * singleton((1, 1))
    assert q_square(lp, q, ()) == singleton(())


def test_q_square_top_is_identity():
    lp = presheaf_on((1, 2))
    q = singleton((0, 1)) - singleton((1, 0))
    assert lp.unwrap(q_square(lp, q, lp.top)) == q


def test_q_square_on_singleton():
    lp = presheaf_on((1, 2))
    a = layout_key([(1,), (2,)])
    got = q_square(lp, singleton((0, 1)), a)
    assert got == singleton(((0,), (1,)))


def test_singletons_are_fissile():
    lp = presheaf_on((1, 2))
    for el in lp.face.enumerate((1, 2)):
        assert is_fissile(lp, singleton(el))


def test_nonaffine_is_not_fissile():
    lp = presheaf_on((1, 2))
    q = 2 * singleton((0, 0))
    assert augmentation(q) != 1
    assert not is_fissile(lp, q)


def test_is_fissile_matches_brute_layout_check():
    rng = random.Random(21)
    lp = presheaf_on((1, 2))
    for _ in range(40):
        q = random_top_ensemble(rng, lp, max_terms=3)
        wrapped = lp.wrap(q)
        brute = all(
            lp.restrict(wrapped, lp.top, a) == q_square(lp, q, a)
            for a in lp.lattice.layouts
        )
        assert is_fissile(lp, q) == brute


def test_fissilizer_output_is_fissile_and_affine():
    rng = random.Random(22)
    for n in (1, 2, 3):
        lp = presheaf_on(tuple(range(1, n + 1)))
        for _ in range(30 if n < 3 else 10):
            q = random_top_ensemble(rng, lp)
            phi = fissilize(lp, q)
            assert is_fissile(lp, phi)
            assert augmentation(phi) == 1


def test_fissilizer_fixes_fissile_inputs():
    rng = random.Random(23)
    lp = presheaf_on((1, 2))
    for el in lp.face.enumerate((1, 2)):
        assert fissilize(lp, singleton(el)) == singleton(el)
    for _ in range(10):
        q = random_top_ensemble(rng, lp)
        phi = fissilize(lp, q)
        assert fissilize(lp, phi) == phi


def test_fissilizer_singleton_ground_formula():
    # hand expansion over the two-layout lattice of a one-point ground set
    lp = presheaf_on((1,))
    rng = random.Random(24)
    default_el = (lp.face.default,)
    for _ in range(20):
        q = random_top_ensemble(rng, lp)
        expected = q + (1 - augmentation(q)) * singleton(default_el)
        assert fissilize(lp, q) == expected


def test_fissilizer_commutes_with_face_restriction():
    # restriction of the repaired ensemble to a layout splits into the
    # repaired face restrictions
    rng = random.Random(25)
    for n in (2, 3):
        ground = tuple(range(1, n + 1))
        lp = presheaf_on(ground)
        for _ in range(8 if n < 3 else 4):
            q = random_top_ensemble(rng, lp, max_terms=3, coeff=2)
            phi = fissilize(lp, q)
            wrapped = lp.wrap(phi)
            for a in lp.lattice.layouts:
                parts = {}
                for f in a:
                    sub = ProductLayoutPresheaf(
                        FunctionFacePresheaf(f, lp.face.values, lp.face.default)
                    )
                    qf = map_ensemble(
                        lambda el: lp.face.restrict(ground, f, el), q
                    )
                    parts[f] = sub.wrap(fissilize(sub, qf))
                assert lp.restrict(wrapped, lp.top, a) == lp.combine(a, parts)


def test_defect_family_certificate():
    rng = random.Random(26)
    for n in (1, 2):
        lp = presheaf_on(tuple(range(1, n + 1)))
        for _ in range(10):
            q = random_top_ensemble(rng, lp, max_terms=3, coeff=2)
            n_family = defect_subgroup_family(lp, [q])
            report = check_fissilizer_defect(lp, q, n_family)
            assert report.hypothesis_ok, report.hypothesis_failures
            assert report.conclusion


def test_defect_check_trivial_cases():
    lp = presheaf_on((1, 2))
    universe = {
        a: lp.enumerate_universe(a) for a in lp.lattice.layouts
    }
    full = {
        a: SubgroupGenerators([singleton(el) for el in universe[a]])
        for a in lp.lattice.layouts
    }
    q = singleton((0, 1)) - 2 * singleton((1, 1)) + singleton((0, 0))
    report = check_fissilizer_defect(lp, q, full)
    assert report.hypothesis_ok and report.conclusion
    # a fissile input has zero defect, any invariant family works
    report2 = check_fissilizer_defect(lp, singleton((0, 1)), full)
    assert report2.hypothesis_ok and report2.conclusion


def test_defect_check_reports_hypothesis_failure_distinctly():
    lp = presheaf_on((1,))
    bad = {a: SubgroupGenerators([]) for a in lp.lattice.layouts}
    q = 2 * singleton((0,))
    report = check_fissilizer_defect(lp, q, bad)
    assert not report.hypothesis_ok
    assert report.conclusion is None
    assert any(kind == "defect" for kind, *_ in report.hypothesis_failures)


def rescan_defect_family(lp, seeds):
    """Reference: the defect closure that pushes every generator of every
    family along every pair a > b and direction, each round."""
    lattice = lp.lattice
    family = {a: SubgroupGenerators(()) for a in lattice.layouts}

    def push(a, g):
        if not g or fissilizer.subgroup_membership(g, family[a]):
            return False
        family[a] = SubgroupGenerators(family[a].generators + (g,))
        return True

    for q in seeds:
        wrapped = lp.wrap(q)
        for a in lattice.layouts:
            push(a, q_square(lp, q, a) - lp.restrict(wrapped, lp.top, a))
    changed = True
    while changed:
        changed = False
        for a in lattice.layouts:
            for b in lattice.layouts:
                if a == b or not lattice.geq(a, b):
                    continue
                for g in family[a].generators:
                    changed |= push(b, lp.restrict(g, a, b))
                for g in family[b].generators:
                    changed |= push(a, lp.extend(g, a, b))
    return family


def test_defect_family_equals_the_full_rescan_closure(monkeypatch):
    calls = {"incremental": 0, "rescan": 0}
    counting = ["incremental"]
    membership = fissilizer.subgroup_membership

    def counted(v, gens):
        calls[counting[0]] += 1
        return membership(v, gens)

    monkeypatch.setattr(fissilizer, "subgroup_membership", counted)
    rng = random.Random(31)
    for n in (1, 2, 2, 3):
        lp = presheaf_on(tuple(range(1, n + 1)))
        for _ in range(8):
            seeds = [
                random_top_ensemble(rng, lp, max_terms=3, coeff=3)
                for _ in range(rng.randint(1, 2))
            ]
            counting[0] = "incremental"
            got = defect_subgroup_family(lp, seeds)
            counting[0] = "rescan"
            want = rescan_defect_family(lp, seeds)
            assert list(got) == list(want)
            for a, gens in want.items():
                assert [list(g.terms.items()) for g in got[a].generators] == [
                    list(g.terms.items()) for g in gens.generators
                ]
    # each generator is pushed once per pair and direction
    assert calls["incremental"] < calls["rescan"]


def reference_restrict(lp, a, b, el):
    """Restriction of one element, block by block, by the face rule."""
    out = []
    for g in b:
        f = resolve_block(a, g)
        out.append(lp.face.restrict(f, g, el[a.index(f)]))
    return tuple(out)


def reference_extend(lp, a, b, el):
    """Extension of one element: each point of a takes its value in b, or
    the face default where b has none."""
    out = []
    for f in a:
        row = []
        for x in f:
            val = lp.face.default
            for gi, g in enumerate(b):
                if x in g:
                    val = el[gi][g.index(x)]
                    break
            row.append(val)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plans_match_the_elementwise_definition(n):
    lp = presheaf_on(tuple(range(1, n + 1)), values=(0, 1, 2), default=2)
    layouts = lp.lattice.layouts
    for a in layouts:
        for b in layouts:
            if not layout_geq(a, b):
                continue
            for el in lp.enumerate_universe(a):
                got = lp.restrict(singleton(el), a, b)
                assert got == singleton(reference_restrict(lp, a, b, el)), (a, b, el)
            for el in lp.enumerate_universe(b):
                got = lp.extend(singleton(el), a, b)
                assert got == singleton(reference_extend(lp, a, b, el)), (a, b, el)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_pair_out_of_order_fails_on_every_call(n):
    lp = presheaf_on(tuple(range(1, n + 1)))
    layouts = lp.lattice.layouts
    bad = [(a, b) for a in layouts for b in layouts if not layout_geq(a, b)]
    assert bad
    for a, b in bad:
        for s in (Ensemble.zero(), singleton(lp.enumerate_universe(a)[0])):
            for _ in range(2):
                with pytest.raises(ValueError, match="restriction requires a >= b"):
                    lp.restrict(s, a, b)
                with pytest.raises(ValueError, match="extension requires a >= b"):
                    lp.extend(s, a, b)


@pytest.mark.optimized
def test_lattice_poset_is_built_once():
    lattice = presheaf_on((1, 2, 3)).lattice
    assert lattice.poset() is lattice.poset()


@pytest.mark.optimized
def test_fissilize_and_lift_build_at_most_two_posets(monkeypatch):
    built = []
    init = posets.FinitePoset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(posets.FinitePoset, "__init__", counting_init)
    rng = random.Random(27)
    lp = presheaf_on((1, 2, 3))
    top = lp.top
    for _ in range(20):
        fissilize(lp, random_top_ensemble(rng, lp))
    for _ in range(20):
        w = lp.wrap(random_top_ensemble(rng, lp, max_terms=3))
        compat = posets.Section(
            (a, lp.restrict(w, top, a)) for a in lp.lattice.layouts if a != top
        )
        u = posets.lift_limit(
            lp.lattice.poset(),
            lambda p, q, s: lp.restrict(s, p, q),
            lambda p, q, s: lp.extend(s, p, q),
            compat,
        )
        assert all(lp.restrict(u, top, a) == val for a, val in compat.items())
    assert len(built) <= 2


def test_poset_counts_hold_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_lattice_poset_is_built_once",
        f"{__file__}::test_fissilize_and_lift_build_at_most_two_posets",
    )
