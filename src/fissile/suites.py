"""Named verification suites behind both the command line and the tests.

Each suite yields (case, ok) pairs with JSON-friendly case descriptors, uses
a fixed seed for its randomized parts, and checks exact equalities only.
"""

import random

from . import identities as ident
from .brunnian import (
    delete,
    enumerate_nestings,
    generator,
    invert,
    is_brunnian,
    lcs_degree,
    left_comb,
    nested_commutator,
    concat,
    reduce_word,
)
from .chained import (
    SubsetMonoid,
    ideal_membership,
    omega,
    omega_annihilates,
    ring_product,
    subsets_of,
)
from .ensembles import Ensemble, augmentation, map_ensemble, singleton
from .fissilizer import (
    FunctionFacePresheaf,
    ProductLayoutPresheaf,
    check_fissilizer_defect,
    defect_subgroup_family,
    fissilize,
    is_fissile,
)
from .layouts import enumerate_layouts, layout_meet
from .posets import Section, check_restriction_square, lift_limit, nabla, nabla_inverse
from .simplicial import (
    ContractionTower,
    base_embedding,
    barycentric,
    canonical_retraction,
    complex_intersection,
    compose,
    cone,
    cone_map,
    cone_projection,
    enumerate_based_morphisms,
    full_complex,
    inclusion,
    induce_through,
    kan_suspension,
    layout_complex,
    plus_base,
    plus_base_iso,
    point,
    reduced_cone,
    reduced_cone_map,
    standard_simplex,
    thick_simplex,
    wedge,
)

SUITE_NAMES = (
    "identities",
    "nabla",
    "lift",
    "fissilizer",
    "simplicial",
    "retractions",
    "witnesses",
    "brunnian",
)


def suite_identities(max_a=3, max_i=3, **_kw):
    for name, a_size, i_size, ok in ident.run_all(max_a, max_i):
        yield {"identity": name, "a": a_size, "i": i_size}, ok


def _random_layout_section(rng, lp, max_terms=3, coeff=3):
    fam = Section()
    for a in lp.lattice.layouts:
        val = Ensemble.zero()
        for _ in range(rng.randint(0, max_terms)):
            val = val + rng.randint(-coeff, coeff) * singleton(
                rng.choice(lp.enumerate_universe(a))
            )
        if val:
            fam[a] = val
    return fam


def suite_nabla(max_e=3, cases=100, seed=0, **_kw):
    rng = random.Random(seed)
    for n in range(1, max_e + 1):
        lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
        poset = lp.lattice.poset()

        def restrict(p, q, s):
            return lp.restrict(s, p, q)

        def extend(p, q, s):
            return lp.extend(s, p, q)

        round_ok = True
        square_ok = True
        for _ in range(cases):
            fam = _random_layout_section(rng, lp)
            back = nabla_inverse(poset, restrict, nabla(poset, restrict, fam))
            forth = nabla(poset, restrict, nabla_inverse(poset, restrict, fam))
            round_ok = round_ok and back == fam and forth == fam
            for q in poset.elements:
                square_ok = square_ok and check_restriction_square(
                    poset, restrict, extend, q, fam
                )
        yield {"ground": n, "check": "round-trip", "cases": cases}, round_ok
        yield {"ground": n, "check": "restriction-square", "cases": cases}, square_ok


def suite_lift(max_e=3, cases=100, seed=0, **_kw):
    rng = random.Random(seed)
    for n in range(1, max_e + 1):
        lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
        poset = lp.lattice.poset()
        top = lp.top

        def restrict(p, q, s):
            return lp.restrict(s, p, q)

        def extend(p, q, s):
            return lp.extend(s, p, q)

        ok = True
        for _ in range(cases):
            w = Ensemble.zero()
            for _ in range(rng.randint(1, 4)):
                w = w + rng.randint(-3, 3) * singleton(
                    rng.choice(lp.enumerate_universe(top))
                )
            compat = Section()
            for a in lp.lattice.layouts:
                if a == top:
                    continue
                val = restrict(top, a, w)
                if val:
                    compat[a] = val
            u = lift_limit(poset, restrict, extend, compat)
            ok = ok and all(
                restrict(top, a, u) == compat.value(a)
                for a in lp.lattice.layouts
                if a != top
            )
        yield {"ground": n, "check": "lift-restricts-back", "cases": cases}, ok


def suite_fissilizer(max_e=3, cases=200, defect_cases=50, seed=0, **_kw):
    rng = random.Random(seed)
    for n in range(1, max_e + 1):
        lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
        universe = lp.face.enumerate(lp.face.ground)
        ok_fissile = True
        ok_affine = True
        ok_fix = True
        for _ in range(cases):
            q = Ensemble.zero()
            for _ in range(rng.randint(0, 4)):
                q = q + rng.randint(-3, 3) * singleton(rng.choice(universe))
            phi = fissilize(lp, q)
            ok_fissile = ok_fissile and is_fissile(lp, phi)
            ok_affine = ok_affine and augmentation(phi) == 1
            ok_fix = ok_fix and fissilize(lp, phi) == phi
        yield {"ground": n, "check": "output-fissile", "cases": cases}, ok_fissile
        yield {"ground": n, "check": "output-affine", "cases": cases}, ok_affine
        yield {"ground": n, "check": "fixes-fissile", "cases": cases}, ok_fix
    for n in range(1, min(max_e, 2) + 1):
        lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
        universe = lp.face.enumerate(lp.face.ground)
        ok = True
        for _ in range(defect_cases):
            q = Ensemble.zero()
            for _ in range(rng.randint(1, 3)):
                q = q + rng.randint(-2, 2) * singleton(rng.choice(universe))
            fam = defect_subgroup_family(lp, [q])
            rep = check_fissilizer_defect(lp, q, fam)
            ok = ok and rep.hypothesis_ok and bool(rep.conclusion)
        yield {"ground": n, "check": "defect-family", "cases": defect_cases}, ok


def _empty_simplicial(bound):
    from .simplicial import FiniteSimplicialSet

    return FiniteSimplicialSet(
        bound,
        [[] for _ in range(bound + 1)],
        [{} for _ in range(bound + 1)],
        [{} for _ in range(bound + 1)],
        label=("empty", bound),
    )


def suite_simplicial(max_e=3, max_a=3, bound=4, **_kw):
    # construction validates the simplicial identities; reaching this point
    # with no assertion means they hold
    samples = [
        _empty_simplicial(bound),
        point(bound, based=False),
        standard_simplex(1, bound),
        thick_simplex(tuple(range(max_a)), bound),
    ]
    for n in range(1, max_e + 1):
        samples.append(barycentric(full_complex(tuple(range(1, n + 1))), bound))
    yield {"check": "simplicial-identities", "objects": len(samples)}, True

    ok = True
    for u in samples:
        for s in (0, 1):
            c = cone(u, s)
            p = cone_projection(c, s)
            emb = base_embedding(u, c, s)
            for m in range(u.bound + 1):
                fiber_label = ((1 - s),) * (m + 1)
                fiber = {x for x in c.level(m) if p.maps[m][x] == fiber_label}
                image = {emb.maps[m][x] for x in u.level(m)}
                ok = ok and fiber == image
            lifts = [x for x in c.level(0) if p.maps[0][x] == (s,)]
            ok = ok and lifts == [c.basepoint]
    yield {"check": "cone-universal-property"}, ok

    ok = True
    for u in (point(bound, based=False), standard_simplex(1, bound)):
        c = cone(u, 0)
        t = plus_base(c)
        iso = plus_base_iso(c, reduced_cone(t))
        ok = ok and iso.is_injective()
    yield {"check": "reduced-cone-of-plus"}, ok

    ok = True
    for letters_n in range(0, max_a + 1):
        u = (
            thick_simplex(tuple(range(letters_n)), bound)
            if letters_n
            else _empty_simplicial(bound)
        )
        susp, _proj, top = kan_suspension(u)
        ok = ok and len(susp.level(0)) == 2 and susp.has(0, top)
    yield {"check": "suspension-two-vertices"}, ok

    ok = True
    contraction_bound = bound
    big = tuple(range(1, max_a + 1))
    tower_big = ContractionTower(big, contraction_bound)
    from itertools import combinations

    for size in range(1, max_a):
        for sub in combinations(big, size):
            tower_sub = ContractionTower(sub, contraction_bound)
            cone_inc = cone_map(
                inclusion(tower_sub.thick, tower_big.thick),
                1,
                cdom=tower_sub.hat_cone,
                ccod=tower_big.hat_cone,
            )
            susp_inc = induce_through(
                tower_sub.susp_proj, compose(tower_big.susp_proj, cone_inc)
            )
            red_inc = reduced_cone_map(
                susp_inc, tower_sub.reduced, tower_big.reduced
            )
            for a in sub:
                lhs = compose(susp_inc, tower_sub.contraction(a))
                rhs = compose(tower_big.contraction(a), red_inc)
                ok = ok and lhs == rhs
    yield {"check": "contraction-compatibility", "letters": max_a}, ok


def suite_retractions(max_e=3, bound=None, **_kw):
    for n in range(1, max_e + 1):
        ground = tuple(range(1, n + 1))
        b = n if bound is None else bound
        top = full_complex(ground)
        ctop = cone(barycentric(top, b), 0)
        layouts = enumerate_layouts(ground)
        ok_meet = True
        ok_square = True
        for a in layouts:
            for c in layouts:
                ka, kc = layout_complex(a), layout_complex(c)
                meet_cplx = layout_complex(layout_meet(a, c))
                inter = complex_intersection(ka, kc)
                ok_meet = ok_meet and set(meet_cplx.simplices) == set(
                    inter.simplices
                )
                ca = cone(barycentric(ka, b), 0)
                cc = cone(barycentric(kc, b), 0)
                rho_c = canonical_retraction(top, kc, b, cone_k=ctop, cone_l=cc)
                lhs = compose(rho_c, inclusion(ca, ctop))
                rho_meet = canonical_retraction(ka, meet_cplx, b, cone_k=ca)
                rhs = compose(inclusion(rho_meet.codomain, cc), rho_meet)
                ok_square = ok_square and lhs == rhs
        yield {"ground": n, "check": "meet-is-intersection"}, ok_meet
        yield {"ground": n, "check": "retraction-square"}, ok_square


def suite_witnesses(max_i=3, cases=100, seed=0, **_kw):
    rng = random.Random(seed)
    ok = True
    for n in range(1, max_i + 1):
        monoid = SubsetMonoid(tuple(range(1, n + 1)))
        for j in monoid.elements:
            for k in monoid.elements:
                ok = ok and omega_annihilates(monoid, j, k) == (
                    not set(k) >= set(j)
                )
    yield {"check": "omega-annihilation", "max_i": max_i}, ok

    monoid = SubsetMonoid((1, 2))
    ok = True
    for _ in range(cases):
        level = rng.randint(0, 2)
        target = Ensemble.zero()
        for _ in range(rng.randint(1, 3)):
            l_key = rng.choice(monoid.elements)
            j = rng.choice([j for j in monoid.elements if len(j) >= level])
            target = target + rng.randint(-2, 2) * ring_product(
                monoid, singleton(l_key), omega(j)
            )
        cert = ideal_membership(monoid, target, level)
        ok = ok and cert is not None and cert.check(monoid, target)
    yield {"check": "ideal-round-trip", "cases": cases}, ok

    from .wedge import WedgeContext
    from .witnesses import (
        cone_witness,
        map_witness,
        restrict_witness,
        verify_witness,
        wedge_witness,
        combine_over_wedge,
        BlockPart,
        Block,
        FiltrationWitness,
        IdealTerm,
    )

    ctx = WedgeContext((1, 2), (1,))
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    t_big = ctx.cone_face((1,))
    pool = enumerate_based_morphisms(t, space.obj)
    pool_big = enumerate_based_morphisms(t_big, space.obj)
    restrictors = enumerate_based_morphisms(t, t_big)

    def random_pi(level):
        target = Ensemble.zero()
        js = [j for j in subsets_of(ctx.i_set) if len(j) >= level]
        for _ in range(rng.randint(1, 2)):
            target = target + rng.randint(-2, 2) * ring_product(
                ctx.monoid,
                singleton(rng.choice(subsets_of(ctx.i_set))),
                omega(rng.choice(js)),
            )
        return target, ideal_membership(ctx.monoid, target, level)

    def random_witness(t_obj, morphs):
        entries = []
        for _ in range(rng.randint(1, 2)):
            domains, parts = [], []
            for _ in range(rng.randint(1, 2)):
                level = rng.randint(0, 2)
                pi, cert = random_pi(level)
                domains.append(t)
                parts.append(
                    BlockPart(level, [IdealTerm(pi, cert, rng.choice(pool))], t, space)
                )
            wobj, ins = wedge(domains)
            f = rng.choice(enumerate_based_morphisms(t_obj, wobj))
            entries.append(
                (
                    rng.choice((-2, -1, 1, 2)),
                    Block(f=f, wedge_obj=wobj, insertions=ins, parts=parts, space=space),
                )
            )
        return FiltrationWitness(min(b.rank() for _c, b in entries), entries)

    ok = True
    for _ in range(cases):
        w = random_witness(t_big, pool_big)
        v = w.value()
        ok = ok and bool(verify_witness(v, w, w.level, ctx.monoid))
        k = rng.choice(restrictors)
        wr = restrict_witness(w, k)
        ok = ok and bool(
            verify_witness(
                map_ensemble(lambda m: compose(m, k), v), wr, w.level, ctx.monoid
            )
        )
        key = rng.choice(ctx.monoid.elements)
        h = space.action[key]
        wm = map_witness(w, h, space, space)
        ok = ok and bool(
            verify_witness(
                map_ensemble(lambda m: compose(h, m), v), wm, w.level, ctx.monoid
            )
        )
        wc = cone_witness(w, ctx.registry)
        red_t = ctx.registry.reduced_domain(t_big)
        red_space = ctx.registry.reduced_space(space)
        ok = ok and bool(
            verify_witness(
                map_ensemble(lambda m: reduced_cone_map(m, red_t, red_space[1]), v),
                wc,
                w.level,
                ctx.monoid,
            )
        )
        w2 = random_witness(t_big, pool_big)
        wobj, ins = wedge([t_big, t_big])
        ww = wedge_witness([w, w2], wobj, ins, ctx.registry)
        ok = ok and bool(
            verify_witness(
                combine_over_wedge(wobj, ins, [v, w2.value()]),
                ww,
                w.level + w2.level,
                ctx.monoid,
            )
        )
    yield {"check": "transforms-preserve-validity", "cases": cases}, ok


def _random_brunnian(rng, alphabet):
    from .brunnian import enumerate_nestings, nested_commutator

    s = len(alphabet)
    out = ()
    for _ in range(rng.randint(1, 3)):
        perm = list(alphabet)
        rng.shuffle(perm)
        t = rng.choice(enumerate_nestings(s))
        core = nested_commutator(t, [generator(i) for i in perm])
        conj = reduce_word(
            [(rng.choice(alphabet), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))]
        )
        piece = core if rng.random() < 0.5 else invert(core)
        out = concat(out, conj, piece, invert(conj))
    return out


def suite_brunnian(max_i=3, cases=100, seed=0, max_len=8, **_kw):
    rng = random.Random(seed)
    alphabet = (1, 2)
    letters = [(g, e) for g in alphabet for e in (1, -1)]
    ok = True
    from itertools import combinations, product

    def oracle(word):
        for r in range(len(alphabet)):
            for keep in combinations(alphabet, r):
                if delete(keep, word):
                    return False
        return True

    checked = 0
    for length in range(0, max_len + 1):
        if length <= 4:
            pool = list(product(letters, repeat=length))
        else:
            pool = [
                tuple(rng.choice(letters) for _ in range(length))
                for _ in range(300)
            ]
        for raw in pool:
            w = reduce_word(raw)
            ok = ok and is_brunnian(w, alphabet) == oracle(w)
            checked += 1
    yield {"check": "deletion-oracle", "words": checked}, ok

    ok = True
    for s in (2, 3, 4):
        gens = [generator(i) for i in range(1, s + 1)]
        for t in enumerate_nestings(s):
            ok = ok and is_brunnian(
                nested_commutator(t, gens), tuple(range(1, s + 1))
            )
    yield {"check": "nested-commutators-brunnian", "max_weight": 4}, ok

    ok = True
    for s in (1, 2, 3, 4):
        comb = nested_commutator(
            left_comb(s), [generator(i) for i in range(1, s + 1)]
        )
        ok = ok and lcs_degree(comb, max(s, 1)) == s
    yield {"check": "left-comb-depth", "max_weight": 4}, ok

    ok = True
    for n in range(2, max_i + 1):
        alpha = tuple(range(1, n + 1))
        for _ in range(cases):
            w = _random_brunnian(rng, alpha)
            ok = ok and is_brunnian(w, alpha)
            d = lcs_degree(w, n)
            ok = ok and (d is None or d >= n)
    yield {"check": "brunnian-depth-bound", "cases": cases, "max_i": max_i}, ok


SUITES = {
    "identities": suite_identities,
    "nabla": suite_nabla,
    "lift": suite_lift,
    "fissilizer": suite_fissilizer,
    "simplicial": suite_simplicial,
    "retractions": suite_retractions,
    "witnesses": suite_witnesses,
    "brunnian": suite_brunnian,
}
