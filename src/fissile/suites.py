"""Named verification suites behind both the command line and the tests.

Each suite yields (case, ok) pairs with JSON-friendly case descriptors, uses
a fixed seed for its randomized parts, and checks exact equalities only.
A suite's keyword parameters are its options: ``fissile verify`` passes a
suite only the options it names and refuses any other.
"""

import random
import re
from itertools import combinations, product

from . import identities as ident
from .brunnian import (
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
    TOP,
    ContractionTower,
    apex_substitution,
    base_embedding,
    barycentric,
    canonical_retraction,
    complex_intersection,
    compose,
    cone,
    cone_map,
    cone_projection,
    constant_morphism,
    enumerate_based_morphisms,
    full_complex,
    generated_subset_levels,
    inclusion,
    induce_through,
    kan_suspension,
    layout_complex,
    nerve,
    plus_base,
    plus_base_iso,
    point,
    quotient,
    quotient_projection,
    reduced_cone,
    reduced_cone_map,
    standard_simplex,
    suspension_inclusion,
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


def suite_identities(max_a=3, max_i=3):
    for name, a_size, i_size, ok in ident.run_all(max_a, max_i):
        yield {"identity": name, "a": a_size, "i": i_size}, ok


def _random_ensemble(rng, pool, terms, coeff):
    """A sum of ``terms`` singletons drawn from pool, each times a coefficient
    drawn from -coeff..coeff."""
    out = Ensemble.zero()
    for _ in range(terms):
        out = out + rng.randint(-coeff, coeff) * singleton(rng.choice(pool))
    return out


def _random_layout_section(rng, lp, max_terms=3, coeff=3):
    fam = Section()
    for a in lp.lattice.layouts:
        val = _random_ensemble(
            rng, lp.enumerate_universe(a), rng.randint(0, max_terms), coeff
        )
        if val:
            fam[a] = val
    return fam


def _presheaf(n):
    """The product layout presheaf on the ground 1..n, its poset, and its
    restriction and extension as maps (p, q, s) of s from p to q."""
    lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
    return (
        lp,
        lp.lattice.poset(),
        lambda p, q, s: lp.restrict(s, p, q),
        lambda p, q, s: lp.extend(s, p, q),
    )


def suite_nabla(max_e=3, cases=100, seed=0):
    rng = random.Random(seed)
    for n in range(1, max_e + 1):
        lp, poset, restrict, extend = _presheaf(n)
        round_ok = True
        square_ok = True
        for _ in range(cases):
            fam = _random_layout_section(rng, lp)
            back = nabla_inverse(poset, restrict, nabla(poset, restrict, fam))
            forth = nabla(poset, restrict, nabla_inverse(poset, restrict, fam))
            round_ok = round_ok and back == fam and forth == fam
            square_ok = square_ok and check_restriction_square(
                poset, restrict, extend, fam
            )
        yield {"ground": n, "check": "round-trip", "cases": cases}, round_ok
        yield {"ground": n, "check": "restriction-square", "cases": cases}, square_ok


def suite_lift(max_e=3, cases=100, seed=0):
    rng = random.Random(seed)
    for n in range(1, max_e + 1):
        lp, poset, restrict, extend = _presheaf(n)
        top = lp.top
        ok = True
        for _ in range(cases):
            w = _random_ensemble(rng, lp.enumerate_universe(top), rng.randint(1, 4), 3)
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


def suite_fissilizer(max_e=3, cases=200, defect_cases=50, seed=0):
    rng = random.Random(seed)
    for n in range(1, max_e + 1):
        lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
        universe = lp.face.enumerate(lp.face.ground)
        ok_fissile = True
        ok_affine = True
        ok_fix = True
        for _ in range(cases):
            q = _random_ensemble(rng, universe, rng.randint(0, 4), 3)
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
            q = _random_ensemble(rng, universe, rng.randint(1, 3), 2)
            fam = defect_subgroup_family(lp, [q])
            rep = check_fissilizer_defect(lp, q, fam)
            ok = ok and rep.hypothesis_ok and bool(rep.conclusion)
        yield {"ground": n, "check": "defect-family", "cases": defect_cases}, ok


def _empty_simplicial(bound):
    return nerve((), lambda x, y: True, bound, label=("empty", bound))


# -- the quotient recipes that the direct collapses replace ------------------


def suspension_recipe(u):
    """The suspension of u as a quotient: the 1-cone with its base
    collapsed.  Returns (Σu, projection CU -> Σu)."""
    c = cone(u, 1)
    base = [{((0,) * (n + 1), y) for y in u.simplices[n]} for n in range(u.bound + 1)]
    q = quotient(c, base, label=("suspension", u.label))
    return q, quotient_projection(c, q)


def reduced_cone_recipe(t):
    """The reduced cone of t as a quotient: the 0-cone with the simplicial
    subset generated by the cone over the basepoint collapsed.  Returns
    (čT, projection ČT -> čT)."""
    c = cone(t, 0)
    fixed = []
    for n in range(t.bound + 1):
        for apexes in range(n + 2):
            tt = (0,) * apexes + (1,) * (n + 1 - apexes)
            y = None if apexes == n + 1 else t.basepoint_at(n - apexes)
            fixed.append((n, (tt, y)))
    q = quotient(c, generated_subset_levels(c, fixed), label=("redcone", t.label))
    return q, quotient_projection(c, q)


def reduced_cone_map_recipe(f, proj_dom, proj_cod):
    """The reduced cone of f, induced through the projection of the domain
    from the cone of f followed by the projection of the codomain."""
    cf = cone_map(f, 0, cdom=proj_dom.domain, ccod=proj_cod.domain)
    return induce_through(proj_dom, compose(proj_cod, cf))


def contraction_recipe(tower, letter, proj):
    """The contraction of the tower at the letter, induced through the cone
    of the recipe projection onto Σ and ``proj``, the one onto its reduced
    cone, from the apex substitution on the 0-cone of the 1-cone."""
    susp_proj = suspension_recipe(tower.thick)[1]
    cca = cone(susp_proj.domain, 0)
    cq = cone_map(susp_proj, 0, cdom=cca, ccod=proj.domain)
    sigma_tilde = apex_substitution(cca, susp_proj.domain, letter)
    return induce_through(proj, induce_through(cq, compose(susp_proj, sigma_tilde)))


def suspension_inclusion_recipe(sub, sup):
    """The suspension map of a letter inclusion: the cone of the inclusion
    of the thick simplices, induced through the recipe projections."""
    proj_sub, proj_sup = (suspension_recipe(t.thick)[1] for t in (sub, sup))
    cone_inc = cone_map(
        inclusion(sub.thick, sup.thick), 1, cdom=proj_sub.domain, ccod=proj_sup.domain
    )
    return induce_through(proj_sub, compose(proj_sup, cone_inc))


def same_tables(a, b):
    """Whether two simplicial sets have the same label, basepoint, levels
    and face and degeneracy tables."""
    def tables(u):
        return u.label, u.basepoint, u.simplices, u.faces, u.degens

    return tables(a) == tables(b)


def same_map(m, r):
    """Whether two morphisms have the same rows between objects that carry
    the same labels."""
    labels = (m.domain.label, m.codomain.label)
    return labels == (r.domain.label, r.codomain.label) and m == r


def suite_simplicial(max_e=3, max_a=3, bound=4):
    # construction validates the simplicial identities; reaching this point
    # with no assertion means they hold
    samples = [
        _empty_simplicial(bound),
        standard_simplex(0, bound),
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
                fiber = {x for x in c.level(m) if p(m, x) == fiber_label}
                image = {emb(m, x) for x in u.level(m)}
                ok = ok and fiber == image
            lifts = [x for x in c.level(0) if p(0, x) == (s,)]
            ok = ok and lifts == [c.basepoint]
    yield {"check": "cone-universal-property"}, ok

    ok = True
    for u in (standard_simplex(0, bound), standard_simplex(1, bound)):
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
        susp = kan_suspension(u)
        ok = ok and set(susp.level(0)) == {susp.basepoint, TOP}
        ok = ok and same_tables(susp, suspension_recipe(u)[0])
    yield {"check": "suspension-two-vertices"}, ok

    big = tuple(range(1, max_a + 1))
    tower_big = ContractionTower(big, bound)
    towers_sub = [
        ContractionTower(sub, bound)
        for size in range(1, max_a)
        for sub in combinations(big, size)
    ]

    ok = True
    for tower_sub in towers_sub:
        susp_inc = suspension_inclusion(tower_sub, tower_big)
        red_inc = reduced_cone_map(susp_inc, tower_sub.reduced, tower_big.reduced)
        for a in tower_sub.letters:
            lhs = compose(susp_inc, tower_sub.contraction(a))
            rhs = compose(tower_big.contraction(a), red_inc)
            ok = ok and lhs == rhs
    yield {"check": "contraction-compatibility", "letters": max_a}, ok

    # the direct reduced cones, their inclusions and maps, and the
    # contractions against the quotient recipes: on the cones of the
    # samples and their plus bases, with their identities, the plus-base
    # inclusions and the maps to the point; and on the towers, with the
    # suspension inclusions
    pt = point(bound)
    maps = [(constant_morphism(pt, pt, pt.basepoint), pt, pt)]
    for u in samples:
        c = cone(u, 0)
        t = plus_base(c)
        maps.append((inclusion(t, c), t, c))
        for v in (c, t):
            maps.append((inclusion(v, v), v, v))
            maps.append((constant_morphism(v, pt, pt.basepoint), v, pt))
    ok = True
    for tower_sub in towers_sub:
        susp_inc = suspension_inclusion(tower_sub, tower_big)
        ok = ok and same_map(susp_inc, suspension_inclusion_recipe(tower_sub, tower_big))
        maps.append((susp_inc, tower_sub.susp, tower_big.susp))
    direct = {tower.susp: tower.reduced for tower in [tower_big, *towers_sub]}
    for _f, *objects in maps:
        for v in objects:
            if v not in direct:
                direct[v] = reduced_cone(v)
    recipe = {}
    for v, (red, inc) in direct.items():
        q, proj = recipe[v] = reduced_cone_recipe(v)
        ok = ok and same_tables(red, q)
        ok = ok and same_map(inc, compose(proj, base_embedding(v, proj.domain, 0)))
    for f, t, z in maps:
        got = reduced_cone_map(f, direct[t], direct[z])
        ok = ok and same_map(got, reduced_cone_map_recipe(f, recipe[t][1], recipe[z][1]))
    for tower in [tower_big, *towers_sub]:
        for a in tower.letters:
            want = contraction_recipe(tower, a, recipe[tower.susp][1])
            ok = ok and same_map(tower.contraction(a), want)
    yield {"check": "reduced-cone-recipe", "maps": len(maps)}, ok


def suite_retractions(max_e=3, bound=None):
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


def suite_witnesses(max_i=3, cases=100, seed=0):
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
        PairScope,
        cone_witness,
        drop_zero_blocks,
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
        return target

    def random_witness(t_obj, morphs):
        entries = []
        for _ in range(rng.randint(1, 2)):
            domains, parts = [], []
            for _ in range(rng.randint(1, 2)):
                level = rng.randint(0, 2)
                domains.append(t)
                term = IdealTerm(random_pi(level), rng.choice(pool))
                parts.append(BlockPart(level, [term]))
            wobj = wedge(domains)
            f = rng.choice(enumerate_based_morphisms(t_obj, wobj))
            entries.append((rng.choice((-2, -1, 1, 2)), Block(f, parts)))
        return FiltrationWitness(min(b.rank() for _c, b in entries), entries)

    def holds(v, w, level, space=space):
        # zero blocks dropped first, by the builder's own rule
        scope = PairScope()
        return bool(
            verify_witness(v, drop_zero_blocks(w, space, scope), level, space, scope)
        )

    ok = True
    for _ in range(cases):
        w = random_witness(t_big, pool_big)
        v = w.value(space)
        ok = ok and holds(v, w, w.level)
        k = rng.choice(restrictors)
        wr = restrict_witness(w, k)
        ok = ok and holds(map_ensemble(lambda m: compose(m, k), v), wr, w.level)
        key = rng.choice(ctx.monoid.elements)
        h = space.action[key]
        wm = map_witness(w, h, space, space)
        ok = ok and holds(map_ensemble(lambda m: compose(h, m), v), wm, w.level)
        wc = cone_witness(w, space, ctx)
        red_t = ctx.reduced_domain(t_big)
        red_space = ctx.reduced_space(space)
        ok = ok and holds(
            map_ensemble(lambda m: reduced_cone_map(m, red_t, red_space[1]), v),
            wc,
            w.level,
            red_space[0],
        )
        w2 = random_witness(t_big, pool_big)
        wobj = wedge([t_big, t_big])
        ww = wedge_witness([w, w2], wobj, ctx)
        ok = ok and holds(
            combine_over_wedge(wobj, [v, w2.value(space)]), ww, w.level + w2.level
        )
    yield {"check": "transforms-preserve-validity", "cases": cases}, ok


def _random_brunnian(rng, alphabet):
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


def suite_brunnian(max_i=3, cases=100, seed=0, max_len=8):
    rng = random.Random(seed)
    alphabet = (1, 2)
    letters = [(g, e) for g in alphabet for e in (1, -1)]
    ok = True

    # every proper deletion by hand, without ``delete`` or ``reduce_word``:
    # the kept letters spelled as text, then inverse pairs stripped until
    # none is left
    spell = {(1, 1): "a", (1, -1): "A", (2, 1): "b", (2, -1): "B"}

    def oracle(word):
        for r in range(len(alphabet)):
            for kept in combinations(alphabet, r):
                text = "".join(spell[x] for x in word if x[0] in kept)
                while re.search("aA|Aa|bB|Bb", text):
                    text = re.sub("aA|Aa|bB|Bb", "", text)
                if text:
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
