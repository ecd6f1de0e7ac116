import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fissile.canon import ckey
from fissile.simplicial import (
    AbstractComplex,
    ContractionTower,
    EnumerationGuard,
    FiniteSimplicialSet,
    SimplicialError,
    SMorphism,
    apex_substitution,
    barycentric,
    base_embedding,
    canonical_retraction,
    complex_intersection,
    compose,
    cone,
    cone_map,
    cone_projection,
    count_retractions_with_apex_image,
    disjoint_basepoint,
    enumerate_based_morphisms,
    full_complex,
    inclusion,
    kan_suspension,
    layout_complex,
    nerve,
    plus_base,
    plus_base_iso,
    point,
    quotient,
    reduced_cone,
    reduced_cone_map,
    standard_simplex,
    subsimplicial,
    thick_simplex,
    wedge,
    wedge_combine,
)
from fissile.layouts import enumerate_layouts, layout_key, layout_meet

BOUND = 4


def empty_simplicial(bound):
    from fissile.simplicial import FiniteSimplicialSet

    return FiniteSimplicialSet(
        bound,
        [[] for _ in range(bound + 1)],
        [{} for _ in range(bound + 1)],
        [{} for _ in range(bound + 1)],
        label=("empty", bound),
    )


# -- basic constructions -----------------------------------------------------


def test_thick_simplex_levels():
    one = thick_simplex(("a",), 3)
    for n in range(4):
        assert len(one.level(n)) == 1
        if n > 0:
            assert len(one.nondegenerate(n)) == 0
    two = thick_simplex(("a", "b"), 3)
    assert len(two.level(1)) == 4


def test_standard_simplex_identities_checked():
    standard_simplex(2, BOUND)
    thick_simplex((0, 1, 2), 3)
    nerve((1, 2, 3), lambda a, b: a <= b, 3)


def test_barycentric_point_and_edge():
    assert barycentric(full_complex((1,)), 2).size() == point(2).size()
    k = full_complex((1, 2))
    b = barycentric(k, 3)
    assert len(b.nondegenerate(0)) == 3
    assert len(b.nondegenerate(1)) == 2


def test_barycentric_chain_count_oracle():
    for n in (1, 2, 3):
        k = full_complex(tuple(range(1, n + 1)))
        b = barycentric(k, 3)
        simple = list(k.simplices)
        for m in range(4):
            chains = [
                c
                for c in product(simple, repeat=m + 1)
                if all(set(c[i]) > set(c[i + 1]) for i in range(m))
            ]
            assert len(b.nondegenerate(m)) == len(chains)


# -- cones --------------------------------------------------------------------


@pytest.mark.parametrize("s", [0, 1])
def test_cone_on_empty_is_point(s):
    c = cone(empty_simplicial(3), s)
    for n in range(4):
        assert len(c.level(n)) == 1
    assert len(c.nondegenerate(0)) == 1


@pytest.mark.parametrize("s", [0, 1])
def test_cone_on_point_is_interval(s):
    c = cone(point(3, based=False), s)
    assert len(c.nondegenerate(0)) == 2
    assert len(c.nondegenerate(1)) == 1
    for n in (2, 3):
        assert len(c.nondegenerate(n)) == 0


@pytest.mark.parametrize("s", [0, 1])
def test_cone_cartesian_fiber_and_unique_lift(s):
    for u in (point(3, based=False), standard_simplex(1, 3), thick_simplex((0, 1), 3)):
        c = cone(u, s)
        p = cone_projection(c, s)
        emb = base_embedding(u, c, s)
        for n in range(u.bound + 1):
            fiber_label = ((1 - s),) * (n + 1)
            fiber = [x for x in c.level(n) if p.maps[n][x] == fiber_label]
            assert sorted(map(repr, fiber)) == sorted(
                repr(emb.maps[n][x]) for x in u.level(n)
            )
        # unique lift of the opposite vertex: exactly one vertex over it
        apex_label = (s,)
        lifts = [x for x in c.level(0) if p.maps[0][x] == apex_label]
        assert lifts == [c.basepoint]


def test_cone_preserves_injective_morphisms():
    rng = random.Random(41)
    u = thick_simplex((0, 1), 3)
    v = thick_simplex((0, 1, 2), 3)
    # letter inclusion is injective, its cone must be too
    inc = SMorphism(u, v, [{x: x for x in u.level(n)} for n in range(4)])
    assert inc.is_injective()
    for s in (0, 1):
        ci = cone_map(inc, s)
        assert ci.is_injective()


def test_cone_functoriality_composes():
    u = point(2, based=False)
    v = thick_simplex((0, 1), 2)
    w = thick_simplex((0,), 2)
    f = SMorphism(u, v, [{x: ((0,) * (n + 1)) for x in u.level(n)} for n in range(3)])
    g = SMorphism(v, w, [{x: ((0,) * (n + 1)) for x in v.level(n)} for n in range(3)])
    for s in (0, 1):
        cu, cv, cw = cone(u, s), cone(v, s), cone(w, s)
        lhs = cone_map(compose(g, f), s, cdom=cu, ccod=cw)
        rhs = compose(cone_map(g, s, cdom=cv, ccod=cw), cone_map(f, s, cdom=cu, ccod=cv))
        assert lhs == rhs


# -- reduced cone and suspension ----------------------------------------------


def test_reduced_cone_of_point_is_point():
    t = point(3)
    q, inc, proj, _int = reduced_cone(t)
    for n in range(4):
        assert len(q.level(n)) == 1


def test_reduced_cone_of_plus_matches_cone():
    # the reduced cone of (u with free basepoint) is the cone over u
    for u in (point(3, based=False), standard_simplex(1, 3)):
        c = cone(u, 0)
        t = plus_base(c)
        iso = plus_base_iso(c, reduced_cone(t))
        assert iso.is_injective()


def test_reduced_cone_preserves_wedges():
    a = disjoint_basepoint(point(3, based=False))
    b = disjoint_basepoint(standard_simplex(1, 3))
    w, ins = wedge([a, b])
    rw, _, _, _ = reduced_cone(w)
    ra, _, _, _ = reduced_cone(a)
    rb, _, _, _ = reduced_cone(b)
    wr, _ = wedge([ra, rb])
    for n in range(4):
        assert len(rw.level(n)) == len(wr.level(n))
        assert len(rw.nondegenerate(n)) == len(wr.nondegenerate(n))


def test_suspension_two_vertices():
    for letters in ((), ("a",), ("a", "b")):
        u = thick_simplex(letters, 3) if letters else empty_simplicial(3)
        susp, proj, top = kan_suspension(u)
        assert len(susp.level(0)) == 2
        assert susp.basepoint in susp.level(0) and top in susp.level(0)


def test_suspension_of_empty_top_is_isolated():
    susp, _, top = kan_suspension(empty_simplicial(3))
    assert len(susp.nondegenerate(1)) == 0
    assert len(susp.level(0)) == 2


def test_suspension_of_point_is_circle_like():
    susp, _, top = kan_suspension(point(3, based=False))
    assert len(susp.nondegenerate(0)) == 2
    assert len(susp.nondegenerate(1)) == 1
    assert len(susp.nondegenerate(2)) == 0


# -- wedges ---------------------------------------------------------------------


def test_wedge_single_part_is_copy():
    a = disjoint_basepoint(standard_simplex(1, 3))
    w, ins = wedge([a])
    for n in range(4):
        assert len(w.level(n)) == len(a.level(n))
        vals = set(ins[0].maps[n].values())
        assert len(vals) == len(a.level(n))


def test_wedge_two_two_point_sets():
    a = point(2)
    b = disjoint_basepoint(point(2, based=False))
    aa = disjoint_basepoint(point(2, based=False))
    w, ins = wedge([aa, b])
    assert len(w.level(0)) == 3


def test_wedge_insertions_injective_off_basepoint():
    a = disjoint_basepoint(point(3, based=False))
    b = disjoint_basepoint(standard_simplex(1, 3))
    w, ins = wedge([a, b])
    for j, part in enumerate((a, b)):
        for n in range(4):
            nonbp = [x for x in part.level(n) if x != part.basepoint_at(n)]
            vals = [ins[j].maps[n][x] for x in nonbp]
            assert len(set(vals)) == len(vals)
            assert all(v != w.basepoint_at(n) for v in vals)


# -- canonical retraction -------------------------------------------------------


def test_retraction_identity_case():
    k = full_complex((1, 2))
    r = canonical_retraction(k, k, 3)
    assert r == inclusion(r.domain, r.domain)


def test_retraction_vertex_rule():
    k = full_complex((1, 2))
    l = full_complex((1,))
    r = canonical_retraction(k, l, 3)
    apex = ((0,), None)
    # vertices of the subdivision are the simplices of k
    assert r.maps[0][((1,), ((2,),))] == apex
    assert r.maps[0][((1,), ((1, 2),))] == apex
    assert r.maps[0][((1,), ((1,),))] == ((1,), ((1,),))
    # retraction: identity on the target cone
    cl = r.codomain
    for n in range(4):
        for x in cl.level(n):
            assert r.maps[n][x] == x


def all_subcomplexes(k):
    simple = k.simplices
    out = []
    for size in range(len(simple) + 1):
        from itertools import combinations

        for chosen in combinations(simple, size):
            closed = set()
            for s in chosen:
                closed.add(s)
            if all(
                tuple(sorted(sub)) in closed
                for s in closed
                for m in range(1, len(s))
                for sub in __import__("itertools").combinations(s, m)
            ):
                c = AbstractComplex.__new__(AbstractComplex)
                c.simplices = tuple(sorted(closed))
                c.vertices = tuple(sorted({v for s in closed for v in s}))
                out.append(c)
    return out


def test_retraction_square_for_subcomplex_pairs():
    bound = 3
    k = full_complex((1, 2))
    subs = [c for c in all_subcomplexes(k) if c.simplices]
    ck = cone(barycentric(k, bound), 0)
    for l in subs:
        for m in subs:
            lm = complex_intersection(l, m)
            cl = cone(barycentric(l, bound), 0)
            cm = cone(barycentric(m, bound), 0)
            into_k = inclusion(cl, ck)
            via_k = compose(canonical_retraction(k, m, bound, cone_k=ck, cone_l=cm), into_k)
            rho_lm = canonical_retraction(l, lm, bound, cone_k=cl)
            into_m = inclusion(rho_lm.codomain, cm)
            via_l = compose(into_m, rho_lm)
            assert via_k == via_l


def test_layout_retraction_compatibility():
    # the square between the ambient retraction and the meet retraction
    bound = 3
    for n in (2, 3):
        ground = tuple(range(1, n + 1))
        top = full_complex(ground)
        ctop = cone(barycentric(top, bound), 0)
        layouts = enumerate_layouts(ground)
        for a in layouts:
            for b in layouts:
                ka, kb = layout_complex(a), layout_complex(b)
                meet_cplx = layout_complex(layout_meet(a, b))
                ca = cone(barycentric(ka, bound), 0)
                cb = cone(barycentric(kb, bound), 0)
                rho_b = canonical_retraction(top, kb, bound, cone_k=ctop, cone_l=cb)
                lhs = compose(rho_b, inclusion(ca, ctop))
                rho_meet = canonical_retraction(ka, meet_cplx, bound, cone_k=ca)
                rhs = compose(inclusion(rho_meet.codomain, cb), rho_meet)
                assert lhs == rhs


# -- canonical contraction ------------------------------------------------------


def test_apex_substitution_is_retraction():
    for letters in (("a",), ("a", "b")):
        tower = ContractionTower(letters, 3)
        cca = cone(tower.hat_cone, 0)
        sub = apex_substitution(cca, tower.hat_cone, letters[0])
        emb = base_embedding(tower.hat_cone, cca, 0)
        assert compose(sub, emb) == inclusion(tower.hat_cone, tower.hat_cone)
        assert sub.maps[0][cca.basepoint] == ((0,), (letters[0],))


def test_apex_substitution_unique_in_low_dimensions():
    tower = ContractionTower(("a", "b"), 2)
    cca = cone(tower.hat_cone, 0)
    emb = base_embedding(tower.hat_cone, cca, 0)
    found = count_retractions_with_apex_image(
        cca, tower.hat_cone, emb, ((0,), ("a",)), cap=3
    )
    assert len(found) == 1
    assert found[0] == apex_substitution(cca, tower.hat_cone, "a")


def test_contraction_is_based_retraction():
    for letters in (("a",), ("a", "b"), ("a", "b", "c")):
        tower = ContractionTower(letters, 3)
        sigma = tower.contraction(letters[0])
        assert sigma.is_based()


def test_contraction_compatible_with_letter_inclusion():
    # the square over a letter subset, for every shared letter
    bound = 3
    big = ("a", "b", "c")
    tower_a = ContractionTower(big, bound)
    for size in (1, 2):
        from itertools import combinations

        for sub in combinations(big, size):
            tower_b = ContractionTower(sub, bound)
            thick_inc = SMorphism(
                tower_b.thick,
                tower_a.thick,
                [{x: x for x in tower_b.thick.level(n)} for n in range(bound + 1)],
            )
            cone_inc = cone_map(
                thick_inc, 1, cdom=tower_b.hat_cone, ccod=tower_a.hat_cone
            )
            susp_inc = compose(tower_a.susp_proj, cone_inc)
            from fissile.simplicial import induce_through

            susp_inc = induce_through(tower_b.susp_proj, susp_inc)
            red_inc = reduced_cone_map(susp_inc, tower_b.reduced, tower_a.reduced)
            for a in sub:
                lhs = compose(susp_inc, tower_b.contraction(a))
                rhs = compose(tower_a.contraction(a), red_inc)
                assert lhs == rhs


# -- quotients and subsets --------------------------------------------------------


def test_quotient_collapses_subset():
    u = standard_simplex(1, 2)
    sub = [{x for x in u.level(n) if set(x) == {0}} for n in range(3)]
    q = quotient(u, sub)
    assert len(q.nondegenerate(0)) == 2


def test_subsimplicial_closure_enforced():
    u = standard_simplex(1, 2)
    with pytest.raises(AssertionError):
        subsimplicial(u, lambda n, x: n == 1)


# -- morphism mechanics -----------------------------------------------------------


def test_morphism_determined_by_nondegenerate_values():
    t = disjoint_basepoint(point(2, based=False))
    z, _ = wedge([t, disjoint_basepoint(point(2, based=False))])
    for f in enumerate_based_morphisms(t, z):
        rebuilt = []
        for n in range(t.bound + 1):
            level = {}
            for x in t.level(n):
                ops, m, y = t.eilenberg_zilber(n, x)
                v = f.maps[m][y]
                mm = m
                for i in reversed(ops):
                    v = z.degen(mm, i, v)
                    mm += 1
                level[x] = v
            rebuilt.append(level)
        assert SMorphism(t, z, rebuilt) == f


def brute_based_morphisms(t, z):
    slots = []
    for n in range(t.bound + 1):
        for x in t.nondegenerate(n):
            if n == 0 and x == t.basepoint:
                continue
            slots.append((n, x))
    out = []
    for combo in product(*[z.level(n) for n, _x in slots]):
        assigned = dict(zip(slots, combo))
        assigned[(0, t.basepoint)] = z.basepoint
        maps = []
        ok = True
        for n in range(t.bound + 1):
            level = {}
            for x in t.level(n):
                ops, m, y = t.eilenberg_zilber(n, x)
                v = assigned[(m, y)]
                mm = m
                for i in reversed(ops):
                    v = z.degen(mm, i, v)
                    mm += 1
                level[x] = v
            maps.append(level)
        try:
            out.append(SMorphism(t, z, maps))
        except SimplicialError:
            ok = False
    return out


def test_enumeration_matches_brute_force():
    t = disjoint_basepoint(point(2, based=False))
    z, _ = wedge(
        [disjoint_basepoint(point(2, based=False)), disjoint_basepoint(point(2, based=False))]
    )
    fast = enumerate_based_morphisms(t, z)
    brute = brute_based_morphisms(t, z)
    assert set(fast) == set(brute)
    assert len(fast) == len(z.level(0))

    t2 = plus_base(cone(barycentric(full_complex((1,)), 2), 0))
    susp, _, _ = kan_suspension(point(2, based=False))
    fast2 = enumerate_based_morphisms(t2, susp)
    brute2 = brute_based_morphisms(t2, susp)
    assert set(fast2) == set(brute2)


def test_enumeration_to_point_unique():
    t = disjoint_basepoint(standard_simplex(1, 2))
    z = point(2)
    assert len(enumerate_based_morphisms(t, z)) == 1


def test_enumeration_guard():
    big, _ = wedge(
        [disjoint_basepoint(thick_simplex((0, 1), 2)) for _ in range(3)]
    )
    with pytest.raises(EnumerationGuard):
        enumerate_based_morphisms(big, big, cap=2)


def test_wedge_combine_roundtrip():
    a = disjoint_basepoint(point(2, based=False))
    b = disjoint_basepoint(point(2, based=False))
    w, ins = wedge([a, b])
    fa = enumerate_based_morphisms(a, w)
    fb = enumerate_based_morphisms(b, w)
    combined = wedge_combine(w, ins, [fa[0], fb[0]])
    assert compose(combined, ins[0]) == fa[0]
    assert compose(combined, ins[1]) == fb[0]


# -- table keys -------------------------------------------------------------------


def ckey_sorted_rows(m):
    """The table key as the rows sorted by their canonical bytes."""
    rows = [
        (n, x, m.maps[n][x])
        for n in range(m.domain.bound + 1)
        for x in m.domain.nondegenerate(n)
    ]
    return tuple(sorted(rows, key=ckey))


def test_table_key_matches_ckey_order_on_construction_morphisms(monkeypatch):
    from fissile.wedge import construct_p

    built = []
    init = SMorphism.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SMorphism, "__init__", recording_init)
    construct_p((1, 2), (1, 2))
    assert len(built) > 1000
    for m in built:
        assert m.table_key() == ckey_sorted_rows(m)


VERTICES = (1, 2, 10, 12, 21, 100, 123)
ORDERS = (
    lambda a, b: a <= b,
    lambda a, b: b % a == 0,
    lambda a, b: a == b,
)


@st.composite
def nerve_to_thick_morphisms(draw):
    """The morphism from the nerve of a small poset to a thick simplex
    induced by an arbitrary vertex map."""
    bound = draw(st.integers(1, 3))
    elements = draw(st.sets(st.sampled_from(VERTICES), min_size=1, max_size=4))
    leq = draw(st.sampled_from(ORDERS))
    letters = draw(
        st.sampled_from([(0, 1), (1, 10, 2), ("a", "ab"), ("b", "a", "ba")])
    )
    image = {v: draw(st.sampled_from(letters)) for v in sorted(elements)}
    dom = nerve(elements, leq, bound)
    cod = thick_simplex(letters, bound)
    maps = [
        {x: tuple(image[v] for v in x) for x in dom.level(n)}
        for n in range(bound + 1)
    ]
    return SMorphism(dom, cod, maps)


@settings(max_examples=60, deadline=None)
@given(nerve_to_thick_morphisms())
def test_table_key_matches_ckey_order_on_small_morphisms(m):
    assert m.table_key() == ckey_sorted_rows(m)


KEYS = st.one_of(
    st.integers(-150, 150),
    st.text("ab,[]\"", max_size=3),
    st.tuples(st.integers(0, 20), st.sampled_from(["*", "a", None])),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda b: st.lists(
    st.sets(KEYS, max_size=4), min_size=b + 1, max_size=b + 1
)), st.data())
def test_table_key_matches_ckey_order_past_ten_dimensions(levels, data):
    # the row order only reads the levels, so a table over bare keys with
    # no degenerate simplices exercises dimensions 10 and up, numbers that
    # extend one another, and strings holding JSON punctuation
    bound = len(levels) - 1
    dom = FiniteSimplicialSet(
        bound,
        levels,
        [{} for _ in levels],
        [{x: () for x in level} for level in levels],
        check=False,
    )
    maps = [{x: data.draw(KEYS) for x in level} for level in dom.simplices]
    m = SMorphism(dom, dom, maps, check=False)
    assert m.table_key() == ckey_sorted_rows(m)
