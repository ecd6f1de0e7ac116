import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fissile import simplicial
from fissile.canon import ckey
from fissile.simplicial import (
    BASE,
    AbstractComplex,
    ContractionTower,
    EnumerationGuard,
    FiniteSimplicialSet,
    TOP,
    SimplicialError,
    SMorphism,
    _faces_agree,
    apex_substitution,
    barycentric,
    base_embedding,
    canonical_retraction,
    collapse,
    complex_intersection,
    compose,
    cone,
    cone_map,
    cone_projection,
    constant_morphism,
    enumerate_based_morphisms,
    full_complex,
    inclusion,
    induce_through,
    intern_all,
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
    subsimplicial,
    tabulate,
    thick_simplex,
    wedge,
    wedge_combine,
)
from fissile.layouts import enumerate_layouts, layout_key, layout_meet
from fissile.suites import (
    contraction_recipe,
    reduced_cone_map_recipe,
    reduced_cone_recipe,
    same_map,
    same_tables,
    suspension_inclusion_recipe,
    suspension_recipe,
)

BOUND = 4


def tabulated(t, z, maps):
    """The validated morphism whose rows are the dicts ``maps``, one per
    dimension, keyed by exactly the nondegenerate simplices of t."""
    levels = [set(t.nondegenerate(n)) for n in range(t.bound + 1)]
    assert [set(level) for level in maps] == levels
    return tabulate(t, z, lambda n, x: maps[n][x])


def id_rows(t, maps):
    """The id rows of a table given as one dict per dimension over the
    nondegenerate simplices of t, for a table built unvalidated."""
    return tuple(
        intern_all([level[x] for x in t.nondegenerate(n)]) for n, level in enumerate(maps)
    )


def empty_simplicial(bound):
    from fissile.simplicial import FiniteSimplicialSet

    return FiniteSimplicialSet(
        bound,
        [[] for _ in range(bound + 1)],
        [{} for _ in range(bound + 1)],
        [{} for _ in range(bound + 1)],
        label=("empty", bound),
    )


def disjoint_basepoint(u):
    """u with a free basepoint adjoined (quotient by the empty subset)."""
    return quotient(u, [set() for _ in range(u.bound + 1)], label=("plus", u.label))


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


def tuple_simplex_tables(points, monotone, bound):
    """The levels (in ckey order), face and degeneracy tables of the tuple
    simplex over the points, written out directly: all tuples, or the
    monotone ones; faces delete a slot and degeneracies repeat one."""
    simplices, faces, degens = [], [], []
    for m in range(bound + 1):
        level = [
            t
            for t in product(points, repeat=m + 1)
            if not monotone or all(t[i] <= t[i + 1] for i in range(m))
        ]
        simplices.append(sorted(level, key=ckey))
        faces.append(
            {t: tuple(t[:i] + t[i + 1 :] for i in range(m + 1)) for t in level}
            if m
            else {}
        )
        degens.append(
            {t: tuple(t[: i + 1] + t[i:] for i in range(m + 1)) for t in level}
            if m < bound
            else {}
        )
    return simplices, faces, degens


@pytest.mark.parametrize("n", range(12))
def test_standard_and_thick_simplices_are_nerves(n):
    # both are built through nerve, which orders its elements by ckey; from
    # 10 on that order differs from the numeric one
    for bound in range(4):
        for u, points, monotone, label in (
            (standard_simplex(n, bound), range(n + 1), True, ("standard", n, bound)),
            (thick_simplex(range(n), bound), range(n), False, ("thick", tuple(range(n)), bound)),
        ):
            simplices, faces, degens = tuple_simplex_tables(points, monotone, bound)
            assert [list(level) for level in u.simplices] == simplices
            assert u.faces == faces and u.degens == degens
            assert u.label == label and u.basepoint is None


def test_barycentric_point_and_edge():
    sizes = [len(level) for level in barycentric(full_complex((1,)), 2).simplices]
    assert sizes == [len(level) for level in point(2).simplices]
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


def test_point_and_cone_are_labelled_and_based_when_validated(monkeypatch):
    # no set is changed after it is validated: the label and basepoint
    # that validation sees, and names in its messages, are the final ones
    seen = []
    validate = FiniteSimplicialSet._validate

    def record(self):
        seen.append((self.label, self.basepoint))
        validate(self)

    monkeypatch.setattr(FiniteSimplicialSet, "_validate", record)
    assert point(2).label == ("standard", 0, 2)
    assert seen[-1] == (("standard", 0, 2), (0,))
    point(2, label=("point",))
    assert seen[-1] == (("point",), (0,))
    cone(standard_simplex(1, 2), 0, label=("edge cone",))
    assert seen[-1] == (("edge cone",), ((0,), None))


# -- cones --------------------------------------------------------------------


@pytest.mark.parametrize("s", [0, 1])
def test_cone_on_empty_is_point(s):
    c = cone(empty_simplicial(3), s)
    for n in range(4):
        assert len(c.level(n)) == 1
    assert len(c.nondegenerate(0)) == 1


@pytest.mark.parametrize("s", [0, 1])
def test_cone_on_point_is_interval(s):
    c = cone(standard_simplex(0, 3), s)
    assert len(c.nondegenerate(0)) == 2
    assert len(c.nondegenerate(1)) == 1
    for n in (2, 3):
        assert len(c.nondegenerate(n)) == 0


@pytest.mark.parametrize("s", [0, 1])
def test_cone_cartesian_fiber_and_unique_lift(s):
    for u in (standard_simplex(0, 3), standard_simplex(1, 3), thick_simplex((0, 1), 3)):
        c = cone(u, s)
        p = cone_projection(c, s)
        emb = base_embedding(u, c, s)
        for n in range(u.bound + 1):
            fiber_label = ((1 - s),) * (n + 1)
            fiber = [x for x in c.level(n) if p(n, x) == fiber_label]
            assert sorted(map(repr, fiber)) == sorted(
                repr(emb(n, x)) for x in u.level(n)
            )
        # unique lift of the opposite vertex: exactly one vertex over it
        apex_label = (s,)
        lifts = [x for x in c.level(0) if p(0, x) == apex_label]
        assert lifts == [c.basepoint]


def test_cone_preserves_injective_morphisms():
    rng = random.Random(41)
    u = thick_simplex((0, 1), 3)
    v = thick_simplex((0, 1, 2), 3)
    # letter inclusion is injective, its cone must be too
    inc = tabulate(u, v, lambda n, x: x)
    assert inc.is_injective()
    for s in (0, 1):
        ci = cone_map(inc, s)
        assert ci.is_injective()


def test_cone_functoriality_composes():
    u = standard_simplex(0, 2)
    v = thick_simplex((0, 1), 2)
    w = thick_simplex((0,), 2)
    f = tabulate(u, v, lambda n, x: (0,) * (n + 1))
    g = tabulate(v, w, lambda n, x: (0,) * (n + 1))
    for s in (0, 1):
        cu, cv, cw = cone(u, s), cone(v, s), cone(w, s)
        lhs = cone_map(compose(g, f), s, cdom=cu, ccod=cw)
        rhs = compose(cone_map(g, s, cdom=cv, ccod=cw), cone_map(f, s, cdom=cu, ccod=cv))
        assert lhs == rhs


# -- reduced cone and suspension ----------------------------------------------


def test_reduced_cone_of_point_is_point():
    t = point(3)
    q, inc = reduced_cone(t)
    for n in range(4):
        assert len(q.level(n)) == 1


def test_reduced_cone_of_plus_matches_cone():
    # the reduced cone of (u with free basepoint) is the cone over u
    for u in (standard_simplex(0, 3), standard_simplex(1, 3)):
        c = cone(u, 0)
        t = plus_base(c)
        iso = plus_base_iso(c, reduced_cone(t))
        assert iso.is_injective()


def test_reduced_cone_preserves_wedges():
    a = disjoint_basepoint(standard_simplex(0, 3))
    b = disjoint_basepoint(standard_simplex(1, 3))
    w = wedge([a, b])
    rw, _ = reduced_cone(w)
    ra, _ = reduced_cone(a)
    rb, _ = reduced_cone(b)
    wr = wedge([ra, rb])
    for n in range(4):
        assert len(rw.level(n)) == len(wr.level(n))
        assert len(rw.nondegenerate(n)) == len(wr.nondegenerate(n))


def test_suspension_two_vertices():
    # and each direct suspension has the tables of the quotient of the 1-cone
    for letters in ((), ("a",), ("a", "b")):
        u = thick_simplex(letters, 3) if letters else empty_simplicial(3)
        susp = kan_suspension(u)
        assert len(susp.level(0)) == 2
        assert susp.basepoint in susp.level(0) and TOP in susp.level(0)
        assert same_tables(susp, suspension_recipe(u)[0])


def test_suspension_of_empty_top_is_isolated():
    susp = kan_suspension(empty_simplicial(3))
    assert len(susp.nondegenerate(1)) == 0
    assert len(susp.level(0)) == 2


def test_suspension_of_point_is_circle_like():
    susp = kan_suspension(standard_simplex(0, 3))
    assert len(susp.nondegenerate(0)) == 2
    assert len(susp.nondegenerate(1)) == 1
    assert len(susp.nondegenerate(2)) == 0


# -- wedges ---------------------------------------------------------------------


def test_wedge_single_part_is_copy():
    a = disjoint_basepoint(standard_simplex(1, 3))
    w = wedge([a])
    ins = w.insertions
    for n in range(4):
        assert len(w.level(n)) == len(a.level(n))
        vals = {ins[0](n, x) for x in a.level(n)}
        assert len(vals) == len(a.level(n))


def test_wedge_two_two_point_sets():
    a = point(2)
    b = disjoint_basepoint(standard_simplex(0, 2))
    aa = disjoint_basepoint(standard_simplex(0, 2))
    w = wedge([aa, b])
    assert len(w.level(0)) == 3


def test_wedge_insertions_injective_off_basepoint():
    a = disjoint_basepoint(standard_simplex(0, 3))
    b = disjoint_basepoint(standard_simplex(1, 3))
    w = wedge([a, b])
    ins = w.insertions
    for j, part in enumerate((a, b)):
        for n in range(4):
            nonbp = [x for x in part.level(n) if x != part.basepoint_at(n)]
            vals = [ins[j](n, x) for x in nonbp]
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
    vertices = dict(r.items(0))
    assert vertices[((1,), ((2,),))] == apex
    assert vertices[((1,), ((1, 2),))] == apex
    assert vertices[((1,), ((1,),))] == ((1,), ((1,),))
    # retraction: identity on the target cone
    cl = r.codomain
    for n in range(4):
        for x in cl.level(n):
            assert r(n, x) == x


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
        hat_cone = cone(thick_simplex(letters, 3), 1)
        cca = cone(hat_cone, 0)
        sub = apex_substitution(cca, hat_cone, letters[0])
        emb = base_embedding(hat_cone, cca, 0)
        assert compose(sub, emb) == inclusion(hat_cone, hat_cone)
        assert dict(sub.items(0))[cca.basepoint] == ((0,), (letters[0],))


def count_retractions_with_apex_image(cca, ca, base_incl, apex_image, cap=8):
    """Diagnostic search: how many retractions of the 0-cone send the apex to
    the prescribed vertex.  Exhaustive, so keep the bound tiny."""
    found = []
    start = [{} for _ in range(cca.bound + 1)]
    for n in range(cca.bound + 1):
        for x, y in base_incl.items(n):
            start[n][y] = x
    start[0][cca.basepoint] = apex_image
    slots = [
        (n, x)
        for n in range(cca.bound + 1)
        for x in cca.nondegenerate(n)
        if x not in start[n]
    ]

    def rec(idx, maps):
        if len(found) >= cap:
            return
        if idx == len(slots):
            try:
                found.append(tabulated(cca, ca, maps))
            except SimplicialError:
                pass
            return
        n, x = slots[idx]
        for val in ca.simplices[n]:
            if _faces_agree(cca, ca, maps, n, x, val):
                maps[n][x] = val
                rec(idx + 1, maps)
        maps[n].pop(x, None)

    rec(0, start)
    return found


def test_apex_substitution_unique_in_low_dimensions():
    hat_cone = cone(thick_simplex(("a", "b"), 2), 1)
    cca = cone(hat_cone, 0)
    emb = base_embedding(hat_cone, cca, 0)
    found = count_retractions_with_apex_image(cca, hat_cone, emb, ((0,), ("a",)), cap=3)
    assert len(found) == 1
    assert found[0] == apex_substitution(cca, hat_cone, "a")


def test_contraction_is_based_retraction():
    for letters in (("a",), ("a", "b"), ("a", "b", "c")):
        tower = ContractionTower(letters, 3)
        sigma = tower.contraction(letters[0])
        assert sigma.is_based()


def test_contraction_tower_cones_once(monkeypatch):
    # a tower and its contractions cone nothing, its suspension and reduced
    # cone being collapses of cone keys; each contraction equals the one
    # built from fresh cones
    coned = []

    def counting(u, s):
        coned.append((u.label, s))
        return cone(u, s)

    monkeypatch.setattr(simplicial, "cone", counting)
    tower = ContractionTower(("a", "b", "c"), 3)
    sigmas = [tower.contraction(a) for a in tower.letters]
    assert coned == []
    monkeypatch.undo()
    proj = reduced_cone_recipe(tower.susp)[1]
    for a, sigma in zip(tower.letters, sigmas):
        assert same_map(sigma, contraction_recipe(tower, a, proj))


@pytest.mark.optimized
def test_contraction_with_a_corrupted_rule_fails(monkeypatch):
    # every value on the collapsed base: a based map, but not a retraction
    monkeypatch.setattr(
        simplicial, "_apex_value", lambda letter, n, x: ((0,) * (n + 1), None)
    )
    tower = ContractionTower(("a", "b"), 3)
    with pytest.raises(SimplicialError, match="does not restrict to the identity"):
        tower.contraction("a")


def test_contraction_compatible_with_letter_inclusion():
    # the square over a letter subset, for every shared letter
    bound = 3
    big = ("a", "b", "c")
    tower_a = ContractionTower(big, bound)
    for size in (1, 2):
        from itertools import combinations

        for sub in combinations(big, size):
            tower_b = ContractionTower(sub, bound)
            susp_inc = suspension_inclusion_recipe(tower_b, tower_a)
            red_inc = reduced_cone_map(susp_inc, tower_b.reduced, tower_a.reduced)
            for a in sub:
                lhs = compose(susp_inc, tower_b.contraction(a))
                rhs = compose(tower_a.contraction(a), red_inc)
                assert lhs == rhs


def recording_reduced_cones(monkeypatch):
    """Record every reduced cone, reduced-cone map, contraction and
    suspension inclusion that the package builds, through every binding of
    the builders, as (kind, arguments, result)."""
    built = []

    def recording(kind, original):
        def record(*args):
            out = original(*args)
            built.append((kind, args, out))
            return out

        return record

    for original in (
        simplicial.reduced_cone,
        simplicial.reduced_cone_map,
        simplicial.suspension_inclusion,
    ):
        replacement = recording(original.__name__, original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fissile":
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, replacement)
    contraction = ContractionTower.contraction
    monkeypatch.setattr(
        ContractionTower, "contraction", recording("contraction", contraction)
    )
    return built


@pytest.mark.optimized
def test_every_reduced_cone_of_two_runs_equals_its_recipe(monkeypatch):
    from fissile.wedge import construct_p, construct_q

    built = recording_reduced_cones(monkeypatch)
    construct_p((1, 2, 3), (1, 2), enforce_guard=False)
    construct_q(construct_p((1, 2), (1, 2)))
    monkeypatch.undo()
    kinds = {kind for kind, _args, _out in built}
    assert kinds == {
        "reduced_cone",
        "reduced_cone_map",
        "suspension_inclusion",
        "contraction",
    }
    recipes = {}

    def recipe(t):
        if t not in recipes:
            recipes[t] = reduced_cone_recipe(t)
        return recipes[t]

    seen = set()
    for kind, args, out in built:
        if id(out) in seen:
            continue
        seen.add(id(out))
        if kind == "reduced_cone":
            (t,) = args
            q, proj = recipe(t)
            assert same_tables(out[0], q)
            assert same_map(out[1], compose(proj, base_embedding(t, proj.domain, 0)))
        elif kind == "reduced_cone_map":
            f, rdom, rcod = args
            want = reduced_cone_map_recipe(
                f, recipe(rdom[1].domain)[1], recipe(rcod[1].domain)[1]
            )
            assert same_map(out, want)
        elif kind == "suspension_inclusion":
            assert same_map(out, suspension_inclusion_recipe(*args))
        else:
            tower, letter = args
            want = contraction_recipe(tower, letter, recipe(tower.susp)[1])
            assert same_map(out, want)


def unbased_point_map():
    """The vertex of a point with a free basepoint onto one end of an edge
    with a free basepoint, and that free basepoint onto the other end."""
    t = disjoint_basepoint(standard_simplex(0, 2))
    z = disjoint_basepoint(standard_simplex(1, 2))
    return tabulated(t, z, [{BASE: (0,), (0,): (1,)}, {}, {}])


@pytest.mark.optimized
def test_reduced_cone_map_rejects_a_map_that_is_not_based():
    from fissile.witnesses import PairScope

    f = unbased_point_map()
    rdom, rcod = reduced_cone(f.domain), reduced_cone(f.codomain)
    with pytest.raises(SimplicialError, match="not based"):
        reduced_cone_map(f, rdom, rcod)
    with pytest.raises(SimplicialError, match="not based"):
        PairScope().reduced_cone_map(f, rdom, rcod)


def test_reduced_cone_map_into_another_sets_reduced_cone_is_validated():
    # between f's own reduced cones the map is proved simplicial; into the
    # reduced cone of another set it is validated, so a value outside it fails
    point = disjoint_basepoint(standard_simplex(0, 2))
    edge = disjoint_basepoint(standard_simplex(1, 2))
    into_edge = tabulate(point, edge, lambda n, x: x)
    red_point, red_edge = reduced_cone(point), reduced_cone(edge)
    # the identity of the point read into the edge lands in the point's cone
    m = reduced_cone_map(into_edge, red_point, red_point)
    assert m == inclusion(red_point[0], red_point[0])
    ident = inclusion(edge, edge)
    assert reduced_cone_map(ident, red_edge, red_edge) == inclusion(red_edge[0], red_edge[0])
    with pytest.raises(SimplicialError, match="value outside codomain"):
        reduced_cone_map(ident, red_edge, red_point)


# -- quotients and subsets --------------------------------------------------------


def test_quotient_collapses_subset():
    u = standard_simplex(1, 2)
    sub = [{x for x in u.level(n) if set(x) == {0}} for n in range(3)]
    q = quotient(u, sub)
    assert len(q.nondegenerate(0)) == 2


def test_collapse_rejects_a_degeneracy_that_is_not_kept():
    # the vertex (0,) is kept, its degeneracy (0, 0) is not
    u = standard_simplex(1, 2)
    with pytest.raises(SimplicialError, match="degeneracy outside the level above"):
        collapse(
            u.bound,
            u.simplices,
            lambda n, x: u.faces[n][x],
            lambda n, x: u.degens[n][x],
            lambda n, x: x != (0, 0),
            ("bad", u.label),
        )


@pytest.mark.optimized
def test_subsimplicial_closure_enforced():
    u = standard_simplex(1, 2)
    with pytest.raises(SimplicialError, match="not closed under faces .* dimension 1"):
        subsimplicial(u, lambda n, x: n == 1)
    with pytest.raises(SimplicialError, match="not closed under degeneracies"):
        subsimplicial(u, lambda n, x: n == 0)
    # the set is not validated, so the subset itself must hold its basepoint
    zero = lambda n, x: set(x) == {0}  # noqa: E731
    assert subsimplicial(u, zero, basepoint=(0,)).basepoint == (0,)
    with pytest.raises(SimplicialError, match="misses the basepoint"):
        subsimplicial(u, zero, basepoint=(1,))


@pytest.mark.optimized
def test_induce_through_rejects_map_not_descending():
    # the quotient collapses both endpoints of the edge to one basepoint,
    # but the identity keeps them apart
    u = standard_simplex(1, 2)
    ends = [{x for x in u.level(n) if len(set(x)) == 1} for n in range(3)]
    proj = quotient_projection(u, quotient(u, ends))
    with pytest.raises(SimplicialError, match="does not descend .* dimension 0"):
        induce_through(proj, inclusion(u, u))


# -- morphism mechanics -----------------------------------------------------------


def full_table(m):
    """The value of m at every simplex, as the full tables once stored it:
    level by level, s_i y takes s_i of the value at y, and every way of
    reaching a degenerate simplex must give the same value.  The faces of
    the full table must commute, the check those tables once passed."""
    t, z = m.domain, m.codomain
    table = [dict(m.items(0))]
    for n in range(1, t.bound + 1):
        level = dict(m.items(n))
        for y, v in table[n - 1].items():
            for d, zd in zip(t.degens[n - 1][y], z.degens[n - 1][v]):
                assert level.setdefault(d, zd) == zd
        assert level.keys() == t.level_sets[n]
        table.append(level)
    for n in range(1, t.bound + 1):
        for x, v in table[n].items():
            assert tuple(table[n - 1][y] for y in t.faces[n][x]) == z.faces[n][v]
    return table


def assert_agrees_with_full_table(m):
    table = full_table(m)
    for n in range(m.domain.bound + 1):
        for x in m.domain.level(n):
            assert m(n, x) == table[n][x]


def test_morphism_determined_by_nondegenerate_values():
    t = disjoint_basepoint(standard_simplex(0, 2))
    z = wedge([t, disjoint_basepoint(standard_simplex(0, 2))])
    for f in enumerate_based_morphisms(t, z):
        assert_agrees_with_full_table(f)


def test_degenerate_values_match_full_tables_in_the_construction(monkeypatch):
    from fissile.wedge import construct_p

    built = []
    init = SMorphism.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SMorphism, "__init__", recording_init)
    construct_p((1, 2), (1, 2))
    monkeypatch.undo()
    assert len(built) > 1000
    seen = set()
    for m in built:
        key = (id(m.domain), id(m.codomain), m.table_key())
        if key not in seen:
            seen.add(key)
            assert_agrees_with_full_table(m)


@pytest.mark.optimized
def test_table_with_a_degenerate_row_rejected():
    # id rows hold one value per nondegenerate simplex, so a value for a
    # degenerate one makes a row too long, and a missing value one too short
    t = disjoint_basepoint(standard_simplex(1, 2))
    rows = inclusion(t, t).rows
    degenerate = intern_all([t.degen(0, 0, (0,))])
    for check in (True, False):
        extra = (rows[0], rows[1] + degenerate, rows[2])
        with pytest.raises(SimplicialError, match="rows differ from the nondegenerate"):
            SMorphism(t, t, extra, check=check)
        missing = (rows[0], rows[1][:-1], rows[2])
        with pytest.raises(SimplicialError, match="rows differ from the nondegenerate"):
            SMorphism(t, t, missing, check=check)
        with pytest.raises(SimplicialError, match="dimensions differ from the bound"):
            SMorphism(t, t, rows[:-1], check=check)


def test_morphism_equality_is_equality_of_rows():
    # equal rows over separately built but equal objects, as the checker
    # rebuilds them
    a, b = standard_simplex(1, 2), standard_simplex(1, 2)
    assert a is not b
    for make in (lambda u: inclusion(u, u), lambda u: constant_morphism(u, u, (1,))):
        assert make(a) == make(b) and hash(make(a)) == hash(make(b))
    # the same rows into codomains with different levels
    sup = thick_simplex((0, 1), 2)
    sub = subsimplicial(sup, lambda n, x: x == tuple(sorted(x)), label="sorted")
    into_sup, identity = inclusion(sub, sup), inclusion(sub, sub)
    assert sub.simplices != sup.simplices
    assert into_sup == identity and hash(into_sup) == hash(identity)
    # different rows
    ends = [constant_morphism(a, a, (v,)) for v in (0, 1)]
    assert ends[0] != ends[1] and ends[0] != inclusion(a, a)
    assert len({*ends, inclusion(a, a), inclusion(b, b)}) == 3


@pytest.mark.optimized
def test_face_breaking_row_rejected():
    t = disjoint_basepoint(standard_simplex(1, 2))
    edge = t.degen(0, 0, (1,))
    with pytest.raises(SimplicialError, match="does not commute with faces .* dimension 1"):
        tabulate(t, t, lambda n, x: edge if x == (0, 1) else x)


def test_injective_needs_nondegenerate_values():
    # the circle (an edge with its ends collapsed) onto the point: injective
    # on the nondegenerate rows, but the edge goes to the degenerate edge,
    # which is also the value of the degenerate edge at the basepoint
    u = standard_simplex(1, 2)
    ends = [{x for x in u.level(n) if len(set(x)) == 1} for n in range(3)]
    circle, z = quotient(u, ends), point(2)
    f = tabulated(circle, z, [{BASE: (0,)}, {(0, 1): (0, 0)}, {}])
    assert all(len(set(row)) == len(row) for row in f.rows)
    assert not f.is_injective()
    assert f(1, (0, 1)) == f(1, circle.degen(0, 0, BASE))


@pytest.mark.optimized
def test_plus_base_iso_rejects_a_larger_reduced_cone():
    # the reduced cone of the plus base over a larger simplex receives the
    # cone over the smaller one injectively, but not onto
    c = cone(standard_simplex(1, 2), 0)
    bigger = reduced_cone(plus_base(cone(standard_simplex(2, 2), 0)))
    with pytest.raises(SimplicialError, match="is not an isomorphism"):
        plus_base_iso(c, bigger)


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
        maps = [
            {x: assigned[(n, x)] for x in t.nondegenerate(n)}
            for n in range(t.bound + 1)
        ]
        try:
            out.append(tabulated(t, z, maps))
        except SimplicialError:
            pass
    return out


def test_enumeration_matches_brute_force():
    t = disjoint_basepoint(standard_simplex(0, 2))
    z = wedge([disjoint_basepoint(standard_simplex(0, 2)) for _ in range(2)])
    fast = enumerate_based_morphisms(t, z)
    brute = brute_based_morphisms(t, z)
    assert set(fast) == set(brute)
    assert len(fast) == len(z.level(0))

    t2 = plus_base(cone(barycentric(full_complex((1,)), 2), 0))
    susp = kan_suspension(standard_simplex(0, 2))
    fast2 = enumerate_based_morphisms(t2, susp)
    brute2 = brute_based_morphisms(t2, susp)
    assert set(fast2) == set(brute2)


def test_enumeration_to_point_unique():
    t = disjoint_basepoint(standard_simplex(1, 2))
    z = point(2)
    assert len(enumerate_based_morphisms(t, z)) == 1


def test_enumeration_guard():
    big = wedge(
        [disjoint_basepoint(thick_simplex((0, 1), 2)) for _ in range(3)]
    )
    with pytest.raises(EnumerationGuard):
        enumerate_based_morphisms(big, big, cap=2)


def test_wedge_combine_roundtrip():
    a = disjoint_basepoint(standard_simplex(0, 2))
    b = disjoint_basepoint(standard_simplex(0, 2))
    w = wedge([a, b])
    ins = w.insertions
    fa = enumerate_based_morphisms(a, w)
    fb = enumerate_based_morphisms(b, w)
    combined = wedge_combine(w, [fa[0], fb[0]])
    assert compose(combined, ins[0]) == fa[0]
    assert compose(combined, ins[1]) == fb[0]


def dict_wedge_combine(w, morphisms, codomain=None):
    """The gluing built key by key: each part's value at x stored at the
    wedge key of x through its insertion, the basepoint at the basepoint."""
    z = codomain if codomain is not None else morphisms[0].codomain
    maps = []
    for n in range(w.bound + 1):
        base = w.basepoint_at(n)
        level = {} if n else {base: z.basepoint}
        for ins, f in zip(w.insertions, morphisms):
            for x, fx in f.items(n):
                if ins(n, x) != base:
                    level[ins(n, x)] = fx
        maps.append(level)
    return tabulated(w, z, maps)


def test_gathered_gluing_equals_the_keyed_one_on_every_q_gluing(monkeypatch):
    from fissile import witnesses
    from fissile.wedge import construct_p, construct_q

    original, calls = witnesses.wedge_combine, []

    def recording(w, morphisms, codomain=None):
        out = original(w, morphisms, codomain=codomain)
        calls.append((w, tuple(morphisms), codomain, out))
        return out

    monkeypatch.setattr(witnesses, "wedge_combine", recording)
    construct_q(construct_p((1, 2), (1, 2)))
    assert len(calls) > 100
    assert any(len(morphisms) > 1 for _w, morphisms, _z, _out in calls)
    for w, morphisms, codomain, out in calls:
        ref = dict_wedge_combine(w, list(morphisms), codomain=codomain)
        assert out.rows == ref.rows and out.codomain is ref.codomain


def two_edge_wedge():
    a = disjoint_basepoint(standard_simplex(1, 2))
    b = disjoint_basepoint(standard_simplex(1, 2))
    return a, b, wedge([a, b])


def test_gluing_rejects_an_unbased_part():
    a, b, w = two_edge_wedge()
    unbased = constant_morphism(a, w, (1, (0,)))
    assert not unbased.is_based()
    with pytest.raises(SimplicialError, match="is not based"):
        wedge_combine(w, [unbased, w.insertions[1]])


@pytest.mark.parametrize("count", [0, 1, 3])
def test_gluing_rejects_a_part_count_other_than_the_summands(count):
    a, b, w = two_edge_wedge()
    parts = [w.insertions[0], w.insertions[1], w.insertions[1]][:count]
    with pytest.raises(SimplicialError, match="has 2 summands, not"):
        wedge_combine(w, parts)


def test_gluing_rejects_a_part_on_another_domain():
    a, b, w = two_edge_wedge()
    vertex = disjoint_basepoint(standard_simplex(0, 2))
    other = constant_morphism(vertex, w, w.basepoint)
    with pytest.raises(SimplicialError, match="is not on the summand"):
        wedge_combine(w, [w.insertions[0], other])
    # nor is another object with the summand's levels
    with pytest.raises(SimplicialError, match="is not on the summand"):
        wedge_combine(w, [w.insertions[1], w.insertions[0]])


def test_gluing_into_an_enlarged_codomain_is_validated():
    # parts into an edge glued into a triangle that holds the edge with its
    # keys: the gluing is validated there, so a part that breaks faces,
    # built unchecked, fails at the gluing
    t = disjoint_basepoint(standard_simplex(1, 2))
    z = disjoint_basepoint(standard_simplex(2, 2))
    w = wedge([t])
    good = wedge_combine(w, [inclusion(t, t)], codomain=z)
    assert good.codomain is z and compose(good, w.insertions[0]) == inclusion(t, z)
    maps = [dict(inclusion(t, t).items(n)) for n in range(t.bound + 1)]
    maps[1][(0, 1)] = (0, 0)
    broken = SMorphism(t, t, id_rows(t, maps), check=False)
    with pytest.raises(SimplicialError, match="faces"):
        wedge_combine(w, [broken], codomain=z)


# -- table keys -------------------------------------------------------------------


def ckey_sorted_rows(m):
    """The table key as the rows sorted by their canonical bytes."""
    rows = [(n, x, v) for n in range(m.domain.bound + 1) for x, v in m.items(n)]
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
    return tabulate(dom, cod, lambda n, x: tuple(image[v] for v in x))


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
    # no degenerate simplices, in a set that skips validation, exercises
    # dimensions 10 and up, numbers that extend one another, and strings
    # holding JSON punctuation
    class BareKeys(FiniteSimplicialSet):
        def _validate(self):
            pass

    bound = len(levels) - 1
    dom = BareKeys(
        bound,
        levels,
        [{} for _ in levels],
        [{x: () for x in level} for level in levels],
    )
    maps = [{x: data.draw(KEYS) for x in level} for level in dom.simplices]
    m = SMorphism(dom, dom, id_rows(dom, maps), check=False)
    assert m.table_key() == ckey_sorted_rows(m)


def test_every_reduced_cone_of_two_runs_equals_its_recipe_under_optimize(
    run_optimized,
):
    run_optimized(f"{__file__}::test_every_reduced_cone_of_two_runs_equals_its_recipe")


def test_reduced_cone_error_paths_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_reduced_cone_map_rejects_a_map_that_is_not_based",
        f"{__file__}::test_contraction_with_a_corrupted_rule_fails",
    )


def test_subsimplicial_closure_enforced_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_subsimplicial_closure_enforced")


def test_induce_through_rejects_map_not_descending_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_induce_through_rejects_map_not_descending")


def test_table_with_a_degenerate_row_rejected_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_table_with_a_degenerate_row_rejected")


def test_face_breaking_row_rejected_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_face_breaking_row_rejected")


def test_plus_base_iso_rejects_a_larger_reduced_cone_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_plus_base_iso_rejects_a_larger_reduced_cone")


DERIVED_TABLES = {
    "nondegenerate": lambda s: [s.nondegenerate(n) for n in range(s.bound + 1)],
    "nondegenerate_ids": lambda s: s.nondegenerate_ids(),
    "level_key": lambda s: s.level_key,
    "key_levels": lambda s: s.key_levels(),
    "normal_forms": lambda s: [s.normal_forms(n) for n in range(s.bound + 1)],
    "face_forms": lambda s: [s.face_forms(n) for n in range(1, s.bound + 1)],
}


@pytest.mark.parametrize("table", DERIVED_TABLES)
def test_each_derived_table_is_computed_on_its_first_read(table):
    # read first on a fresh set, each table equals the one read after every
    # other; face_forms and level_key once needed nondegenerate_ids first
    first = DERIVED_TABLES[table](standard_simplex(1, 2))
    other = standard_simplex(1, 2)
    for read in DERIVED_TABLES.values():
        read(other)
    assert first is not None
    assert first == DERIVED_TABLES[table](other)
