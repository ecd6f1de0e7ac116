import random
from itertools import combinations

import pytest

from fissile import posets, suites
from fissile.ensembles import Ensemble, map_ensemble, singleton
from fissile.layouts import LayoutLattice
from fissile.posets import (
    FinitePoset,
    IncompatibleSection,
    Section,
    check_compatible,
    check_restriction_square,
    lift_limit,
    nabla,
    nabla_inverse,
)


def boolean_lattice(n):
    elems = []
    base = tuple(range(1, n + 1))
    for k in range(n + 1):
        elems.extend(tuple(sorted(c)) for c in combinations(base, k))
    return FinitePoset(elems, lambda q, p: set(q) <= set(p))


# Constant coefficient system: the group at every element is the ensembles
# over a one-point universe, restriction is the identity.
def const_restrict(p, q, s):
    return s


def zeta_oracle(poset, family):
    out = Section()
    for q in poset.elements:
        acc = Ensemble.zero()
        for p in poset.elements:
            if poset.leq(q, p):
                acc = acc + family.value(p)
        if acc:
            out[q] = acc
    return out


def test_poset_axioms_rejected():
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], lambda q, p: q != p)


def test_down_sets():
    chain = FinitePoset(["a", "b"], lambda q, p: q == p or (q, p) == ("a", "b"))
    assert chain.down_set("b") == ("a", "b")
    anti = FinitePoset(["a", "b"], lambda q, p: q == p)
    assert anti.down_set("a") == ("a",)
    b2 = boolean_lattice(2)
    assert len(b2.down_set((1, 2))) == 4
    with pytest.raises(KeyError):
        b2.down_set("nope")


def test_nabla_on_chain():
    chain = FinitePoset(["a", "b"], lambda q, p: q == p or (q, p) == ("a", "b"))
    u = singleton("u")
    out = nabla(chain, const_restrict, Section({"b": u}))
    assert out["b"] == u and out["a"] == u
    out_min = nabla(chain, const_restrict, Section({"a": u}))
    assert out_min == Section({"a": u})


def test_nabla_is_zeta_transform_on_boolean_lattice():
    rng = random.Random(3)
    b3 = boolean_lattice(3)
    for _ in range(30):
        fam = Section()
        for p in b3.elements:
            c = rng.randint(-3, 3)
            if c:
                fam[p] = c * singleton("u")
        assert nabla(b3, const_restrict, fam) == zeta_oracle(b3, fam)


def chained_nabla(poset, restrict, family):
    """Reference: the transform summed through a chain of ensemble sums."""
    out = Section()
    for q in poset.elements:
        acc = Ensemble.zero()
        for p, val in family.items():
            if val and poset.leq(q, p):
                acc = acc + restrict(p, q, val)
        if acc:
            out[q] = acc
    return out


def test_nabla_equals_the_chained_sum_in_key_order():
    rng = random.Random(21)
    for ground in ((1,), (1, 2), (1, 2, 3)):
        lp, poset, restrict, _ = layout_system(ground)
        for _ in range(15):
            fam = Section()
            for a in rng.sample(poset.elements, rng.randint(0, len(poset.elements))):
                universe = lp.enumerate_universe(a)
                fam[a] = Ensemble.zero()
                for _ in range(rng.randint(0, 4)):
                    fam[a] = fam[a] + rng.randint(-2, 2) * singleton(rng.choice(universe))
            got, want = nabla(poset, restrict, fam), chained_nabla(poset, restrict, fam)
            assert list(got) == list(want)
            assert [list(v.terms.items()) for v in got.values()] == [
                list(v.terms.items()) for v in want.values()
            ]


def test_nabla_inverse_round_trip_on_layout_lattice():
    rng = random.Random(4)
    poset = LayoutLattice((1, 2, 3)).poset()
    for _ in range(25):
        fam = Section()
        for p in poset.elements:
            c = rng.randint(-2, 2)
            if c:
                fam[p] = c * singleton("u")
        assert nabla(poset, const_restrict, nabla_inverse(poset, const_restrict, fam)) == fam
        assert nabla_inverse(poset, const_restrict, nabla(poset, const_restrict, fam)) == fam


def test_nabla_inverse_moebius_signs():
    # Constant system on the boolean lattice: inverting the all-ones family
    # must produce the alternating sign pattern.
    b2 = boolean_lattice(2)
    fam = Section({p: singleton("u") for p in b2.elements})
    inv = nabla_inverse(b2, const_restrict, fam)
    top_only = nabla(b2, const_restrict, inv)
    assert top_only == fam
    for p, val in inv.items():
        # resolving the inclusion-exclusion by hand: only minimal element stays
        if p == ():
            assert val == singleton("u")
        else:
            assert not val or val.terms["u"] in (-1, 1)


def test_single_element_poset():
    one = FinitePoset(["x"], lambda q, p: True)
    fam = Section({"x": 5 * singleton("u")})
    assert nabla(one, const_restrict, fam) == fam
    assert nabla_inverse(one, const_restrict, fam) == fam


class TupleSystem:
    """Groups over function universes on the boolean lattice of a small set:
    at subset p the universe holds tuples indexed by sorted(p); restriction
    drops coordinates and the extender pads with a default."""

    def __init__(self, ground, default=0):
        self.ground = tuple(sorted(ground))
        self.default = default

    def restrict(self, p, q, s):
        from fissile.ensembles import map_ensemble

        pos = {x: i for i, x in enumerate(p)}
        return map_ensemble(lambda el: tuple(el[pos[x]] for x in q), s)

    def extend(self, p, q, s):
        from fissile.ensembles import map_ensemble

        pos = {x: i for i, x in enumerate(q)}
        return map_ensemble(
            lambda el: tuple(
                el[pos[x]] if x in pos else self.default for x in p
            ),
            s,
        )


def random_tuple_section(rng, poset, sys, top=None):
    fam = Section()
    for p in poset.elements:
        if top is not None and p == top:
            continue
        for _ in range(rng.randint(0, 2)):
            el = tuple(rng.randint(0, 1) for _ in p)
            fam[p] = fam.value(p) + rng.randint(-2, 2) * singleton(el)
        if p in fam and not fam[p]:
            del fam[p]
    return fam


def test_restriction_square_exhaustive_small():
    rng = random.Random(5)
    for n in (1, 2, 3):
        poset = boolean_lattice(n)
        sys = TupleSystem(range(1, n + 1))
        for _ in range(12):
            fam = random_tuple_section(rng, poset, sys)
            assert check_restriction_square(poset, sys.restrict, sys.extend, fam)


@pytest.mark.optimized
def test_restriction_square_fails_at_a_single_broken_q():
    poset = boolean_lattice(2)
    sys = TupleSystem((1, 2))

    def broken(p, q, s):
        # pads with 1, not the default 0, only when extending to (1,)
        if p == (1,) and q != p:
            return map_ensemble(lambda el: (1,), s)
        return sys.extend(p, q, s)

    fam = Section({(): singleton(())})
    assert check_restriction_square(poset, sys.restrict, sys.extend, fam)
    assert not check_restriction_square(poset, sys.restrict, broken, fam)


@pytest.mark.optimized
def test_nabla_suite_lifts_each_family_once(monkeypatch):
    # per random family at ground n: two inverses for the round trip, one
    # for the lift to the top and one per element for the lifts below it;
    # lifting the whole family again at every element took 5,000
    calls = []
    original = posets.nabla_inverse

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(posets, "nabla_inverse", counting)
    monkeypatch.setattr(suites, "nabla_inverse", counting)
    assert all(ok for _case, ok in suites.suite_nabla(max_e=3))
    assert 0 < len(calls) <= 3100


def test_lift_limit_restricts_back():
    rng = random.Random(6)
    poset = boolean_lattice(2)
    sys = TupleSystem((1, 2))
    top = (1, 2)
    for _ in range(40):
        # compatible family built by restricting a random global element
        w = Ensemble.zero()
        for _ in range(rng.randint(1, 3)):
            w = w + rng.randint(-2, 2) * singleton(
                tuple(rng.randint(0, 1) for _ in top)
            )
        compat = Section()
        for p in poset.elements:
            if p == top:
                continue
            val = sys.restrict(top, p, w)
            if val:
                compat[p] = val
        u = lift_limit(poset, sys.restrict, sys.extend, compat)
        for p in poset.elements:
            if p != top:
                assert sys.restrict(top, p, u) == compat.value(p)


def test_lift_limit_single_proper_element():
    poset = FinitePoset(
        ["q", "t"], lambda a, b: a == b or (a, b) == ("q", "t")
    )

    def restrict(p, q, s):
        return s

    def extend(p, q, s):
        return s

    u_q = 3 * singleton("u")
    out = lift_limit(poset, restrict, extend, Section({"q": u_q}))
    assert restrict("t", "q", out) == u_q


def test_lift_limit_rejects_incompatible():
    poset = boolean_lattice(2)
    sys = TupleSystem((1, 2))
    bad = Section(
        {
            (1,): singleton((0,)),
            (2,): singleton((1,)),
            (): singleton(()) - singleton(()),  # zero, fine
        }
    )
    # (1,) restricts to <()> at the bottom but the family says zero there
    with pytest.raises(IncompatibleSection):
        lift_limit(poset, sys.restrict, sys.extend, bad)


def test_extender_axioms_for_tuple_system():
    poset = boolean_lattice(3)
    sys = TupleSystem((1, 2, 3))
    rng = random.Random(13)
    for _ in range(40):
        q = rng.choice(poset.elements)
        p = rng.choice([p for p in poset.elements if set(p) >= set(q)])
        s = singleton(tuple(rng.randint(0, 1) for _ in q))
        assert sys.restrict(p, q, sys.extend(p, q, s)) == s
        top = (1, 2, 3)
        meet = tuple(sorted(set(p) & set(q)))
        lhs = sys.restrict(top, p, sys.extend(top, q, s))
        rhs = sys.extend(p, meet, sys.restrict(q, meet, s))
        assert lhs == rhs


class AbPresheaf:
    """Ensemble groups indexed by a poset, with contravariant restrictions.

    ``element_map(p, q, x)`` restricts a single universe element; the group
    homomorphism is its linear extension.
    """

    def __init__(self, poset: FinitePoset, element_map):
        self.poset = poset
        self.element_map = element_map

    def restrict(self, p, q, s: Ensemble) -> Ensemble:
        if not self.poset.leq(q, p):
            raise ValueError("restriction requires p >= q")
        return map_ensemble(lambda x: self.element_map(p, q, x), s)


class Extender:
    """Section-extension maps lam(p, q, x) for p >= q, lifted linearly."""

    def __init__(self, presheaf: AbPresheaf, element_map):
        self.presheaf = presheaf
        self.element_map = element_map

    def extend(self, p, q, s: Ensemble) -> Ensemble:
        if not self.presheaf.poset.leq(q, p):
            raise ValueError("extension requires p >= q")
        return map_ensemble(lambda x: self.element_map(p, q, x), s)


def test_presheaf_and_extender_wrappers():
    # element-level maps lifted linearly, with the two extension axioms
    poset = boolean_lattice(2)

    def restrict_el(p, q, el):
        pos = {x: i for i, x in enumerate(p)}
        return tuple(el[pos[x]] for x in q)

    def extend_el(p, q, el):
        pos = {x: i for i, x in enumerate(q)}
        return tuple(el[pos[x]] if x in pos else 0 for x in p)

    sheaf = AbPresheaf(poset, restrict_el)
    ext = Extender(sheaf, extend_el)
    s = singleton((1,)) - 2 * singleton((0,))
    assert sheaf.restrict((1,), (1,), s) == s
    top = (1, 2)
    lifted = ext.extend(top, (1,), s)
    assert sheaf.restrict(top, (1,), lifted) == s
    # identity restriction and contravariant composition on chains
    for p in poset.elements:
        el = tuple(0 for _ in p)
        assert restrict_el(p, p, el) == el
    for p in poset.elements:
        for q in poset.elements:
            for r in poset.elements:
                if set(r) <= set(q) <= set(p):
                    el = tuple(range(len(p)))
                    assert restrict_el(q, r, restrict_el(p, q, el)) == restrict_el(
                        p, r, el
                    )
    with pytest.raises(ValueError):
        sheaf.restrict((1,), (2,), s)
    with pytest.raises(ValueError):
        ext.extend((1,), (2,), s)


def test_nabla_matrix_unitriangular():
    # in a linear extension order, the transform of a point mass at p only
    # touches elements at or below p, with coefficient 1 at p itself
    poset = boolean_lattice(3)
    order = poset.linear_extension()
    pos = {p: i for i, p in enumerate(order)}
    for p in poset.elements:
        image = nabla(poset, const_restrict, Section({p: singleton("u")}))
        assert image[p] == singleton("u")
        for q, val in image.items():
            assert pos[q] <= pos[p]


def layout_system(ground):
    from fissile.fissilizer import FunctionFacePresheaf, ProductLayoutPresheaf

    lp = ProductLayoutPresheaf(FunctionFacePresheaf(ground))
    return (
        lp,
        lp.lattice.poset(),
        lambda p, q, s: lp.restrict(s, p, q),
        lambda p, q, s: lp.extend(s, p, q),
    )


def test_lift_limit_rejects_a_key_outside_the_poset():
    lp, poset, restrict, extend = layout_system((1, 2))
    stray = Section({((7,),): singleton(((1,),))})
    with pytest.raises(ValueError, match=r"family key \(\(7,\),\) is not a poset element"):
        lift_limit(poset, restrict, extend, stray)


def test_nabla_inverse_rejects_a_key_outside_the_poset():
    lp, poset, restrict, _ = layout_system((1, 2))
    fam = Section({lp.top: singleton(((0, 1),)), ((9,),): singleton(((1,),))})
    with pytest.raises(ValueError, match=r"family key \(\(9,\),\) is not a poset element"):
        nabla_inverse(poset, restrict, fam)


def test_nabla_rejects_a_key_outside_the_poset():
    lp, poset, restrict, _ = layout_system((1, 2))
    fam = Section({((9,),): singleton(((1,),))})
    with pytest.raises(ValueError, match=r"family key \(\(9,\),\) is not a poset element"):
        nabla(poset, restrict, fam)


def test_check_compatible_rejects_a_key_outside_the_poset():
    lp, poset, restrict, _ = layout_system((1, 2))
    fam = Section({((9,),): Ensemble.zero()})
    with pytest.raises(ValueError, match=r"family key \(\(9,\),\) is not a poset element"):
        check_compatible(poset, restrict, fam)


def test_square_and_count_hold_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_restriction_square_fails_at_a_single_broken_q",
        f"{__file__}::test_nabla_suite_lifts_each_family_once",
    )
