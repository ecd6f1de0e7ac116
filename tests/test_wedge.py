import gc
import io
import json
import os
import random
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fissile import artifacts as artifacts_module
from fissile import simplicial, witnesses
from fissile import wedge as wedge_module
from fissile.canon import ckey, jsonable
from fissile.chained import subset_key, subsets_of
from fissile.cli import main
from fissile.ensembles import Ensemble, augmentation, map_ensemble, singleton
from fissile.layouts import LayoutLattice, layout_key
from fissile.simplicial import SMorphism, compose, enumerate_based_morphisms
from fissile.suites import suspension_inclusion_recipe
from fissile.wedge import (
    GuardExceeded,
    WedgeContext,
    alternating_sum,
    boundary_defect,
    combine_over_layout,
    construct_p,
    construct_q,
    construction_guard,
    layout_defect,
    restrict_ensemble,
)
from fissile.witnesses import verify_witness
from fissile.artifacts import (
    check_pair_artifacts,
    check_q_artifacts,
    resolve,
    write_pair_artifacts,
    write_q_artifacts,
)


@pytest.fixture(scope="module")
def ctx():
    return WedgeContext((1, 2), (1,))


def test_wedge_lead_vertex_isolated(ctx):
    top_idx = ctx.components.index(ctx.i_set)
    from fissile.simplicial import TOP

    lead = dict(ctx.w_obj.insertions[top_idx].items(0))[TOP]
    for x in ctx.w_obj.nondegenerate(1):
        assert lead not in ctx.w_obj.faces[1][x]


def test_wedge_component_counts():
    ctx1 = WedgeContext((1,), (1,))
    # two components: the full-alphabet suspension and the empty one
    assert len(ctx1.components) == 2
    susp_empty = ctx1.towers[(1,)].susp
    assert len(susp_empty.level(0)) == 2
    # the single-letter component is circle-like: 2 vertices, 1 edge
    susp_circle = ctx1.towers[()].susp
    assert len(susp_circle.nondegenerate(0)) == 2
    assert len(susp_circle.nondegenerate(1)) == 1


def test_wedge_empty_index_set_is_two_points():
    ctx0 = WedgeContext((), (1,))
    assert len(ctx0.components) == 1
    assert len(ctx0.w_obj.level(0)) == 2
    for x in ctx0.w_obj.nondegenerate(1):
        assert False, "no nondegenerate edges expected"
    from fissile.wedge import construct_p as cp

    with pytest.raises(ValueError):
        cp((), (1,))


def test_action_monoid_law(ctx):
    for k1 in ctx.monoid.elements:
        for k2 in ctx.monoid.elements:
            lhs = compose(ctx.full_space.action[k1], ctx.full_space.action[k2])
            assert lhs == ctx.full_space.action[ctx.monoid.op(k1, k2)]


def test_action_of_empty_collapses_components(ctx):
    act = ctx.full_space.action[()]
    idx_empty = ctx.components.index(())
    for n in range(ctx.bound + 1):
        for x in ctx.w_obj.level(n):
            y = act(n, x)
            if y != ctx.w_obj.basepoint_at(n):
                assert y[0] == idx_empty


def test_invariant_subsets(ctx):
    for l_key in subsets_of(ctx.i_set):
        obj = ctx.sub_obj(l_key)
        for k in ctx.monoid.elements:
            act = ctx.full_space.action[k]
            for n in range(ctx.bound + 1):
                for x in obj.level(n):
                    assert obj.has(n, act(n, x))


@pytest.mark.parametrize(
    "i_set, e_set", [((1,), (1, 2)), ((1, 2), (1, 2)), ((1, 2, 3), (1,))]
)
def test_each_space_keeps_the_full_actions_rows(i_set, e_set):
    # the reference tabulates every table afresh, element by element, and
    # validates the space it makes
    ctx = WedgeContext(i_set, e_set)
    action = ctx.full_space.action
    for l_key in subsets_of(ctx.i_set):
        space = ctx.space(l_key)
        obj = space.obj
        assert obj is (ctx.w_obj if l_key == ctx.i_set else ctx.sub_obj(l_key))
        reference = {k: simplicial.tabulate(obj, obj, m) for k, m in action.items()}
        assert space.action == reference
        assert all(m.codomain is obj for m in space.action.values())
        space._validate()


@pytest.mark.optimized
def test_one_action_validation_per_context(monkeypatch):
    calls = []
    validate = witnesses.PSpace._validate

    def counted(self):
        calls.append(self.obj.label)
        validate(self)

    monkeypatch.setattr(witnesses.PSpace, "_validate", counted)
    construct_p((1, 2, 3), (1,))
    assert calls == [("WL", (1, 2, 3))]


@pytest.mark.optimized
def test_cutting_to_a_subset_the_action_leaves_fails():
    # the action of the empty subset moves the component at (1,) to the one
    # at (), which this subset leaves out
    ctx = WedgeContext((1, 2), (1,))
    idx = ctx.components.index((1,))
    obj = simplicial.subsimplicial(
        ctx.w_obj,
        lambda n, x: x == ctx.w_obj.basepoint_at(n) or x[0] == idx,
        basepoint=ctx.w_obj.basepoint,
        label=("component", (1,)),
    )
    assert simplicial.restrict_to(ctx.full_space.action[(1,)], obj, obj)
    with pytest.raises(simplicial.SimplicialError, match="value outside codomain"):
        simplicial.restrict_to(ctx.full_space.action[()], obj, obj)


def test_xi_action_relation(ctx):
    # acting moves the constant morphism between components
    f = (1,)
    for j in subsets_of(ctx.i_set):
        xi = ctx.xi(j, f)
        for k in ctx.monoid.elements:
            moved = compose(ctx.full_space.action[k], xi)
            assert moved == ctx.xi(ctx.monoid.op(k, j), f)


def test_xi_restricts_to_constants(ctx):
    # restricting along a smaller face keeps the constant shape
    big = WedgeContext((1,), (1, 2))
    xi_big = big.xi((), (1, 2))
    for f in [(1,), (2,)]:
        sub = big.plus_base_of(f)
        inc = simplicial.inclusion(sub, big.plus_base_of((1, 2)))
        assert compose(xi_big, inc) == big.xi((), f)


def test_filling_restriction_identity(ctx):
    rng = random.Random(71)
    l_key = (1,)
    space = ctx.space(l_key)
    t = ctx.plus_base_of((1,))
    pool = enumerate_based_morphisms(t, space.obj)
    inc = simplicial.inclusion(t, ctx.cone_face((1,)))
    for v in pool:
        filled = ctx.filling(v, 2, l_key)
        assert compose(filled, inc) == v


def test_filling_constant_stays_constant(ctx):
    l_key = (1,)
    space = ctx.space(l_key)
    t = ctx.plus_base_of((1,))
    from fissile.simplicial import constant_morphism

    const = constant_morphism(t, space.obj, space.obj.basepoint)
    filled = ctx.filling(const, 2, l_key)
    for n in range(ctx.bound + 1):
        for x in ctx.cone_face((1,)).level(n):
            assert filled(n, x) == space.obj.basepoint_at(n)


def test_filling_equivariant(ctx):
    rng = random.Random(72)
    l_key = (1,)
    space = ctx.space(l_key)
    t = ctx.plus_base_of((1,))
    pool = enumerate_based_morphisms(t, space.obj)
    for v in pool:
        for k in ctx.monoid.elements:
            lhs = ctx.filling(compose(space.action[k], v), 2, l_key)
            rhs = compose(space.action[k], ctx.filling(v, 2, l_key))
            assert lhs == rhs


def test_filling_rejects_letter_inside(ctx):
    with pytest.raises(ValueError):
        ctx.contraction((1,), 1)


def test_guard():
    construction_guard((1, 2), (1, 2))
    construction_guard((1, 2, 3), (1,))
    with pytest.raises(GuardExceeded):
        construction_guard((1, 2, 3), (1, 2))
    with pytest.raises(GuardExceeded):
        construction_guard((1, 2, 3, 4, 5), (1,))


@pytest.fixture(scope="module")
def built_11():
    res = construct_p((1,), (1,))
    return res, construct_q(res)


@pytest.fixture(scope="module")
def built_21():
    res = construct_p((1, 2), (1,))
    return res, construct_q(res)


def test_construction_conditions_small(built_21):
    res, qrec = built_21
    ctx = res.ctx
    for (f, j), rec in res.pairs.items():
        assert augmentation(rec.ensemble) == 1
        alt = alternating_sum(lambda g, k: res.pairs[(g, k)].ensemble, f, j)
        assert verify_witness(alt, rec.alt_witness, len(j), ctx.space(j))
    assert augmentation(qrec.ensemble) == 1


def test_single_index_q_is_fissile(built_11):
    res, qrec = built_11
    # with one index letter, every layout defect vanishes identically
    for a, wit in qrec.layout_witnesses.items():
        assert layout_defect(res.ctx, qrec.ensemble, a, None) == Ensemble.zero()
        assert not wit.entries


def test_boundary_witness_level(built_21):
    res, qrec = built_21
    assert qrec.boundary_witness.level >= len(res.ctx.i_set)
    ctx = res.ctx
    rep = verify_witness(
        boundary_defect(ctx, qrec.ensemble, ctx.e_set, ctx.i_set),
        qrec.boundary_witness,
        len(res.ctx.i_set),
        res.ctx.full_space,
    )
    assert rep


def test_artifact_round_trip(tmp_path, built_21):
    res, qrec = built_21
    pj_dir = tmp_path / "pj"
    write_pair_artifacts(res, pj_dir)
    checks = check_pair_artifacts(pj_dir)
    assert checks and all(ok for _name, ok in checks)
    q_dir = tmp_path / "q"
    write_q_artifacts(res, qrec, q_dir)
    checks = check_q_artifacts(q_dir)
    assert checks and all(ok for _name, ok in checks)


def test_checker_catches_tampered_ensemble(tmp_path, built_21):
    res, _q = built_21
    out = tmp_path / "pj"
    write_pair_artifacts(res, out)
    target = None
    for name in os.listdir(out):
        if name.startswith("pair_") and name.endswith("_Jempty.json"):
            target = out / name
            break
    payload = json.loads(target.read_text())
    payload["ensemble"][0]["coeff"] = str(
        int(payload["ensemble"][0]["coeff"]) + 1
    )
    target.write_text(json.dumps(payload))
    checks = check_pair_artifacts(out)
    assert any(not ok for _name, ok in checks)


def test_checker_catches_tampered_witness(tmp_path, built_21):
    res, qrec = built_21
    out = tmp_path / "q"
    write_q_artifacts(res, qrec, out)
    qfile = out / "q.json"
    payload = json.loads(qfile.read_text())
    payload["boundary_witness"]["blocks"][0]["coeff"] += 1
    qfile.write_text(json.dumps(payload))
    checks = check_q_artifacts(out)
    assert any(not ok for _name, ok in checks)


def test_checker_catches_inflated_part_level(tmp_path, built_21):
    # a part claiming a deeper ideal level than its pi lies in must fail,
    # and the fail line names the part and the level
    res, qrec = built_21
    out = tmp_path / "q"
    write_q_artifacts(res, qrec, out)
    qfile = out / "q.json"
    payload = json.loads(qfile.read_text())
    block = payload["boundary_witness"]["blocks"][0]
    part = block["parts"][0]
    part["level"] += 1
    qfile.write_text(json.dumps(payload))
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert main(["check-q", "--in", str(out)]) == 1
    lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
    failed = [
        (r["case"]["check"], r["diagnostic"]) for r in lines if r["verdict"] == "fail"
    ]
    diagnostic = f"block 0 part 0: pi is not in the level-{part['level']} ideal"
    assert failed == [("boundary-witness", diagnostic)]


def test_three_letter_shallow_case(tmp_path):
    # the guard admits three index letters over a one-element ground set
    res = construct_p((1, 2, 3), (1,))
    qrec = construct_q(res)
    assert len(res.pairs) == 7
    assert augmentation(qrec.ensemble) == 1
    assert qrec.boundary_witness.level >= 3
    pj = tmp_path / "pj31"
    write_pair_artifacts(res, pj)
    assert all(ok for _n, ok in check_pair_artifacts(pj))
    qd = tmp_path / "q31"
    write_q_artifacts(res, qrec, qd)
    assert all(ok for _n, ok in check_q_artifacts(qd))


def test_constant_morphism_alternating_sum_witnessed(ctx):
    # for every face and subset, the scaled constant morphism expands to the
    # alternating sum over smaller components and certifies at full level
    from fissile.ensembles import Ensemble

    for f in [(1,)]:
        for j in subsets_of(ctx.i_set):
            expanded = Ensemble.zero()
            for k in subsets_of(j):
                expanded = expanded + ((-1) ** (len(j) - len(k))) * singleton(
                    ctx.xi(k, f)
                )
            wit = ctx.omega_witness(j, f)
            assert wit.value(ctx.space(j)) == expanded
            assert verify_witness(expanded, wit, len(j), ctx.space(j))


def act(space, k, target):
    """One monoid element applied to a morphism or to a morphism ensemble;
    an element with no registered action is a KeyError."""
    k = tuple(sorted(k))
    if k not in space.action:
        raise KeyError(f"{k!r} has no registered action")
    if isinstance(target, Ensemble):
        return map_ensemble(lambda v: compose(space.action[k], v), target)
    return compose(space.action[k], target)


def test_act_interface(ctx):
    xi = ctx.xi((1,), (1,))
    assert act(ctx.full_space, ctx.i_set, xi) == xi
    assert act(ctx.full_space, (), xi) == ctx.xi((), (1,))
    ens = singleton(xi) - 2 * singleton(ctx.xi((), (1,)))
    moved = act(ctx.full_space, (), ens)
    assert moved == (1 - 2) * singleton(ctx.xi((), (1,)))
    with pytest.raises(KeyError):
        act(ctx.full_space, (9,), xi)


def test_act_commutes_with_domain_restriction(ctx):
    # acting on a morphism ensemble then restricting the domain agrees with
    # restricting first
    t = ctx.cone_face((1,))
    t_small = ctx.plus_base_of((1,))
    inc = simplicial.inclusion(t_small, t)
    pool = enumerate_based_morphisms(t, ctx.full_space.obj)
    for v in pool[:8]:
        for k in ctx.monoid.elements:
            lhs = compose(ctx.full_space.action[k], compose(v, inc))
            rhs = compose(compose(ctx.full_space.action[k], v), inc)
            assert lhs == rhs


class MorphismLayoutPresheaf:
    """The layout presheaf of morphism ensembles on coned subdivisions.

    Universes are based morphisms from the coned layout subdivisions into a
    fixed action space; restriction composes with the inclusion, extension
    composes with the canonical retraction, and the combining product glues
    morphisms over the per-block cones.  The repair operator and fissility
    tests consume this through the same interface as the synthetic model.
    """

    def __init__(self, ctx: WedgeContext):
        self.ctx = ctx
        self.lattice = LayoutLattice(ctx.e_set, bound=len(ctx.e_set))
        self.top = self.lattice.top

    def wrap(self, q: Ensemble) -> Ensemble:
        return q

    def unwrap(self, s: Ensemble) -> Ensemble:
        return s

    def restrict(self, s: Ensemble, a, b) -> Ensemble:
        if not self.lattice.geq(a, b):
            raise ValueError("restriction requires a >= b")
        return restrict_ensemble(s, self.ctx.layout_inclusion(b, a))

    def extend(self, s: Ensemble, a, b) -> Ensemble:
        if not self.lattice.geq(a, b):
            raise ValueError("extension requires a >= b")
        return restrict_ensemble(s, self.ctx.retraction(a, b))

    def combine(self, a, parts) -> Ensemble:
        return combine_over_layout(self.ctx, a, parts)


def test_morphism_model_fissilizer(built_21):
    # the repair operator over the morphism model, through the same code
    # path as the synthetic model: constructed ensembles are fixed points,
    # arbitrary ensembles land on fissile ones
    from fissile.fissilizer import fissilize, is_fissile

    res, _q = built_21
    ctx = res.ctx
    lp = MorphismLayoutPresheaf(ctx)
    rng = random.Random(73)
    pool = []
    for j in subsets_of(ctx.i_set):
        if j != ctx.i_set:
            pool.extend(res.pairs[(ctx.e_set, j)].ensemble.terms)
    for j in subsets_of(ctx.i_set):
        if j == ctx.i_set:
            continue
        p = res.pairs[(ctx.e_set, j)].ensemble
        assert is_fissile(lp, p)
        assert fissilize(lp, p) == p
    for _ in range(6):
        q = Ensemble.zero()
        for _ in range(rng.randint(1, 3)):
            q = q + rng.randint(-2, 2) * singleton(rng.choice(pool))
        phi = fissilize(lp, q)
        assert is_fissile(lp, phi)
        assert augmentation(phi) == 1
        assert fissilize(lp, phi) == phi


def test_final_ensembles_restrict_multiplicatively(built_21):
    # spot-check the headline property on the assembled records
    res, _q = built_21
    ctx = res.ctx
    lat = LayoutLattice(ctx.e_set, bound=len(ctx.e_set))
    for j in subsets_of(ctx.i_set):
        if j == ctx.i_set:
            continue
        rec = res.pairs[(ctx.e_set, j)]
        for a in lat.layouts:
            got = restrict_ensemble(rec.ensemble, ctx.layout_inclusion(a, lat.top))
            want = combine_over_layout(
                ctx,
                a,
                {g: res.pairs[(subset_key(g), j)].ensemble for g in a},
            )
            assert got == want


def patch_bindings(monkeypatch, original, replacement):
    """Replace a package function at every binding of it in the package."""
    name = original.__name__
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "fissile":
            continue
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def record_wedge_builds(monkeypatch):
    """Count calls of simplicial.wedge through every binding of it in the
    package; each recorded (parts, label of the built wedge) keeps its parts
    alive."""
    original = simplicial.wedge
    calls = []

    def counting_wedge(parts, label=None):
        out = original(parts, label=label)
        calls.append((tuple(parts), out.label))
        return out

    patch_bindings(monkeypatch, original, counting_wedge)
    return calls


def stored_labels(data):
    """The JSON text of every label in an artifact: a record's domain is
    the one field that holds one."""
    if isinstance(data, dict):
        for key, val in data.items():
            assert key not in ("wedge", "space")
            if key == "domain":
                yield json.dumps(val)
            else:
                yield from stored_labels(val)
    elif isinstance(data, list):
        for val in data:
            yield from stored_labels(val)


def test_stored_labels_name_the_builders_objects(tmp_path, built_21):
    # the checker's label factory is the builder's context: there each
    # stored label, a record's domain, resolves to the very object that
    # carries it, and each block's wedge is the context's wedge of the
    # objects its parts' terms lie on
    res, qrec = built_21
    ctx = res.ctx
    write_pair_artifacts(res, tmp_path / "pj")
    write_q_artifacts(res, qrec, tmp_path / "q")
    ensembles = [rec.ensemble for rec in res.pairs.values()] + [qrec.ensemble]
    witnesses = [rec.alt_witness for rec in res.pairs.values()]
    witnesses += [*qrec.layout_witnesses.values(), qrec.boundary_witness]
    morphs = [m for s in ensembles for m in s.terms]
    for w in witnesses:
        for _c, b in w.entries:
            summands = [p.terms[0].morphism.domain for p in b.parts]
            assert b.wedge is ctx.wedge_of(summands)
            morphs.append(b.f)
            for p in b.parts:
                morphs.extend(t.morphism for t in p.terms)
    objs = [m.domain for m in morphs]
    for x in objs:
        assert artifacts_module.resolve(ctx, json.loads(json.dumps(x.label))) is x
    named = {json.dumps(jsonable(x.label)) for x in objs}
    stored = set()
    for path in tmp_path.glob("*/*.json"):
        if path.name != "manifest.json":
            stored.update(stored_labels(json.loads(path.read_text())))
    assert stored and stored <= named


@pytest.mark.parametrize("i_set, run_q", [((1, 2), True), ((1, 2, 3), False)])
def test_every_built_block_holds_to_the_readers_rule(i_set, run_q):
    # the checker reads a block's wedge as the context's wedge of the
    # objects its parts' terms lie on; every block the builder makes is
    # read back so: f lands in a wedge with insertions, one part per
    # summand, each part nonempty and all its terms on its summand
    result = construct_p(i_set, (1, 2), enforce_guard=False)
    ctx = result.ctx
    witnesses = [rec.alt_witness for rec in result.pairs.values()]
    if run_q:
        qrec = construct_q(result)
        witnesses += [*qrec.layout_witnesses.values(), qrec.boundary_witness]
    blocks = [b for w in witnesses for _c, b in w.entries]
    assert len(blocks) > 50
    for b in blocks:
        insertions = b.f.codomain.insertions
        assert insertions is not None and b.wedge is b.f.codomain
        assert len(b.parts) == len(insertions)
        for p, ins in zip(b.parts, insertions):
            assert p.terms
            assert all(t.morphism.domain is ins.domain for t in p.terms)
        assert ctx.wedge_of([ins.domain for ins in insertions]) is b.wedge


def test_a_wedge_is_built_once_per_summand_tuple_and_named_by_no_label():
    ctx = WedgeContext((1, 2), (1, 2))
    summands = [
        [ctx.point_obj()],
        [ctx.plus_base_of((2,))],
        [ctx.reduced_domain(ctx.plus_base_of((1,)))[0], ctx.point_obj()],
        [ctx.cone_face((1,)), ctx.cone_face((2,))],
    ]
    for parts in summands:
        wobj = ctx.wedge_of(parts)
        assert [ins.domain for ins in wobj.insertions] == parts
        assert ctx.wedge_of(list(parts)) is wobj
        assert wobj.label == ("wedge", tuple(p.label for p in parts))
        # a wedge is derived from its summands, never read from a label
        with pytest.raises(TypeError, match="names no object"):
            ctx.obj(wobj.label)
    # the wedges the context builds are those of their summands
    (_c, point_block), = ctx.constant_witness(ctx.cone_face((1,)), ctx.full_space).entries
    assert point_block.wedge is ctx.wedge_of(summands[0])
    assert ctx.iota(((1,), (2,))).codomain is ctx.wedge_of(summands[3])
    for gone in [("wedgept",), ("wedge1", ("point",)), ("wedgecones", ((1,), (2,)))]:
        with pytest.raises(TypeError, match="names no object"):
            ctx.obj(gone)


def test_reduced_cone_label_resolves_to_the_object_that_carries_it():
    ctx = WedgeContext((1, 2), (1,))
    for inner in (("plusbase", (1,)), ("conelayout", ((1,),)), ("point",)):
        label = ("redcone", inner)
        assert ctx.obj(label).label == label
        assert ctx.obj(label) is ctx.reduced_domain(ctx.obj(inner))[0]
    # the wedge at l is the object of a space, never a record's domain
    for inner in (("WL", (1, 2)), ("WL", (1,))):
        with pytest.raises(TypeError, match="names no object"):
            ctx.obj(("redcone", inner))


def test_label_in_other_order_resolves_to_the_normal_form():
    ctx = WedgeContext((1, 2), (1, 2, 3))
    normal = ctx.obj(("conelayout", ((1, 2), (3,))))
    assert normal is ctx.cone_layout([(3,), (2, 1)])
    assert ctx.obj(("conelayout", ((3,), (2, 1)))) is normal
    assert resolve(ctx, ["conelayout", [[3], [2, 1]]]) is normal
    assert normal.label == ("conelayout", ((1, 2), (3,)))
    assert ctx.space((2, 1)) is ctx.space((1, 2))


@pytest.mark.optimized
def test_checker_builds_each_wedge_label_once(tmp_path, monkeypatch, built_21):
    res, qrec = built_21
    write_q_artifacts(res, qrec, tmp_path)
    witnesses = [*qrec.layout_witnesses.values(), qrec.boundary_witness]
    stored = {json.dumps(jsonable(b.wedge.label)) for w in witnesses for _c, b in w.entries}

    calls = record_wedge_builds(monkeypatch)
    assert all(ok for _name, ok in check_q_artifacts(tmp_path))
    built = [json.dumps(jsonable(label)) for _parts, label in calls]
    assert stored and built
    assert len(built) == len(set(built))
    assert stored <= set(built)
    # beyond the wedges of the written blocks, only the context's own: the
    # full wedge, ("WL", I), and the wedges of per-block cones that the
    # layout conditions combine over
    for extra in map(json.loads, set(built) - stored):
        if extra[0] == "WL":
            assert extra == ["WL", [1, 2]]
        else:
            assert all(x[0] == "conelayout" for x in extra[1])


def test_builder_builds_each_wedge_once(monkeypatch):
    calls = record_wedge_builds(monkeypatch)
    construct_q(construct_p((1, 2), (1, 2)))
    keys = [(tuple(map(id, parts)), label) for parts, label in calls]
    assert keys
    assert len(keys) == len(set(keys))


def test_run_table_holds_one_wedge_per_part_tuple():
    # a wedge was once keyed on its label too, so one tuple of summands
    # could be built under two labels: 26 entries over 25 tuples here
    ctx = construct_p((1, 2, 3), (1, 2), enforce_guard=False).ctx
    wedges = [w for key, w in ctx._table.items() if key[0] == "wedge"]
    tuples = {tuple(ins.domain for ins in w.insertions) for w in wedges}
    assert len(wedges) == len(tuples) == 24
    for w in wedges:
        assert w.label == ("wedge", tuple(ins.domain.label for ins in w.insertions))


@pytest.mark.parametrize("kind", ["pj", "q"])
def test_checker_builds_no_part_tuple_twice(tmp_path, monkeypatch, kind):
    result = construct_p((1, 2), (1, 2))
    if kind == "pj":
        write_pair_artifacts(result, tmp_path)
    else:
        write_q_artifacts(result, construct_q(result), tmp_path)
    calls = record_wedge_builds(monkeypatch)
    check = check_pair_artifacts if kind == "pj" else check_q_artifacts
    assert all(ok is True for _name, ok in check(tmp_path))
    tuples = [tuple(map(id, parts)) for parts, _label in calls]
    assert tuples
    assert len(tuples) == len(set(tuples))


def test_wedge_witness_validates_each_decomposition_once(monkeypatch):
    # a decomposition is a table out of the call's wedge; within one call
    # each distinct one is glued once and every output block uses one.  A
    # gluing of based maps into one wedge is not validated where it is
    # built, so each is validated here
    original, init = witnesses.wedge_witness, SMorphism.__init__
    open_calls, finished = [], []

    def recording(ws, wedge_obj, ctx):
        open_calls.append((wedge_obj, []))
        out = original(ws, wedge_obj, ctx)
        finished.append((open_calls.pop()[1], out))
        return out

    def counting(self, domain, *args, **kwargs):
        init(self, domain, *args, **kwargs)
        if open_calls and domain is open_calls[-1][0]:
            open_calls[-1][1].append(self)

    patch_bindings(monkeypatch, original, recording)
    monkeypatch.setattr(SMorphism, "__init__", counting)
    construct_q(construct_p((1, 2), (1, 2)))
    assert finished
    for built, out in finished:
        keys = [(id(m.codomain), m.table_key()) for m in built]
        assert len(keys) == len(set(keys))
        assert {id(b.f) for _c, b in out.entries} == set(map(id, built))
        for m in built:
            m._validate()
    # the factors are compacted, so no (2, 2) product repeats a decomposition;
    # test_witnesses checks that a repeated one is glued once


@pytest.mark.optimized
def test_every_unvalidated_derived_object_validates(monkeypatch, tmp_path):
    # wedges, their insertions, subsets, gluings into their parts' own
    # target and reduced-cone maps between their map's own reduced cones
    # skip validation where they are built, each valid by a proof in its
    # docstring; every one that three runs and the checks of their dumps
    # build must pass it here
    built = {}

    def record(original, kind, unvalidated=lambda out, *args: True):
        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            if unvalidated(out, *args):
                built.setdefault(kind, {})[id(out)] = out
            if kind == "wedge":
                built.setdefault("insertion", {}).update((id(m), m) for m in out.insertions)
            return out

        patch_bindings(monkeypatch, original, recording)

    record(simplicial.wedge, "wedge")
    record(simplicial.subsimplicial, "subset")
    record(
        simplicial.wedge_combine,
        "gluing",
        lambda out, w, parts, *_: all(f.codomain is out.codomain for f in parts),
    )
    record(
        simplicial.reduced_cone_map,
        "reduced cone map",
        lambda out, f, rdom, rcod: rdom[1].domain is f.domain
        and rcod[1].domain is f.codomain,
    )
    small = construct_p((1, 2), (1, 2))
    write_pair_artifacts(small, tmp_path / "pj22")
    write_q_artifacts(small, construct_q(small), tmp_path / "q22")
    write_pair_artifacts(construct_p((1, 2, 3), (1, 2), enforce_guard=False), tmp_path / "pj32")
    for checker, name in (
        (check_pair_artifacts, "pj22"),
        (check_q_artifacts, "q22"),
        (check_pair_artifacts, "pj32"),
    ):
        assert all(ok is True for _name, ok in checker(tmp_path / name))
    kinds = {"wedge", "insertion", "subset", "gluing", "reduced cone map"}
    assert set(built) == kinds
    for objects in built.values():
        for x in objects.values():
            x._validate()


def table_ids(m):
    return (id(m.domain), id(m.codomain), m.table_key())


def split_by_pair(monkeypatch, log):
    """Open a new list in ``log`` whenever construct_p starts a pair."""
    original = wedge_module._construct_pair

    def opening(*args):
        log.append([])
        return original(*args)

    monkeypatch.setattr(wedge_module, "_construct_pair", opening)


@pytest.mark.optimized
def test_pair_scope_runs_each_distinct_morphism_once(monkeypatch):
    # per pair, (kind, key, objects) of every reduced-cone map, equivariance
    # check and gluing made inside Block.value; the objects keep every id in
    # a key alive
    pairs, evaluating = [], []
    rcm, equivariant = simplicial.reduced_cone_map, witnesses.check_equivariant
    combine, evaluate = simplicial.wedge_combine, witnesses.Block.value

    def coning(f, rdom, rcod):
        key = table_ids(f) + (id(rdom), id(rcod))
        pairs[-1].append(("reduced_cone_map", key, (f, rdom, rcod)))
        return rcm(f, rdom, rcod)

    def checking(h, src, dst):
        key = table_ids(h) + (id(src), id(dst))
        pairs[-1].append(("check_equivariant", key, (h, src, dst)))
        return equivariant(h, src, dst)

    def gluing(w, morphisms, codomain=None):
        if evaluating:
            key = (id(w), id(codomain)) + tuple(map(table_ids, morphisms))
            pairs[-1].append(("wedge_combine", key, (w, codomain, tuple(morphisms))))
        return combine(w, morphisms, codomain=codomain)

    def evaluation(block, space, scope=None):
        evaluating.append(True)
        try:
            return evaluate(block, space, scope)
        finally:
            evaluating.pop()

    for original, replacement in (
        (rcm, coning),
        (equivariant, checking),
        (combine, gluing),
    ):
        patch_bindings(monkeypatch, original, replacement)
    monkeypatch.setattr(witnesses.Block, "value", evaluation)
    split_by_pair(monkeypatch, pairs)
    construct_p((1, 2), (1, 2))
    assert pairs
    kinds = set()
    for calls in pairs:
        keys = [(kind, key) for kind, key, _objs in calls]
        assert len(keys) == len(set(keys))
        kinds.update(kind for kind, _key in keys)
    assert kinds == {"reduced_cone_map", "check_equivariant", "wedge_combine"}


def record_scoped_gluings(monkeypatch, pairs):
    """Log every straightening and layout gluing in the open pair as (kind,
    key, scope, objects): a straightening is a wedge_combine that
    PairScope.straightening makes, a layout gluing one with a codomain
    inside combine_over_layout, and scope is the PairScope whose method made
    the call, or None.  The context's gluings (of its action, of a layout's
    block inclusions, of a summand shift) have no codomain and come from no
    straightening, so they are not logged.  The objects keep every id in a
    key alive."""
    combine, over_layout = simplicial.wedge_combine, wedge_module.combine_over_layout
    in_layout, scopes = [], []

    def gluing(w, morphisms, codomain=None):
        name, scope = scopes[-1] if scopes else (None, None)
        if name == "straightening":
            kind = name
        else:
            kind = "layout" if in_layout and codomain is not None else None
        if kind is not None:
            key = (id(w), id(codomain)) + tuple(map(table_ids, morphisms))
            pairs[-1].append((kind, key, scope, (w, codomain, tuple(morphisms))))
        return combine(w, morphisms, codomain=codomain)

    def layout(*args, **kwargs):
        in_layout.append(True)
        try:
            return over_layout(*args, **kwargs)
        finally:
            in_layout.pop()

    def scoped(method):
        def run(self, *args):
            scopes.append((method.__name__, self))
            try:
                return method(self, *args)
            finally:
                scopes.pop()

        return run

    patch_bindings(monkeypatch, combine, gluing)
    patch_bindings(monkeypatch, over_layout, layout)
    for name in ("glue", "straightening"):
        monkeypatch.setattr(
            witnesses.PairScope, name, scoped(getattr(witnesses.PairScope, name))
        )


def assert_each_gluing_once_in_its_pair_scope(pairs, kinds):
    assert pairs
    seen, pair_scopes = set(), []
    for calls in pairs:
        keys = [(kind, key) for kind, key, _scope, _objs in calls]
        assert len(keys) == len(set(keys))
        seen.update(kind for kind, _key in keys)
        scopes = {id(scope) for _kind, _key, scope, _objs in calls}
        assert len(scopes) == 1 and id(None) not in scopes
        pair_scopes.append(calls[0][2])
    assert seen == kinds
    assert len(set(map(id, pair_scopes))) == len(pairs)


def test_pair_scope_glues_each_straightening_and_layout_once(monkeypatch):
    pairs = []
    record_scoped_gluings(monkeypatch, pairs)
    split_by_pair(monkeypatch, pairs)
    construct_p((1, 2), (1, 2))
    assert_each_gluing_once_in_its_pair_scope(pairs, {"straightening", "layout"})


def test_checker_glues_layouts_in_a_fresh_scope_per_pair(tmp_path, monkeypatch):
    write_pair_artifacts(construct_p((1, 2), (1, 2)), tmp_path)
    pairs, checks = [], artifacts_module.pair_checks

    def opening(*args, **kwargs):
        pairs.append([])
        yield from checks(*args, **kwargs)

    record_scoped_gluings(monkeypatch, pairs)
    monkeypatch.setattr(artifacts_module, "pair_checks", opening)
    assert all(ok for _name, ok in check_pair_artifacts(tmp_path))
    assert len(pairs) == 9
    assert_each_gluing_once_in_its_pair_scope(pairs, {"layout"})


def test_scoped_gluings_die_with_their_pair(monkeypatch):
    pairs, glue = [], witnesses.PairScope.glue

    def recording(self, *args):
        out = glue(self, *args)
        pairs[-1].append(weakref.ref(out))
        return out

    def dead(refs):
        gc.collect()
        return refs and all(ref() is None for ref in refs)

    monkeypatch.setattr(witnesses.PairScope, "glue", recording)
    split_by_pair(monkeypatch, pairs)
    result = construct_p((1, 2), (1,))
    # a pair's gluings die before the next pair starts, so checking the
    # lists after the run checks each pair at its end
    assert len(pairs) == 3 and all(dead(refs) for refs in pairs)
    pairs.append([])
    construct_q(result)
    assert dead(pairs[-1])


def repr_fingerprint(block):
    """The block fingerprint that witness compaction once merged on."""
    rows = [block.f.table_key()]
    for p in block.parts:
        terms = tuple(
            sorted(
                (tuple(sorted(t.pi.terms.items())), t.morphism.table_key())
                for t in p.terms
            )
        )
        rows.append((p.level, terms))
    return ckey(repr(rows))


def test_block_key_merges_as_the_repr_fingerprint(monkeypatch):
    original = wedge_module.compact_witness
    compared = []

    def comparing(w):
        merged, order = {}, []
        for c, b in w.entries:
            key = repr_fingerprint(b)
            if key not in merged:
                merged[key] = [0, b]
                order.append(key)
            merged[key][0] += c
        expected = [(c, id(b)) for c, b in (merged[k] for k in order) if c]
        out = original(w)
        got = [(c, id(b)) for c, b in out.entries]
        compared.append((len(w.entries), got, expected))
        return out

    monkeypatch.setattr(wedge_module, "compact_witness", comparing)
    construct_q(construct_p((1, 2), (1, 2)))
    assert compared
    for _n, got, expected in compared:
        assert got == expected
    assert sum(len(got) for _n, got, _e in compared) < sum(n for n, _g, _e in compared)


def expanded_cover_witness(ctx, b, cover_fns, witness_at, space, level, scope):
    """``cover_witness`` computed without compacting its factors: the whole
    expansion of the pushed factors, compacted once at the end, less its
    zero blocks."""
    entries = []
    for fn in cover_fns:
        per_block = []
        for g, k in zip(b, fn):
            small = ctx.space(k)
            inc = simplicial.inclusion(small.obj, space.obj)
            w = witnesses.map_witness(witness_at(g, k), inc, small, space, scope)
            per_block.append(w)
        combined = wedge_module.combine_witnesses_over_layout(ctx, b, per_block, space)
        entries.extend(combined.entries)
    compacted = wedge_module.compact_witness(witnesses.FiltrationWitness(level, entries))
    return witnesses.drop_zero_blocks(compacted, space, scope)


def entry_forms(w):
    return [
        (c, b.f.table_key(), b.wedge.label, [p.key for p in b.parts])
        for c, b in w.entries
    ]


@pytest.mark.parametrize(
    "i_size, e_size, run",
    [(2, 1, "q"), (2, 2, "q"), (3, 1, "q"), (3, 2, "q"), (2, 2, "p")],
)
def test_cover_witness_equals_the_compacted_expansion(monkeypatch, i_size, e_size, run):
    # entry by entry, in order: coefficient, decomposition table, wedge
    # label and part keys
    original = wedge_module.cover_witness
    compared = []

    def comparing(ctx, b, cover_fns, witness_at, space, level, scope):
        out = original(ctx, b, cover_fns, witness_at, space, level, scope)
        expected = expanded_cover_witness(
            ctx, b, cover_fns, witness_at, space, level, scope
        )
        compared.append(b)
        assert out.level == expected.level
        assert entry_forms(out) == entry_forms(expected)
        return out

    i_set, e_set = tuple(range(1, i_size + 1)), tuple(range(1, e_size + 1))
    if run == "p":
        monkeypatch.setattr(wedge_module, "cover_witness", comparing)
        construct_p(i_set, e_set)
    else:
        result = construct_p(i_set, e_set, enforce_guard=False)
        monkeypatch.setattr(wedge_module, "cover_witness", comparing)
        construct_q(result)
    assert compared


def hand_inverse(poset, restrict, family):
    """The witness back-substitution written out by hand: tops first, each
    witness followed by the negated restrictions of those found above it,
    in element order, then compacted."""
    out = {}
    for b in reversed(poset.linear_extension()):
        level, entries = family[b].level, list(family[b].entries)
        for p in poset.elements:
            if p != b and poset.leq(b, p):
                up = restrict(p, b, out[p])
                level = min(level, up.level)
                entries.extend((-c, blk) for c, blk in up.entries)
        out[b] = witnesses.compact_witness(witnesses.FiltrationWitness(level, entries))
    return out


@pytest.mark.optimized
@pytest.mark.parametrize("i_size, e_size", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_witness_inverse_transform_equals_the_hand_loop(monkeypatch, i_size, e_size):
    # entry by entry, in order: coefficient, decomposition table, wedge
    # label and part keys
    original = wedge_module.nabla_inverse
    compared = []

    def comparing(poset, restrict, family):
        out = original(poset, restrict, family)
        if isinstance(next(iter(family.values()), None), witnesses.FiltrationWitness):
            expected = hand_inverse(poset, restrict, family)
            assert list(out) == list(expected)
            for b, w in expected.items():
                assert out[b].level == w.level
                assert entry_forms(out[b]) == entry_forms(w)
            compared.append(poset)
        return out

    monkeypatch.setattr(wedge_module, "nabla_inverse", comparing)
    i_set, e_set = tuple(range(1, i_size + 1)), tuple(range(1, e_size + 1))
    result = construct_p(i_set, e_set, enforce_guard=False)
    # one witness family per pair
    assert len(compared) == len(result.pairs)


def test_q_expansion_stays_small(monkeypatch):
    # the blocks entering compact_witness during construct_q at (3, 2):
    # 1,045 with compacted factors, 55,405 if the uncompacted ones expand
    result = construct_p((1, 2, 3), (1, 2), enforce_guard=False)
    original = wedge_module.compact_witness
    blocks = []

    def counting(w):
        blocks.append(len(w.entries))
        return original(w)

    monkeypatch.setattr(wedge_module, "compact_witness", counting)
    construct_q(result)
    assert 0 < sum(blocks) <= 2500


# -- every map out of a wedge against the key-by-key table it replaced ---------


def keyed_action(ctx, k):
    """The action of k tabulated on the wedge's keys: (idx, x) goes to the
    image of x in the component at k meet j, idx's component."""

    def value(n, key):
        if key == simplicial.BASE:
            return key
        idx, x = key
        j, j2 = ctx.components[idx], ctx.monoid.op(k, ctx.components[idx])
        y = suspension_inclusion_recipe(ctx.towers[j], ctx.towers[j2])(n, x)
        if y == ctx.towers[j2].susp.basepoint_at(n):
            return ctx.w_obj.basepoint_at(n)
        return ctx.components.index(j2), y

    return simplicial.tabulate(ctx.w_obj, ctx.w_obj, value)


@pytest.mark.optimized
@pytest.mark.parametrize("i_set", [(1,), (1, 2), (1, 2, 3)])
def test_every_action_equals_the_keyed_table(i_set):
    ctx = WedgeContext(i_set, (1, 2))
    for j in ctx.components:
        for j2 in subsets_of(j):
            got = ctx._susp_map(j, j2)
            assert got == suspension_inclusion_recipe(ctx.towers[j], ctx.towers[j2])
    keyed = {k: keyed_action(ctx, k) for k in ctx.monoid.elements}
    for l_key in subsets_of(ctx.i_set):
        obj = ctx.sub_obj(l_key) if l_key != ctx.i_set else ctx.w_obj
        for k, m in ctx.space(l_key).action.items():
            ref = simplicial.restrict_to(keyed[k], obj, obj)
            assert m.rows == ref.rows and m.domain is obj and m.codomain is obj


def keyed_iota(ctx, b):
    """iota(b) tabulated on the keys: a chain goes through the insertion of
    the block that holds its head, the apex to the basepoint."""
    blocks = list(b)
    wobj = ctx.wedge_of([ctx.cone_face(g) for g in b])

    def value(n, x):
        chain = x[1]
        if chain is None:
            return wobj.basepoint_at(n)
        gi = next(i for i, g in enumerate(blocks) if set(chain[0]) <= set(g))
        return wobj.insertions[gi](n, x)

    return simplicial.tabulate(ctx.cone_layout(b), wobj, value)


@pytest.mark.optimized
@pytest.mark.parametrize("e_set", [(1,), (1, 2), (1, 2, 3)])
def test_every_iota_equals_the_keyed_table(e_set):
    ctx = WedgeContext((1,), e_set)
    layouts = {
        b
        for f in subsets_of(e_set)
        if f
        for b in LayoutLattice(f, bound=len(f)).layouts
        if b
    }
    for b in layouts:
        iota = ctx.iota(b)
        # the inverse is built unchecked, so check it here
        iota._validate()
        ref = keyed_iota(ctx, b)
        assert iota.rows == ref.rows
        assert iota.domain is ref.domain and iota.codomain is ref.codomain


def concatenated_maps(wedge_obj, blocks, flat_wedge):
    """The table from the wedge to the concatenated wedge that sends the
    i-th summand through the f of the i-th block, its parts shifted past
    those of the blocks before it, tabulated on the keys."""
    offsets, count = [], 0
    for b in blocks:
        offsets.append(count)
        count += len(b.parts)
    maps = []
    for n in range(wedge_obj.bound + 1):
        base, flat_base = wedge_obj.basepoint_at(n), flat_wedge.basepoint_at(n)
        level = {} if n else {base: flat_base}
        for i, b in enumerate(blocks):
            ins = wedge_obj.insertions[i]
            block_base = b.wedge.basepoint_at(n)
            for x, fx in b.f.items(n):
                key = ins(n, x)
                if key == base:
                    continue
                if fx == block_base:
                    level[key] = flat_base
                else:
                    j, y = fx
                    level[key] = (offsets[i] + j, y)
        maps.append(level)
    return maps


@pytest.mark.optimized
@pytest.mark.parametrize("i_set, e_set", [((1, 2), (1, 2)), ((1, 2, 3), (1, 2))])
def test_every_wedge_witness_decomposition_equals_the_keyed_table(
    monkeypatch, i_set, e_set
):
    original, calls = witnesses.wedge_witness, []

    def recording(ws, wedge_obj, ctx):
        out = original(ws, wedge_obj, ctx)
        calls.append((ws, wedge_obj, ctx, out))
        return out

    patch_bindings(monkeypatch, original, recording)
    # each run also builds with one more index letter: with zero blocks
    # dropped, (2, 2) alone makes 51 decompositions, 41 of them shifted
    for i in (i_set, i_set + (len(i_set) + 1,)):
        construct_q(construct_p(i, e_set, enforce_guard=False))
    compared, shifted = 0, 0
    for ws, wedge_obj, ctx, out in calls:
        # the blocks of each output entry, in the order the product expands
        combos = [[]]
        for w in ws:
            combos = [chosen + [b] for chosen in combos for _c, b in w.entries]
        assert len(combos) == len(out.entries)
        for blocks, (_c, block) in zip(combos, out.entries):
            summands = [ins.domain for b in blocks for ins in b.wedge.insertions]
            flat_wedge = ctx.wedge_of(summands)
            maps = concatenated_maps(wedge_obj, blocks, flat_wedge)
            ref = simplicial.tabulate(wedge_obj, flat_wedge, lambda n, x: maps[n][x])
            assert block.f.rows == ref.rows and block.wedge is flat_wedge
            compared += 1
            shifted += len(blocks) > 1
    assert compared > 80 and shifted > 40


def test_action_checks_hold_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_one_action_validation_per_context",
        f"{__file__}::test_cutting_to_a_subset_the_action_leaves_fails",
    )


def test_witness_inverse_transform_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_witness_inverse_transform_equals_the_hand_loop")


def test_gluings_equal_the_keyed_tables_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_every_action_equals_the_keyed_table",
        f"{__file__}::test_every_iota_equals_the_keyed_table",
        f"{__file__}::test_every_wedge_witness_decomposition_equals_the_keyed_table",
    )


def test_evaluation_counts_hold_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_pair_scope_runs_each_distinct_morphism_once",
        f"{__file__}::test_checker_builds_each_wedge_label_once",
    )
