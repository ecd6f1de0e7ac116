import json
import os
import random
import sys

import pytest

from fissile import simplicial
from fissile.canon import jsonable
from fissile.chained import subset_key, subsets_of
from fissile.ensembles import Ensemble, augmentation, map_ensemble, singleton
from fissile.layouts import LayoutLattice, layout_key
from fissile.simplicial import compose, enumerate_based_morphisms
from fissile.wedge import (
    GuardExceeded,
    WedgeContext,
    combine_over_layout,
    construct_p,
    construct_q,
    construction_guard,
    restrict_ensemble,
)
from fissile.witnesses import verify_witness
from fissile.artifacts import (
    check_pair_artifacts,
    check_q_artifacts,
    write_pair_artifacts,
    write_q_artifacts,
)


@pytest.fixture(scope="module")
def ctx():
    return WedgeContext((1, 2), (1,))


def test_wedge_lead_vertex_isolated(ctx):
    top_idx = ctx.components.index(ctx.i_set)
    from fissile.simplicial import suspension_top_at

    lead = ctx.w_insertions[top_idx].maps[0][
        suspension_top_at(ctx.towers[ctx.i_set].susp, 0)
    ]
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
            y = act.maps[n][x]
            if y != ctx.w_obj.basepoint_at(n):
                assert y[0] == idx_empty


def test_invariant_subsets(ctx):
    for l_key in subsets_of(ctx.i_set):
        obj = ctx.sub_obj(l_key)
        for k in ctx.monoid.elements:
            act = ctx.full_space.action[k]
            for n in range(ctx.bound + 1):
                for x in obj.level(n):
                    assert obj.has(n, act.maps[n][x]) or act.maps[n][x] in set(
                        obj.level(n)
                    )


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
        from fissile.simplicial import SMorphism

        inc = SMorphism(
            sub,
            big.plus_base_of((1, 2)),
            [{x: x for x in sub.level(n)} for n in range(big.bound + 1)],
            check=False,
        )
        assert compose(xi_big, inc) == big.xi((), f)


def test_filling_restriction_identity(ctx):
    rng = random.Random(71)
    l_key = (1,)
    space = ctx.space(l_key)
    t = ctx.plus_base_of((1,))
    pool = enumerate_based_morphisms(t, space.obj)
    cone_f = ctx.cone_face((1,))
    from fissile.simplicial import SMorphism

    inc = SMorphism(
        t,
        cone_f,
        [{x: x for x in t.level(n)} for n in range(ctx.bound + 1)],
        check=False,
    )
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
            assert filled.maps[n][x] == space.obj.basepoint_at(n)


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
        assert rec.fissile
        rep = verify_witness(rec.alt_sum, rec.alt_witness, len(j), ctx.monoid)
        assert rep
    assert augmentation(qrec.ensemble) == 1


def test_single_index_q_is_fissile(built_11):
    res, qrec = built_11
    # with one index letter, every layout defect vanishes identically
    for a, d in qrec.layout_defects.items():
        assert d == Ensemble.zero()
        assert not qrec.layout_witnesses[a].entries


def test_boundary_witness_level(built_21):
    res, qrec = built_21
    assert qrec.boundary_witness.level >= len(res.ctx.i_set)
    rep = verify_witness(
        qrec.boundary_value,
        qrec.boundary_witness,
        len(res.ctx.i_set),
        res.ctx.monoid,
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


def test_checker_catches_inflated_certificate_level(tmp_path, built_21):
    # claiming a deeper ideal level than the certificate supports must fail
    res, qrec = built_21
    out = tmp_path / "q"
    write_q_artifacts(res, qrec, out)
    qfile = out / "q.json"
    payload = json.loads(qfile.read_text())
    block = payload["boundary_witness"]["blocks"][0]
    part = block["parts"][0]
    part["level"] += 1
    qfile.write_text(json.dumps(payload))
    checks = check_q_artifacts(out)
    assert any(not ok for _name, ok in checks)


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
    from fissile.chained import omega
    from fissile.ensembles import Ensemble

    for f in [(1,)]:
        for j in subsets_of(ctx.i_set):
            space = ctx.space(j) if j != ctx.i_set else ctx.full_space
            expanded = Ensemble.zero()
            for k in subsets_of(j):
                expanded = expanded + ((-1) ** (len(j) - len(k))) * singleton(
                    ctx.xi(k, f)
                )
            wit = ctx.singleton_block_witness(
                omega(j), ctx.omega_cert(j), ctx.xi(j, f), ctx.plus_base_of(f), space
            )
            assert wit.value() == expanded
            assert verify_witness(expanded, wit, len(j), ctx.monoid)


def test_act_interface(ctx):
    from fissile.witnesses import UnregisteredAction, act

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
    from fissile.simplicial import SMorphism

    inc = SMorphism(
        t_small,
        t,
        [{x: x for x in t_small.level(n)} for n in range(ctx.bound + 1)],
        check=False,
    )
    pool = enumerate_based_morphisms(t, ctx.full_space.obj)
    for v in pool[:8]:
        for k in ctx.monoid.elements:
            lhs = compose(ctx.full_space.action[k], compose(v, inc))
            rhs = compose(compose(ctx.full_space.action[k], v), inc)
            assert lhs == rhs


def test_morphism_model_fissilizer(built_21):
    # the repair operator over the morphism model, through the same code
    # path as the synthetic model: constructed ensembles are fixed points,
    # arbitrary ensembles land on fissile ones
    from fissile.fissilizer import fissilize, is_fissile
    from fissile.wedge import MorphismLayoutPresheaf

    res, _q = built_21
    ctx = res.ctx
    lp = MorphismLayoutPresheaf(ctx)
    rng = random.Random(73)
    pool = []
    for j in subsets_of(ctx.i_set):
        if j != ctx.i_set:
            pool.extend(res.final(j).ensemble.terms)
    for j in subsets_of(ctx.i_set):
        if j == ctx.i_set:
            continue
        p = res.final(j).ensemble
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


def test_retraction_extender_transitivity_diagnostic(ctx):
    # the calculus never relies on this identity; record whether it holds
    # for the retraction-induced extender on a small lattice
    from fissile.posets import extender_is_transitive

    lat = LayoutLattice((1,), bound=1)
    samples = []
    pool = enumerate_based_morphisms(ctx.cone_layout(()), ctx.full_space.obj)
    for v in pool[:2]:
        samples.append((lat.top, (), (), singleton(v)))

    def extend(p, q, s):
        return restrict_ensemble(s, ctx.retraction(p, q))

    verdict = extender_is_transitive(None, extend, samples)
    assert verdict in (True, False)


def test_final_ensembles_restrict_multiplicatively(built_21):
    # spot-check the headline property on the assembled records
    res, _q = built_21
    ctx = res.ctx
    lat = LayoutLattice(ctx.e_set, bound=len(ctx.e_set))
    for j in subsets_of(ctx.i_set):
        if j == ctx.i_set:
            continue
        rec = res.final(j)
        for a in lat.layouts:
            got = restrict_ensemble(rec.ensemble, ctx.layout_inclusion(a, lat.top))
            want = combine_over_layout(
                ctx,
                a,
                {g: res.pairs[(subset_key(g), j)].ensemble for g in a},
            )
            assert got == want


def record_wedge_builds(monkeypatch):
    """Count calls of simplicial.wedge through every binding of it in the
    package; each recorded (parts, label) keeps its parts alive."""
    original = simplicial.wedge
    calls = []

    def counting_wedge(parts, label=None):
        calls.append((tuple(parts), label))
        return original(parts, label=label)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fissile" and getattr(module, "wedge", None) is original:
            monkeypatch.setattr(module, "wedge", counting_wedge)
    return calls


def test_checker_builds_each_wedge_label_once(tmp_path, monkeypatch, built_21):
    res, qrec = built_21
    write_q_artifacts(res, qrec, tmp_path)
    payload = json.loads((tmp_path / "q.json").read_text())
    witnesses = [e["witness"] for e in payload["layouts"]]
    witnesses.append(payload["boundary_witness"])
    stored = {json.dumps(b["wedge"]) for w in witnesses for b in w["blocks"]}

    calls = record_wedge_builds(monkeypatch)
    assert all(ok for _name, ok in check_q_artifacts(tmp_path))
    built = [json.dumps(jsonable(label)) for _parts, label in calls]
    assert stored and built
    assert len(built) == len(set(built))
    assert stored <= set(built)
    # beyond the stored wedges, only the context's own: W and the wedges of
    # per-block cones that the layout conditions combine over
    assert {json.loads(b)[0] for b in set(built) - stored} <= {"W", "wedgecones"}


def test_builder_builds_each_wedge_once(monkeypatch):
    calls = record_wedge_builds(monkeypatch)
    construct_q(construct_p((1, 2), (1, 2)))
    keys = [(tuple(map(id, parts)), label) for parts, label in calls]
    assert keys
    assert len(keys) == len(set(keys))
