"""The glued products of a pair scope and the labels of a run context: the
memoised witness evaluation equals a plain per-block sum, each glued
product and each label is built once, and a label that fails to resolve
fails on every call."""

import pytest

from fissile import artifacts, ensembles, witnesses
from fissile import wedge as wedge_module
from fissile.artifacts import (
    ArtifactError,
    check_pair_artifacts,
    check_q_artifacts,
    resolve,
    write_pair_artifacts,
    write_q_artifacts,
)
from fissile.ensembles import Ensemble, combining_product, singleton
from fissile.simplicial import (
    FiniteSimplicialSet,
    compose,
    enumerate_based_morphisms,
    inclusion,
    wedge,
    wedge_combine,
)
from fissile.wedge import WedgeContext, construct_p, construct_q
from fissile.witnesses import (
    Block,
    BlockPart,
    FiltrationWitness,
    IdealTerm,
    PairScope,
    PSpace,
)


def reference_value(entries, space):
    """The sum of c * (block value in the space), block by block and with
    no memo: the combining product of the part values, each tuple glued by
    ``wedge_combine`` into the space and precomposed with f."""
    total = Ensemble.zero()
    for c, block in entries:
        values = []
        for p in block.parts:
            value = Ensemble.zero()
            for t in p.terms:
                for k, n in t.pi.terms.items():
                    value = value + n * singleton(compose(space.action[k], t.morphism))
            values.append(value)
        wobj, cod, f = block.f.codomain, space.obj, block.f
        total = total + c * combining_product(
            values, lambda tup: compose(wedge_combine(wobj, list(tup), codomain=cod), f)
        )
    return total


@pytest.mark.optimized
def test_memoised_evaluation_equals_the_per_block_reference(tmp_path, monkeypatch):
    # every block value of construct_p and construct_q at (2, 2) and (3, 2)
    # and of their checkers, the blocks of every verified witness among them
    value, verify = Block.value, wedge_module.verify_witness
    evaluated, verified = [], []

    def comparing(block, space, scope=None):
        out = value(block, space, scope)
        assert out == reference_value([(1, block)], space)
        evaluated.append(block)
        return out

    def verifying(v, w, *args):
        verified.append(w)
        return verify(v, w, *args)

    monkeypatch.setattr(Block, "value", comparing)
    monkeypatch.setattr(wedge_module, "verify_witness", verifying)
    for i_set in ((1, 2), (1, 2, 3)):
        verified.clear()
        result = construct_p(i_set, (1, 2), enforce_guard=False)
        record = construct_q(result)
        built = len(verified)
        out = tmp_path / "".join(map(str, i_set))
        write_pair_artifacts(result, out / "pj")
        write_q_artifacts(result, record, out / "q")
        assert all(ok for _name, ok in check_pair_artifacts(out / "pj"))
        assert all(ok for _name, ok in check_q_artifacts(out / "q"))
        assert 0 < built < len(verified)
        blocks = {id(b) for w in verified for _c, b in w.entries}
        assert blocks and blocks <= {id(b) for b in evaluated}


def count_composes(monkeypatch, within=False):
    """Count the calls of compose through ``witnesses.compose``; with
    ``within``, only those made inside ``Block.value`` or the builder's
    ``verify_witness``."""
    compose_, calls, inside = witnesses.compose, [], []

    def composing(g, f):
        if inside or not within:
            calls.append(None)
        return compose_(g, f)

    def entering(fn):
        def entered(*args):
            inside.append(None)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return entered

    monkeypatch.setattr(witnesses, "compose", composing)
    if within:
        monkeypatch.setattr(Block, "value", entering(Block.value))
        verify = entering(wedge_module.verify_witness)
        monkeypatch.setattr(wedge_module, "verify_witness", verify)
    return calls


@pytest.mark.optimized
def test_evaluation_composes_each_distinct_decomposition_once(monkeypatch):
    # the compose calls made inside Block.value and verify_witness, the
    # actions on part morphisms among them, each made once per scope;
    # 2,723 when verify_witness summed the blocks grouped by (wedge, f) and
    # the zero-block rule then evaluated each block again
    calls = count_composes(monkeypatch, within=True)
    construct_p((1, 2, 3), (1, 2), enforce_guard=False)
    assert 0 < len(calls) <= 2400


@pytest.mark.optimized
@pytest.mark.parametrize(
    "i_set, kind, bound", [((1, 2, 3), "pj", 1200), ((1, 2), "q", 160)]
)
def test_a_check_evaluates_each_block_once(tmp_path, monkeypatch, i_set, kind, bound):
    # the compose calls of check-pj of a pj(3, 2) dump and check-q of a
    # q(2, 2) dump: 1,549 and 218 when the zero-block rule evaluated each
    # block again after verify_witness had summed them
    result = construct_p(i_set, (1, 2), enforce_guard=False)
    if kind == "pj":
        write_pair_artifacts(result, tmp_path)
        check = check_pair_artifacts
    else:
        write_q_artifacts(result, construct_q(result), tmp_path)
        check = check_q_artifacts
    calls = count_composes(monkeypatch)
    assert all(ok is True for _name, ok in check(tmp_path))
    assert 0 < len(calls) <= bound


def test_blocks_that_share_objects_keep_their_own_values():
    # variants of one block that keep its wedge and its part morphisms,
    # with another pi or another f, or evaluated in another space, all in
    # one scope
    ctx = WedgeContext((1, 2), (1,))
    space, t = ctx.space((1,)), ctx.plus_base_of((1,))
    obj = space.obj
    trivial = PSpace(obj, ctx.monoid, dict.fromkeys(ctx.monoid.elements, inclusion(obj, obj)))
    m = enumerate_based_morphisms(t, obj)[1]  # moved by the action of ()
    term = IdealTerm(singleton((1, 2)), m)
    other = IdealTerm(2 * singleton(()), m)
    wobj = wedge([t, t])
    parts = [BlockPart(0, [term]), BlockPart(0, [term])]
    other_pi = [BlockPart(0, [other]), parts[1]]
    decompositions = enumerate_based_morphisms(t, wobj)
    f, other_f = decompositions[1], decompositions[0]
    variants = [
        (Block(f, parts), space),
        (Block(f, other_pi), space),
        (Block(f, other_pi), trivial),
        (Block(other_f, parts), space),
    ]
    values = [reference_value([(1, b)], z) for b, z in variants]
    assert all(values.count(v) == 1 for v in values)
    scope = PairScope()
    for (b, z), v in zip(variants + variants, values + values):
        assert b.value(z, scope) == v
    in_space = [b for b, z in variants if z is space]
    w = FiltrationWitness(0, [(c, b) for c, b in zip((1, -2, 5), in_space)])
    assert w.value(space, scope) == reference_value(w.entries, space)


def count_products(monkeypatch):
    """Count the calls of combining_product through every binding of it in
    the package."""
    original, calls = ensembles.combining_product, []

    def counting(factors, combiner):
        calls.append(None)
        return original(factors, combiner)

    for module in (ensembles, witnesses, wedge_module):
        if getattr(module, "combining_product", None) is original:
            monkeypatch.setattr(module, "combining_product", counting)
    return calls


@pytest.mark.optimized
def test_glued_products_are_built_once_per_scope(tmp_path, monkeypatch):
    # 1,259 and 421 calls when each block expanded its own product
    calls = count_products(monkeypatch)
    result = construct_p((1, 2, 3), (1, 2), enforce_guard=False)
    assert 0 < len(calls) <= 300
    write_pair_artifacts(result, tmp_path)
    calls.clear()
    assert all(ok for _name, ok in check_pair_artifacts(tmp_path))
    assert 0 < len(calls) <= 200


@pytest.mark.optimized
def test_each_label_is_resolved_once_per_context(tmp_path, monkeypatch):
    write_pair_artifacts(construct_p((1, 2, 3), (1, 2), enforce_guard=False), tmp_path)
    original, build = artifacts.resolve, artifacts._resolve
    calls, built = [], []

    def calling(ctx, label):
        calls.append(repr(label))
        return original(ctx, label)

    def building(ctx, label):
        built.append(repr(label))
        return build(ctx, label)

    monkeypatch.setattr(artifacts, "resolve", calling)
    monkeypatch.setattr(artifacts, "_resolve", building)
    assert all(ok for _name, ok in check_pair_artifacts(tmp_path))
    # 173 lookups of 10 labels, one per record domain: a block names no
    # wedge and no space, so the 16 wedge and space labels blocks named
    # (26 labels, 499 lookups, before) are gone
    assert len(built) == len(set(built)) == len(set(calls)) == 10
    assert len(calls) > 10 * len(built)


def test_the_checkers_build_no_reduced_cone_of_a_suspension(tmp_path, monkeypatch):
    # a tower builds the reduced cone of its suspension on first use, and
    # only a contraction reads it; the checkers read none.  The checks
    # built 65 and 45 sets when every tower built its cone
    pj, q = tmp_path / "pj", tmp_path / "q"
    write_pair_artifacts(construct_p((1, 2, 3), (1, 2), enforce_guard=False), pj)
    result = construct_p((1, 2), (1, 2))
    write_q_artifacts(result, construct_q(result), q)
    labels = []
    init = FiniteSimplicialSet.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        labels.append(self.label)

    monkeypatch.setattr(FiniteSimplicialSet, "__init__", recording)
    for checker, path, built in ((check_pair_artifacts, pj, 57), (check_q_artifacts, q, 41)):
        labels.clear()
        assert all(ok for _name, ok in checker(path))
        assert len(labels) == built
        assert not [x for x in labels if x[0] == "redcone" and x[1][0] == "suspension"]


@pytest.mark.optimized
@pytest.mark.parametrize(
    "label",
    [["WL", [{"x": 1}]], [], "W", ["redcone"], ["W", [7, 8]], ["W", [1]]],
    ids=repr,
)
def test_a_failing_label_fails_on_every_call(label):
    ctx = WedgeContext((1,), (1,))
    for _ in range(3):
        with pytest.raises(ArtifactError):
            resolve(ctx, label)
    # a good label resolves, once, to the context's object
    assert resolve(ctx, ["point"]) is resolve(ctx, ["point"]) is ctx.point_obj()


def test_counts_hold_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_memoised_evaluation_equals_the_per_block_reference",
        f"{__file__}::test_evaluation_composes_each_distinct_decomposition_once",
        f"{__file__}::test_a_check_evaluates_each_block_once",
        f"{__file__}::test_glued_products_are_built_once_per_scope",
        f"{__file__}::test_each_label_is_resolved_once_per_context",
        f"{__file__}::test_a_failing_label_fails_on_every_call",
    )
