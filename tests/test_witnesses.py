import random

import pytest

from fissile.chained import ideal_membership, omega, ring_product, subsets_of
from fissile.ensembles import Ensemble, map_ensemble, singleton
from fissile.simplicial import compose, enumerate_based_morphisms, reduced_cone_map, wedge
from fissile.wedge import WedgeContext
from fissile.witnesses import (
    Block,
    BlockPart,
    FiltrationWitness,
    IdealTerm,
    combine_over_wedge,
    cone_witness,
    make_block,
    map_witness,
    restrict_witness,
    verify_witness,
    wedge_witness,
)


@pytest.fixture(scope="module")
def ctx():
    return WedgeContext((1, 2), (1,))


def random_pi(rng, ctx, level):
    """A certified monoid-ring element at the given ideal level."""
    target = Ensemble.zero()
    pool = [j for j in subsets_of(ctx.i_set) if len(j) >= level]
    for _ in range(rng.randint(1, 2)):
        l_key = rng.choice(subsets_of(ctx.i_set))
        j = rng.choice(pool)
        target = target + rng.randint(-2, 2) * ring_product(
            ctx.monoid, singleton(l_key), omega(j)
        )
    cert = ideal_membership(ctx.monoid, target, level)
    assert cert is not None
    return target, cert


def morphism_pool(ctx, t, space):
    return enumerate_based_morphisms(t, space.obj)


def random_block(rng, ctx, t, space):
    n_parts = rng.randint(1, 2)
    domains, parts = [], []
    for _ in range(n_parts):
        dom = rng.choice([ctx.plus_base_of((1,))])
        level = rng.randint(0, 2)
        pi, cert = random_pi(rng, ctx, level)
        w = rng.choice(morphism_pool(ctx, dom, space))
        domains.append(dom)
        parts.append(
            BlockPart(level=level, terms=[IdealTerm(pi, cert, w)], domain=dom, space=space)
        )
    wobj, ins = wedge(domains)
    f = rng.choice(enumerate_based_morphisms(t, wobj))
    return Block(f=f, wedge_obj=wobj, insertions=ins, parts=parts, space=space)


def random_witness(rng, ctx, t, space, n_blocks=2):
    entries = [
        (rng.choice((-2, -1, 1, 2)), random_block(rng, ctx, t, space))
        for _ in range(rng.randint(1, n_blocks))
    ]
    level = min(b.rank() for _c, b in entries)
    return FiltrationWitness(level, entries)


def test_make_block_and_trivial_cases(ctx):
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    pool = morphism_pool(ctx, t, space)
    w0 = pool[0]
    cert = ideal_membership(ctx.monoid, singleton(ctx.i_set), 0)
    wobj, ins = wedge([t])
    value, block = make_block(
        ctx.monoid,
        ins[0],
        wobj,
        ins,
        [
            BlockPart(
                level=0,
                terms=[IdealTerm(singleton(ctx.i_set), cert, w0)],
                domain=t,
                space=space,
            )
        ],
        space,
    )
    assert value == singleton(w0)
    assert block.rank() == 0
    rep = verify_witness(value, FiltrationWitness(0, [(1, block)]), 0, ctx.monoid)
    assert rep


def test_make_block_zero_part(ctx):
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    w0 = morphism_pool(ctx, t, space)[0]
    cert = ideal_membership(ctx.monoid, Ensemble.zero(), 1)
    wobj, ins = wedge([t])
    value, block = make_block(
        ctx.monoid,
        ins[0],
        wobj,
        ins,
        [
            BlockPart(
                level=1,
                terms=[IdealTerm(Ensemble.zero(), cert, w0)],
                domain=t,
                space=space,
            )
        ],
        space,
    )
    assert value == Ensemble.zero()


def test_make_block_rejects_bad_certificate(ctx):
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    w0 = morphism_pool(ctx, t, space)[0]
    good = ideal_membership(ctx.monoid, omega((1,)), 1)
    wobj, ins = wedge([t])
    with pytest.raises(ValueError):
        make_block(
            ctx.monoid,
            ins[0],
            wobj,
            ins,
            [
                BlockPart(
                    level=2,  # claims rank 2 but the certificate is level 1
                    terms=[IdealTerm(omega((1,)), good, w0)],
                    domain=t,
                    space=space,
                )
            ],
            space,
        )


def test_verify_witness_detects_tampering(ctx):
    rng = random.Random(61)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    checked = 0
    while checked < 5:
        w = random_witness(rng, ctx, t, space)
        v = w.value()
        assert verify_witness(v, w, w.level, ctx.monoid)
        idx = next(
            (i for i, (c, b) in enumerate(w.entries) if b.value()), None
        )
        if idx is None:
            continue
        entries = list(w.entries)
        c, b = entries[idx]
        entries[idx] = (c + 1, b)
        rep = verify_witness(v, FiltrationWitness(w.level, entries), w.level, ctx.monoid)
        assert not rep and rep.diagnostic == "sum mismatch"
        checked += 1


def test_verify_witness_level_gate(ctx):
    rng = random.Random(62)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    w = random_witness(rng, ctx, t, space)
    v = w.value()
    rep = verify_witness(v, w, w.level + 5, ctx.monoid)
    assert not rep


def test_restrict_witness_pipeline(ctx):
    rng = random.Random(63)
    space = ctx.space((1,))
    t = ctx.cone_face((1,))
    t_small = ctx.plus_base_of((1,))
    for _ in range(25):
        w = random_witness(rng, ctx, t, space)
        v = w.value()
        k = rng.choice(enumerate_based_morphisms(t_small, t))
        wr = restrict_witness(w, k)
        expected = map_ensemble(lambda m: compose(m, k), v)
        assert verify_witness(expected, wr, w.level, ctx.monoid)


def test_restrict_witness_identity(ctx):
    rng = random.Random(64)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    from fissile.simplicial import inclusion

    w = random_witness(rng, ctx, t, space)
    wr = restrict_witness(w, inclusion(t, t))
    assert verify_witness(w.value(), wr, w.level, ctx.monoid)


def test_map_witness_pipeline(ctx):
    rng = random.Random(65)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(25):
        w = random_witness(rng, ctx, t, space)
        v = w.value()
        k = rng.choice(ctx.monoid.elements)
        h = space.action[k]
        wm = map_witness(w, h, space, space)
        expected = map_ensemble(lambda m: compose(h, m), v)
        assert verify_witness(expected, wm, w.level, ctx.monoid)


def test_map_witness_rejects_nonequivariant(ctx):
    # relabeling the two index letters is a valid based morphism of the full
    # wedge but does not commute with the subset action
    rng = random.Random(66)
    full = ctx.full_space
    t = ctx.plus_base_of((1,))
    w = random_witness(rng, ctx, t, full)
    from fissile.simplicial import SMorphism

    perm = {(): (), (1,): (2,), (2,): (1,), (1, 2): (1, 2)}

    def swap_letters(z):
        if z is None:
            return None
        return tuple(perm[(v,)][0] if (v,) in perm and v in (1, 2) else v for v in z)

    maps = []
    for n in range(ctx.bound + 1):
        level = {}
        for x in full.obj.level(n):
            if x == full.obj.basepoint_at(n):
                level[x] = x
                continue
            idx, (tt, z) = x
            j2 = perm[ctx.components[idx]]
            level[x] = (ctx.components.index(j2), (tt, swap_letters(z)))
        maps.append(level)
    swap = SMorphism(full.obj, full.obj, maps)
    assert swap.is_based()
    with pytest.raises(AssertionError):
        map_witness(w, swap, full, full)


def test_cone_witness_pipeline(ctx):
    rng = random.Random(67)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(15):
        w = random_witness(rng, ctx, t, space)
        v = w.value()
        wc = cone_witness(w, ctx.registry)
        red_t = ctx.registry.reduced_domain(t)
        red_space = ctx.registry.reduced_space(space)
        expected = map_ensemble(
            lambda m: reduced_cone_map(m, red_t, red_space[1]), v
        )
        assert verify_witness(expected, wc, w.level, ctx.monoid)


def test_wedge_witness_pipeline(ctx):
    rng = random.Random(68)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(15):
        w1 = random_witness(rng, ctx, t, space)
        w2 = random_witness(rng, ctx, t, space)
        wobj, ins = wedge([t, t])
        ww = wedge_witness([w1, w2], wobj, ins, ctx.registry)
        assert ww.level == w1.level + w2.level
        expected = combine_over_wedge(wobj, ins, [w1.value(), w2.value()])
        assert verify_witness(expected, ww, ww.level, ctx.monoid)


def test_transform_chain_preserves_validity(ctx):
    rng = random.Random(69)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(10):
        w = random_witness(rng, ctx, t, space)
        v = w.value()
        k = rng.choice(ctx.monoid.elements)
        h = space.action[k]
        step1 = map_witness(w, h, space, space)
        v1 = map_ensemble(lambda m: compose(h, m), v)
        step2 = cone_witness(step1, ctx.registry)
        red_t = ctx.registry.reduced_domain(t)
        red_space = ctx.registry.reduced_space(space)
        v2 = map_ensemble(lambda m: reduced_cone_map(m, red_t, red_space[1]), v1)
        assert verify_witness(v2, step2, w.level, ctx.monoid)
