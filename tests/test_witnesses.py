import random

import pytest

from fissile.chained import ideal_membership, omega, ring_product, subsets_of
from fissile.ensembles import Ensemble, map_ensemble, singleton
from fissile.simplicial import (
    BASE,
    SimplicialError,
    SMorphism,
    compose,
    constant_morphism,
    enumerate_based_morphisms,
    inclusion,
    intern_all,
    invert_iso,
    quotient,
    reduced_cone,
    reduced_cone_map,
    standard_simplex,
    tabulate,
    wedge,
)
from fissile.wedge import WedgeContext
from fissile.witnesses import (
    Block,
    BlockPart,
    FiltrationWitness,
    IdealTerm,
    PairScope,
    PSpace,
    combine_over_wedge,
    compact_witness,
    cone_witness,
    drop_zero_blocks,
    map_witness,
    restrict_witness,
    verify_witness,
    wedge_witness,
)


def id_rows(t, maps):
    """The id rows of a table given as one dict per dimension over the
    nondegenerate simplices of t."""
    return tuple(
        intern_all([level[x] for x in t.nondegenerate(n)]) for n, level in enumerate(maps)
    )


def disjoint_basepoint(u):
    """u with a free basepoint adjoined (quotient by the empty subset)."""
    return quotient(u, [set() for _ in range(u.bound + 1)], label=("plus", u.label))


@pytest.fixture(scope="module")
def ctx():
    return WedgeContext((1, 2), (1,))


def random_pi(rng, ctx, level):
    """A monoid-ring element in the ideal at the given level."""
    target = Ensemble.zero()
    pool = [j for j in subsets_of(ctx.i_set) if len(j) >= level]
    for _ in range(rng.randint(1, 2)):
        l_key = rng.choice(subsets_of(ctx.i_set))
        j = rng.choice(pool)
        target = target + rng.randint(-2, 2) * ring_product(
            ctx.monoid, singleton(l_key), omega(j)
        )
    assert ideal_membership(ctx.monoid, target, level) is not None
    return target


def morphism_pool(ctx, t, space):
    return enumerate_based_morphisms(t, space.obj)


def random_block(rng, ctx, t, space):
    n_parts = rng.randint(1, 2)
    domains, parts = [], []
    for _ in range(n_parts):
        dom = rng.choice([ctx.plus_base_of((1,))])
        level = rng.randint(0, 2)
        pi = random_pi(rng, ctx, level)
        w = rng.choice(morphism_pool(ctx, dom, space))
        domains.append(dom)
        parts.append(
            BlockPart(level=level, terms=[IdealTerm(pi, w)])
        )
    wobj = wedge(domains)
    f = rng.choice(enumerate_based_morphisms(t, wobj))
    return Block(f, parts)


def random_witness(rng, ctx, t, space, n_blocks=2):
    entries = [
        (rng.choice((-2, -1, 1, 2)), random_block(rng, ctx, t, space))
        for _ in range(rng.randint(1, n_blocks))
    ]
    level = min(b.rank() for _c, b in entries)
    return FiltrationWitness(level, entries)


def verify_nonzero(v, w, s, space):
    """``verify_witness`` in the space of w less its zero blocks, dropped by
    the builder's own rule, in one scope."""
    scope = PairScope()
    return verify_witness(v, drop_zero_blocks(w, space, scope), s, space, scope)


def make_block(space, f, parts):
    """Evaluate a block in the space after checking that every part's pi
    lies in the ideal of the space's monoid at the part's level."""
    block = Block(f, parts)
    for p in parts:
        if not p.in_ideal(space.monoid, PairScope()):
            raise ValueError("ideal decomposition fails verification")
    return block.value(space), block


def test_make_block_and_trivial_cases(ctx):
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    pool = morphism_pool(ctx, t, space)
    w0 = pool[0]
    wobj = wedge([t])
    value, block = make_block(
        space,
        wobj.insertions[0],
        [
            BlockPart(
                level=0,
                terms=[IdealTerm(singleton(ctx.i_set), w0)],
            )
        ],
    )
    assert value == singleton(w0)
    assert block.rank() == 0
    rep = verify_witness(value, FiltrationWitness(0, [(1, block)]), 0, space)
    assert rep


def test_make_block_zero_part(ctx):
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    w0 = morphism_pool(ctx, t, space)[0]
    wobj = wedge([t])
    value, block = make_block(
        space,
        wobj.insertions[0],
        [
            BlockPart(
                level=1,
                terms=[IdealTerm(Ensemble.zero(), w0)],
            )
        ],
    )
    assert value == Ensemble.zero()


def test_make_block_rejects_bad_certificate(ctx):
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    w0 = morphism_pool(ctx, t, space)[0]
    wobj = wedge([t])
    with pytest.raises(ValueError):
        make_block(
            space,
            wobj.insertions[0],
            [
                BlockPart(
                    level=2,  # claims rank 2 but pi is only in the level-1 ideal
                    terms=[IdealTerm(omega((1,)), w0)],
                )
            ],
        )


@pytest.mark.optimized
def test_verify_witness_detects_tampering(ctx):
    rng = random.Random(61)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    checked = 0
    while checked < 5:
        w = random_witness(rng, ctx, t, space)
        v = w.value(space)
        assert verify_nonzero(v, w, w.level, space)
        idx = next(
            (i for i, (c, b) in enumerate(w.entries) if b.value(space)), None
        )
        if idx is None:
            continue
        entries = list(w.entries)
        c, b = entries[idx]
        entries[idx] = (c + 1, b)
        # reported ahead of any zero block w holds
        rep = verify_witness(v, FiltrationWitness(w.level, entries), w.level, space)
        assert not rep and rep.diagnostic == "sum mismatch"
        checked += 1


def test_verify_witness_level_gate(ctx):
    rng = random.Random(62)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    w = random_witness(rng, ctx, t, space)
    v = w.value(space)
    rep = verify_witness(v, w, w.level + 5, space)
    assert not rep


def test_verify_witness_rejects_a_level_above_a_block_rank(ctx):
    rng = random.Random(62)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    w = random_witness(rng, ctx, t, space)
    raised = FiltrationWitness(10**6, w.entries)
    rep = verify_witness(w.value(space), raised, w.level, space)
    assert not rep
    first = w.entries[0][1].rank()
    assert rep.diagnostic == f"block of rank {first} below the witness level 1000000"
    # a witness with no blocks holds at any level
    assert verify_witness(Ensemble.zero(), FiltrationWitness(10**6), 0, space)


@pytest.mark.optimized
def test_restrict_witness_pipeline(ctx):
    rng = random.Random(63)
    space = ctx.space((1,))
    t = ctx.cone_face((1,))
    t_small = ctx.plus_base_of((1,))
    for _ in range(25):
        w = random_witness(rng, ctx, t, space)
        v = w.value(space)
        k = rng.choice(enumerate_based_morphisms(t_small, t))
        wr = restrict_witness(w, k)
        expected = map_ensemble(lambda m: compose(m, k), v)
        assert verify_nonzero(expected, wr, w.level, space)


@pytest.mark.optimized
def test_restrict_witness_identity(ctx):
    rng = random.Random(64)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    from fissile.simplicial import inclusion

    w = random_witness(rng, ctx, t, space)
    wr = restrict_witness(w, inclusion(t, t))
    assert verify_nonzero(w.value(space), wr, w.level, space)


@pytest.mark.optimized
def test_map_witness_pipeline(ctx):
    rng = random.Random(65)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(25):
        w = random_witness(rng, ctx, t, space)
        v = w.value(space)
        k = rng.choice(ctx.monoid.elements)
        h = space.action[k]
        wm = map_witness(w, h, space, space)
        expected = map_ensemble(lambda m: compose(h, m), v)
        assert verify_nonzero(expected, wm, w.level, space)


def letter_swap(ctx):
    """Relabeling the two index letters: a valid based morphism of the full
    wedge that does not commute with the subset action."""
    full = ctx.full_space
    perm = {(): (), (1,): (2,), (2,): (1,), (1, 2): (1, 2)}

    def swap_letters(z):
        if z is None:
            return None
        return tuple(perm[(v,)][0] if (v,) in perm and v in (1, 2) else v for v in z)

    maps = []
    for n in range(ctx.bound + 1):
        level = {}
        for x in full.obj.nondegenerate(n):
            if x == full.obj.basepoint_at(n):
                level[x] = x
                continue
            idx, (tt, z) = x
            j2 = perm[ctx.components[idx]]
            level[x] = (ctx.components.index(j2), (tt, swap_letters(z)))
        maps.append(level)
    swap = tabulate(full.obj, full.obj, lambda n, x: maps[n][x])
    assert swap.is_based()
    return swap


@pytest.mark.optimized
def test_map_witness_rejects_nonequivariant(ctx):
    rng = random.Random(66)
    full = ctx.full_space
    w = random_witness(rng, ctx, ctx.plus_base_of((1,)), full)
    with pytest.raises(SimplicialError, match="not equivariant"):
        map_witness(w, letter_swap(ctx), full, full)


def test_scope_rejects_nonequivariant_after_equivariant(ctx):
    # the scope has checked the identity between the same two spaces; the
    # swap has another table, so its check still runs
    rng = random.Random(66)
    full = ctx.full_space
    w = random_witness(rng, ctx, ctx.plus_base_of((1,)), full)
    scope = PairScope()
    identity = inclusion(full.obj, full.obj)
    for _ in range(2):
        assert map_witness(w, identity, full, full, scope).value(full) == w.value(full)
    with pytest.raises(SimplicialError, match="not equivariant"):
        map_witness(w, letter_swap(ctx), full, full, scope)


@pytest.mark.optimized
def test_pspace_rejects_unbased_action(ctx):
    # the non-identity elements act by the constant map at the free
    # vertex of the edge, which moves the basepoint
    t = edge()
    free = next(x for x in t.level(0) if x != t.basepoint)
    action = {k: constant_morphism(t, t, free) for k in ctx.monoid.elements}
    action[ctx.monoid.identity()] = inclusion(t, t)
    with pytest.raises(SimplicialError, match="action is not based at the monoid"):
        PSpace(t, ctx.monoid, action)


@pytest.mark.optimized
def test_cone_witness_pipeline(ctx):
    rng = random.Random(67)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(15):
        w = random_witness(rng, ctx, t, space)
        v = w.value(space)
        wc = cone_witness(w, space, ctx)
        red_t = ctx.reduced_domain(t)
        red_space = ctx.reduced_space(space)
        expected = map_ensemble(
            lambda m: reduced_cone_map(m, red_t, red_space[1]), v
        )
        assert verify_nonzero(expected, wc, w.level, red_space[0])


@pytest.mark.optimized
def test_wedge_witness_pipeline(ctx):
    rng = random.Random(68)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(15):
        w1 = random_witness(rng, ctx, t, space)
        w2 = random_witness(rng, ctx, t, space)
        wobj = wedge([t, t])
        ww = wedge_witness([w1, w2], wobj, ctx)
        assert ww.level == w1.level + w2.level
        expected = combine_over_wedge(wobj, [w1.value(space), w2.value(space)])
        assert verify_nonzero(expected, ww, ww.level, space)


@pytest.mark.optimized
def test_witness_sum_concatenates_and_difference_compacts(ctx):
    rng = random.Random(70)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(10):
        a = random_witness(rng, ctx, t, space, n_blocks=3)
        b = random_witness(rng, ctx, t, space, n_blocks=3)
        b.entries.extend(rng.sample(a.entries, 1))
        level = min(a.level, b.level)
        total = a + b
        assert total.level == level
        assert [(c, id(blk)) for c, blk in total.entries] == [
            (c, id(blk)) for c, blk in a.entries + b.entries
        ]
        diff = a - b
        expected = compact_witness(
            FiltrationWitness(level, a.entries + [(-c, blk) for c, blk in b.entries])
        )
        assert diff.level == level
        assert [(c, id(blk)) for c, blk in diff.entries] == [
            (c, id(blk)) for c, blk in expected.entries
        ]
        assert diff.value(space) == a.value(space) - b.value(space)
        assert not (a - a).entries


@pytest.mark.optimized
def test_transform_chain_preserves_validity(ctx):
    rng = random.Random(69)
    space = ctx.space((1,))
    t = ctx.plus_base_of((1,))
    for _ in range(10):
        w = random_witness(rng, ctx, t, space)
        v = w.value(space)
        k = rng.choice(ctx.monoid.elements)
        h = space.action[k]
        step1 = map_witness(w, h, space, space)
        v1 = map_ensemble(lambda m: compose(h, m), v)
        step2 = cone_witness(step1, space, ctx)
        red_t = ctx.reduced_domain(t)
        red_space = ctx.reduced_space(space)
        v2 = map_ensemble(lambda m: reduced_cone_map(m, red_t, red_space[1]), v1)
        assert verify_nonzero(v2, step2, w.level, red_space[0])


# -- evaluation builds each distinct wedge combination once ---------------------


def edge():
    """A based edge: the standard 1-simplex with a disjoint basepoint."""
    return disjoint_basepoint(standard_simplex(1, 2))


def trivial_space(ctx, z):
    """z under the trivial action."""
    return PSpace(z, ctx.monoid, {k: inclusion(z, z) for k in ctx.monoid.elements})


def identity_block(ctx, t, part_morphism):
    """One rank-0 block over the wedge of t alone, with f its insertion,
    whose part carries ``part_morphism`` into t, to be evaluated under the
    trivial action on t."""
    wobj = wedge([t])
    part = BlockPart(0, [IdealTerm(singleton(ctx.i_set), part_morphism)])
    return Block(wobj.insertions[0], [part])


def count_validations(monkeypatch, domain):
    """Count SMorphism validations of tables out of ``domain``."""
    original, seen = SMorphism._validate, []

    def counting(self):
        if self.domain is domain:
            seen.append(self)
        return original(self)

    monkeypatch.setattr(SMorphism, "_validate", counting)
    return seen


def count_builds(monkeypatch, domain):
    """Count the SMorphisms built out of ``domain``, validated or not."""
    init, seen = SMorphism.__init__, []

    def counting(self, dom, *args, **kwargs):
        init(self, dom, *args, **kwargs)
        if dom is domain:
            seen.append(self)

    monkeypatch.setattr(SMorphism, "__init__", counting)
    return seen


def assert_face_breaking_twin_rejected(ctx, scope):
    # two blocks share wedge and parts; the second one's f breaks faces and
    # its table key is recomputed from the broken table, so the shared
    # wedge combination must still be precomposed with each block's own f
    t = edge()
    space = trivial_space(ctx, t)
    good = identity_block(ctx, t, inclusion(t, t))
    wobj = good.wedge
    maps = [dict(good.f.items(n)) for n in range(t.bound + 1)]
    x = t.nondegenerate(1)[0]
    maps[1][x] = next(
        y for y in wobj.level(1) if wobj.faces[1][y] != wobj.faces[1][maps[1][x]]
    )
    with pytest.raises(SimplicialError, match="faces"):
        SMorphism(t, wobj, id_rows(t, maps))
    broken = Block(SMorphism(t, wobj, id_rows(t, maps), check=False), good.parts)
    assert broken.f.is_based() and broken.f.table_key() != good.f.table_key()
    v = FiltrationWitness(0, [(1, good), (1, good)]).value(space, scope)
    assert v == 2 * singleton(inclusion(t, t))
    tampered = FiltrationWitness(0, [(1, good), (1, broken)])
    rep = verify_witness(v, tampered, 0, space, scope)
    assert not rep and rep.diagnostic == "sum mismatch"


@pytest.mark.optimized
def test_a_zero_block_fails_until_dropped(ctx):
    # a block whose two terms cancel is zero on its own: the witness still
    # sums to v, but verify_witness names the block, unless the sum is
    # wrong too; with the block dropped the witness holds
    t = edge()
    space = trivial_space(ctx, t)
    good = identity_block(ctx, t, inclusion(t, t))
    term = good.parts[0].terms[0]
    cancelling = [term, IdealTerm(-term.pi, term.morphism)]
    zero = Block(good.f, [BlockPart(good.parts[0].level, cancelling)])
    v = singleton(inclusion(t, t))
    w = FiltrationWitness(0, [(1, good), (2, zero)])
    rep = verify_witness(v, w, 0, space)
    assert not rep and rep.diagnostic == "block 1 is zero"
    rep = verify_witness(2 * v, w, 0, space)
    assert not rep and rep.diagnostic == "sum mismatch"
    scope = PairScope()
    dropped = drop_zero_blocks(w, space, scope)
    assert [(c, id(b)) for c, b in dropped.entries] == [(1, id(good))]
    assert verify_witness(v, dropped, 0, space, scope) is True


def test_verify_witness_rejects_face_breaking_f_beside_its_twin(ctx):
    assert_face_breaking_twin_rejected(ctx, None)


def test_face_breaking_twin_rejected_in_a_shared_scope(ctx):
    # the good witness is evaluated first, in the scope the check reuses
    assert_face_breaking_twin_rejected(ctx, PairScope())


def degenerate_row_forged(t):
    """The rows of inclusion(t, t) with one more value at dimension 1, the
    degenerate edge at (1,), as if for the degenerate edge at (0,): a
    table whose nondegenerate rows, and so whose key, are those of the
    identity, but whose faces break."""
    rows = inclusion(t, t).rows
    return (rows[0], rows[1] + intern_all([(1, 1)]), *rows[2:])


def edge_row_broken(t):
    """inclusion(t, t) with the edge sent to the degenerate edge at (0,):
    a table over the identity's objects that differs in one row and whose
    faces break."""
    maps = [dict(inclusion(t, t).items(n)) for n in range(t.bound + 1)]
    maps[1][(0, 1)] = (0, 0)
    return SMorphism(t, t, id_rows(t, maps), check=False)


@pytest.mark.optimized
def test_forged_degenerate_row_rejected_at_construction(ctx):
    # a table holds the nondegenerate rows only, so the scope's keys, which
    # hold every row, cannot meet an equal key over another table: the
    # forged table is rejected at construction, unchecked too
    t = edge()
    for check in (True, False):
        with pytest.raises(SimplicialError, match="rows differ from the nondegenerate"):
            SMorphism(t, t, degenerate_row_forged(t), check=check)


def test_scope_reglues_part_with_equal_key_but_other_table(ctx):
    t = edge()
    with pytest.raises(SimplicialError, match="rows differ from the nondegenerate"):
        SMorphism(t, t, degenerate_row_forged(t), check=False)
    # the nearest table that can be built differs from the identity's in a
    # row, so its key does too.  Checked, it fails at its own construction;
    # built unchecked, it reaches the block's gluing, which the scope makes
    # afresh over the same objects, so the block's value is its own
    with pytest.raises(SimplicialError, match="faces"):
        SMorphism(t, t, edge_row_broken(t).rows)
    good = identity_block(ctx, t, inclusion(t, t))
    part = good.parts[0]
    term = IdealTerm(part.terms[0].pi, edge_row_broken(t))
    bad = Block(good.f, [BlockPart(part.level, [term])])
    space, scope = trivial_space(ctx, t), PairScope()
    assert good.value(space, scope) == singleton(inclusion(t, t))
    assert bad.value(space, scope) == singleton(edge_row_broken(t))


def test_scope_recones_map_with_equal_key_but_other_table():
    t = edge()
    with pytest.raises(SimplicialError, match="rows differ from the nondegenerate"):
        SMorphism(t, t, degenerate_row_forged(t), check=False)
    broken = edge_row_broken(t)
    with pytest.raises(SimplicialError, match="faces"):
        SMorphism(t, t, broken.rows)
    red = reduced_cone(t)
    scope = PairScope()
    ident = inclusion(t, t)
    coned_ident = scope.reduced_cone_map(ident, red, red)
    assert coned_ident == reduced_cone_map(ident, red, red)
    # the reduced cone of a simplicial map between t's own reduced cones
    # is not validated, so the unchecked table's cone is taken afresh, not
    # read as the identity's, and it is as broken as the table
    coned = scope.reduced_cone_map(broken, red, red)
    assert coned != coned_ident
    with pytest.raises(SimplicialError, match="faces"):
        coned._validate()


def test_invert_iso_needs_a_bijection_of_nondegenerate_simplices():
    t = edge()
    assert invert_iso(inclusion(t, t)) == inclusion(t, t)
    # the edge onto the degenerate edge of the point: one value per row, but
    # a degenerate one
    u = standard_simplex(1, 2)
    ends = [{x for x in u.level(n) if len(set(x)) == 1} for n in range(3)]
    circle = quotient(u, ends)
    values = {BASE: (0,), (0, 1): (0, 0)}
    to_point = tabulate(circle, standard_simplex(0, 2), lambda n, x: values[x])
    with pytest.raises(SimplicialError, match="not injective at dimension 1"):
        invert_iso(to_point)
    # the basepoint and one end of the edge: injective, not onto
    ends_only = tabulate(disjoint_basepoint(standard_simplex(0, 2)), t, lambda n, x: x)
    with pytest.raises(SimplicialError, match="not surjective at dimension 0"):
        invert_iso(ends_only)


def test_equal_part_tables_on_distinct_domains_each_validated(ctx, monkeypatch):
    # a part is valued in its claim's space, so its terms land in the
    # space's own object and their gluing is not validated; a part on
    # another object than its summand is refused
    t = edge()
    space = trivial_space(ctx, t)
    first = identity_block(ctx, t, inclusion(t, t))
    seen = count_validations(monkeypatch, first.wedge)
    for dom in (t, edge()):
        # an equal table in a new object, out of t itself or out of a copy
        m = SMorphism(dom, t, inclusion(t, t).rows)
        term = IdealTerm(first.parts[0].terms[0].pi, m)
        part = BlockPart(first.parts[0].level, [term])
        twin = Block(first.f, [part])
        w = FiltrationWitness(0, [(1, first), (1, twin)])
        seen.clear()
        if dom is t:
            assert verify_witness(2 * singleton(inclusion(t, t)), w, 0, space)
            assert not seen
        else:
            # a part is glued only on the summand object itself
            with pytest.raises(SimplicialError, match="is not on the summand"):
                verify_witness(2 * singleton(inclusion(t, t)), w, 0, space)


def test_wedge_witness_validates_a_repeated_decomposition_once(ctx, monkeypatch):
    # one factor holds two entries with the same f and different parts; the
    # two output blocks they make share one decomposition, glued once.  It
    # glues based maps into one wedge, so it is validated here, not where
    # it is built
    t = edge()
    first = identity_block(ctx, t, inclusion(t, t))
    constant = constant_morphism(t, t, t.basepoint)
    term = IdealTerm(first.parts[0].terms[0].pi, constant)
    part = BlockPart(first.parts[0].level, [term])
    second = Block(first.f, [part])
    other = identity_block(ctx, t, inclusion(t, t))
    wobj = wedge([t, t])
    seen = count_builds(monkeypatch, wobj)
    w = wedge_witness(
        [
            FiltrationWitness(0, [(1, first), (1, second)]),
            FiltrationWitness(0, [(1, other)]),
        ],
        wobj,
        ctx,
    )
    assert len(w.entries) == 2
    assert len(seen) == 1
    seen[0]._validate()
    assert w.entries[0][1].f is w.entries[1][1].f is seen[0]
    assert w.entries[0][1].parts[0] is not w.entries[1][1].parts[0]


def test_map_witness_rejects_nonequivariant_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_map_witness_rejects_nonequivariant")


def test_pspace_rejects_unbased_action_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_pspace_rejects_unbased_action")


def test_witness_arithmetic_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_witness_sum_concatenates_and_difference_compacts")


def test_forged_degenerate_row_rejected_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_forged_degenerate_row_rejected_at_construction")


def test_zero_block_rule_and_pipelines_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_a_zero_block_fails_until_dropped",
        f"{__file__}::test_verify_witness_detects_tampering",
        f"{__file__}::test_restrict_witness_pipeline",
        f"{__file__}::test_restrict_witness_identity",
        f"{__file__}::test_map_witness_pipeline",
        f"{__file__}::test_cone_witness_pipeline",
        f"{__file__}::test_wedge_witness_pipeline",
        f"{__file__}::test_transform_chain_preserves_validity",
    )
