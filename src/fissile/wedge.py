"""The wedge of suspended thick simplices, its subset-monoid action, and the
inductive construction of fissile morphism ensembles with checkable witnesses.

For an index set I, the main space is the wedge, over all subsets J of I,
of the suspended thick simplex on the letters I minus J.  The monoid of
subsets acts by moving the component at J to the component at K meet J
along the letter inclusion.  Over the coned barycentric subdivisions of the
faces of a ground simplex, constant-at-top-vertex morphisms are bent, by a
lift-and-fill induction, into fissile ensembles whose alternating sums are
witnessed deep in the block filtration.
"""

import functools

from .canon import ckey
from .chained import SubsetMonoid, covers, omega, proper_covers, subset_key, subsets_of
from .ensembles import (
    Ensemble,
    augmentation,
    combining_product,
    map_ensemble,
    singleton,
)
from .layouts import GuardExceeded, LayoutLattice, guard_setting, layout_key
from .posets import Section, extend_to, nabla_inverse
from .simplicial import (
    BASE,
    TOP,
    ContractionTower,
    SMorphism,
    barycentric,
    canonical_retraction,
    compose,
    cone,
    constant_morphism,
    inclusion,
    invert_iso,
    layout_complex,
    plus_base,
    plus_base_iso,
    point,
    reduced_cone,
    restrict_to,
    subsimplicial,
    suspension_inclusion,
    tabulate,
    wedge,
    wedge_combine,
)
from .witnesses import (
    Block,
    BlockPart,
    FiltrationWitness,
    IdealTerm,
    PairScope,
    PSpace,
    WitnessReport,
    compact_witness,
    cone_witness,
    drop_zero_blocks,
    map_witness,
    once,
    require_based,
    restrict_witness,
    verify_witness,
    wedge_witness,
)


def construction_guard(i_set, e_set):
    """Raise GuardExceeded unless |I| and |E| are within the guards (2 and 2
    by default), or (|I|, |E|) is (3, 1) and the guards admit (2, 1)."""
    max_i = guard_setting("FISSILE_MAX_CONSTRUCT_I", 2)
    max_e = guard_setting("FISSILE_MAX_CONSTRUCT_E", 2)
    i_n, e_n = len(i_set), len(e_set)
    if i_n <= max_i and e_n <= max_e:
        return
    if (i_n, e_n) == (3, 1) and max_i >= 2 and max_e >= 1:
        return
    raise GuardExceeded(
        f"construction sizes |I|={i_n}, |E|={e_n} exceed the configured guard"
    )


def _entry(kind, *normalise):
    """Memoise a context method in the run table under (kind, *args), each
    argument first put in normal form by its function in ``normalise``; the
    arguments past those, objects among them, are used as they are."""

    def wrap(build):
        @functools.wraps(build)
        def method(self, *args):
            key = (kind,) + tuple(f(a) for f, a in zip(normalise, args))
            key += args[len(normalise) :]
            return self.once(key, lambda: build(self, *key[1:]))

        return method

    return wrap


class WedgeContext:
    """All shared objects for one (index set, ground set) run, each built
    once, in one memo table, whichever of the builder and the checker asks
    first.

    The truncation bound is one above the ground-set size so that every
    reduced-cone domain appearing in witness transports keeps its
    nondegenerate simplices within the stored levels.

    Artifacts name objects by their labels, nested tuples whose first entry
    is the kind; :meth:`obj` rebuilds an object from its label through the
    same constructors the builder calls, so a label resolves to the very
    object that carries it.  A layout or subset in a label may come in any
    order.  The labels read from files are the domains of morphism records:

    - ``("conelayout", b)``: the coned subdivision of the layout b;
    - ``("plusbase", f)``: the based subdivision of the face f in its cone;
    - ``("point",)``: the one-vertex domain of constant witnesses;
    - ``("redcone", x)``: the reduced cone of the object labelled x.

    Every other object is named by what reads it, never by a label: a
    wedge, ``("wedge", labels)``, is :meth:`wedge_of` its summands, and the
    space at l, whose object is labelled ``("WL", l)``, is :meth:`space`
    of l; at l = I it is the full space, one object.

    An entry is keyed by its kind and arguments, by the rule of
    :func:`~fissile.witnesses.once`: a labelled object by its label, the
    wedges and reduced cones of given objects by those objects, so the hot
    wedge lookup hashes no nested label.
    """

    def __init__(self, i_set, e_set):
        self.i_set = subset_key(i_set)
        self.e_set = subset_key(e_set)
        if not self.e_set:
            raise ValueError("ground set must be nonempty")
        self.bound = len(self.e_set) + 1
        self.monoid = SubsetMonoid(self.i_set)
        self._table = {}
        self.components = subsets_of(self.i_set)
        self.towers = {
            j: ContractionTower(tuple(sorted(set(self.i_set) - set(j))), self.bound)
            for j in self.components
        }
        parts = [self.towers[j].susp for j in self.components]
        self.w_obj = wedge(parts, label=("WL", self.i_set))
        action = {k: self._action_table(k) for k in self.monoid.elements}
        self.full_space = PSpace(self.w_obj, self.monoid, action)

    # -- objects from their labels -----------------------------------------

    def once(self, key, build):
        """:func:`~fissile.witnesses.once` in the run table."""
        return once(self._table, key, build)

    def obj(self, label):
        """The object that carries this label (see the class docstring)."""
        match label:
            case ("conelayout", b):
                return self.cone_layout(b)
            case ("plusbase", f):
                return self.plus_base_of(f)
            case ("point",):
                return self.point_obj()
            case ("redcone", inner):
                return self.reduced_domain(self.obj(inner))[0]
        raise TypeError(f"{label!r} names no object")

    # -- wedges and reduced cones of given objects -------------------------

    def wedge_of(self, parts):
        """The wedge of these part objects, labelled ``("wedge", labels)``."""
        return self.once(("wedge", tuple(parts)), lambda: wedge(parts))

    @_entry("shift")
    def summand_shift(self, part_wedge, whole, start) -> SMorphism:
        """part_wedge moved into the summands of the wedge whole from
        ``start`` on: the gluing of their insertions."""
        ins = whole.insertions[start : start + len(part_wedge.insertions)]
        return wedge_combine(part_wedge, ins)

    @_entry("redcone")
    def reduced_domain(self, t) -> tuple:
        """The ``reduced_cone`` tuple of t."""
        return reduced_cone(t)

    @_entry("redspace")
    def reduced_space(self, space: PSpace) -> tuple:
        """The reduced cone of a space, with its ``reduced_cone`` tuple."""
        red = self.reduced_domain(space.obj)
        # elements acting by equal tables share one cone map
        scope = PairScope()
        action = {
            k: scope.reduced_cone_map(space.action[k], red, red)
            for k in self.monoid.elements
        }
        return PSpace(red[0], self.monoid, action, check=False), red

    # -- component plumbing --------------------------------------------

    @_entry("susp")
    def _susp_map(self, j_from, j_to) -> SMorphism:
        """Component map induced by the letter inclusion, for j_to <= j_from."""
        return suspension_inclusion(self.towers[j_from], self.towers[j_to])

    def _action_table(self, k):
        """The action of k: the component at j moved to the one at k meet j
        by the letter inclusion."""
        meets = [self.monoid.op(k, j) for j in self.components]
        ins = [self.w_obj.insertions[self.components.index(m)] for m in meets]
        parts = map(compose, ins, map(self._susp_map, self.components, meets))
        return wedge_combine(self.w_obj, list(parts))

    @_entry("WL", subset_key)
    def sub_obj(self, l_key):
        """The wedge of the components at subsets of l, inside the full one;
        at l = I the full wedge itself."""
        if l_key == self.i_set:
            return self.w_obj
        allowed = {idx for idx, j in enumerate(self.components) if set(j) <= set(l_key)}

        def member(n, x):
            return x == self.w_obj.basepoint_at(n) or x[0] in allowed

        return subsimplicial(
            self.w_obj, member, basepoint=self.w_obj.basepoint, label=("WL", l_key)
        )

    @_entry("space", subset_key)
    def space(self, l_key) -> PSpace:
        """The space at l: each full action table's rows cut down to the wedge
        at l and validated there, so a value outside it fails; the monoid
        laws, checked once on the full space, hold on any subset it maps
        into itself."""
        if l_key == self.i_set:
            return self.full_space
        obj = self.sub_obj(l_key)
        full = self.full_space.action
        action = {k: restrict_to(full[k], obj, obj) for k in full}
        return PSpace(obj, self.monoid, action, check=False)

    # -- domain side -----------------------------------------------------

    @_entry("conelayout", layout_key)
    def cone_layout(self, b):
        """The coned barycentric subdivision of the disjoint faces of b."""
        bary = barycentric(layout_complex(b), self.bound)
        return cone(bary, 0, label=("conelayout", b))

    def cone_face(self, f):
        return self.cone_layout(layout_key([f]))

    @_entry("plusbase", subset_key)
    def plus_base_of(self, f):
        return plus_base(self.cone_face(f), label=("plusbase", f))

    @_entry("plusiso", subset_key)
    def plus_iso(self, f) -> SMorphism:
        """Isomorphism from the coned subdivision to the reduced cone of its
        base-plus-apex subset."""
        return plus_base_iso(
            self.cone_face(f), self.reduced_domain(self.plus_base_of(f))
        )

    @_entry("retraction", layout_key, layout_key)
    def retraction(self, a, b) -> SMorphism:
        """Canonical retraction between coned layout subdivisions, a >= b."""
        return canonical_retraction(
            layout_complex(a),
            layout_complex(b),
            self.bound,
            cone_k=self.cone_layout(a),
            cone_l=self.cone_layout(b),
        )

    def layout_inclusion(self, b, a) -> SMorphism:
        """Inclusion of coned layout subdivisions for a >= b (shared keys)."""
        return inclusion(self.cone_layout(b), self.cone_layout(a))

    def base_inclusion(self, f) -> SMorphism:
        """Inclusion of the based subdivision of a face into its coned one."""
        return inclusion(self.plus_base_of(f), self.cone_face(f))

    @_entry("iota", layout_key)
    def iota(self, b):
        """Isomorphism from a coned layout subdivision to the wedge of its
        per-block cones."""
        wobj = self.wedge_of([self.cone_face(g) for g in b])
        inclusions = [self.layout_inclusion((g,), b) for g in b]
        return invert_iso(wedge_combine(wobj, inclusions))

    # -- morphisms into the wedge -----------------------------------------

    @_entry("xi", subset_key, subset_key)
    def xi(self, j, f) -> SMorphism:
        """Constant morphism at the top vertex of the component at j, on the
        based subdivision of the face f."""
        t = self.plus_base_of(f)
        ins = self.w_obj.insertions[self.components.index(j)]
        susp = self.towers[j].susp
        tops = [ins(n, susp.degenerate_vertex(TOP, n)) for n in range(self.bound + 1)]
        bps, wbps = t.basepoint_levels(), self.w_obj.basepoint_levels()
        out = tabulate(
            t, self.sub_obj(j), lambda n, x: wbps[n] if x == bps[n] else tops[n]
        )
        require_based(out, "top-vertex")
        return out

    @_entry("contraction", subset_key)
    def contraction(self, l_key, letter) -> SMorphism:
        """The componentwise contraction from the reduced cone of the wedge
        at l back to the wedge; the letter must avoid l."""
        if letter in l_key:
            raise ValueError("contraction letter must lie outside the subset")
        space = self.space(l_key)
        red_obj = self.reduced_space(space)[1][0]
        wl = space.obj

        def value(n, x):
            if x == red_obj.basepoint_at(n):
                return wl.basepoint_at(n)
            t, (idx, z) = x
            tower = self.towers[self.components[idx]]
            key = (t, z) if tower.reduced[0].has(n, (t, z)) else BASE
            img = tower.contraction(letter)(n, key)
            if img == tower.susp.basepoint_at(n):
                return wl.basepoint_at(n)
            return (idx, img)

        sigma = tabulate(red_obj, wl, value)
        require_based(sigma, "contraction")
        return sigma

    def filling(self, v: SMorphism, letter, l_key, scope=None) -> SMorphism:
        """Extend a based morphism on a based face subdivision over the whole
        coned subdivision, contracting along the chosen letter; the cone of
        v comes from the scope."""
        f = v.domain.label[1]
        red_t = self.reduced_domain(self.plus_base_of(f))
        red_space = self.reduced_space(self.space(l_key))[1]
        scope = scope if scope is not None else PairScope()
        cv = scope.reduced_cone_map(v, red_t, red_space)
        sigma = self.contraction(l_key, letter)
        return compose(sigma, compose(cv, self.plus_iso(f)))

    # -- witness building blocks --------------------------------------------

    @_entry("point")
    def point_obj(self):
        """The one-vertex domain of the part of every constant witness."""
        return point(self.bound, label=("point",))

    def constant_witness(self, t_obj, space: PSpace) -> FiltrationWitness:
        """Rank-0 witness for <constant basepoint morphism> on t."""
        pt = self.point_obj()
        const = constant_morphism(pt, space.obj, space.obj.basepoint)
        wobj = self.wedge_of([pt])
        f = constant_morphism(t_obj, wobj, wobj.basepoint)
        part = BlockPart(level=0, terms=[IdealTerm(singleton(self.i_set), const)])
        return FiltrationWitness(0, [(1, Block(f, [part]))])

    def omega_witness(self, j, f) -> FiltrationWitness:
        """Witness for omega(j) . <xi(j, f)> in the space at j, as one block
        of rank |j| over the based subdivision of the face f."""
        morphism = self.xi(j, f)
        wobj = self.wedge_of([morphism.domain])
        part = BlockPart(level=len(j), terms=[IdealTerm(omega(j), morphism)])
        return FiltrationWitness(len(j), [(1, Block(wobj.insertions[0], [part]))])


def restrict_ensemble(s: Ensemble, k: SMorphism) -> Ensemble:
    return map_ensemble(lambda v: compose(v, k), s)


def combine_over_layout(ctx: WedgeContext, b, parts_by_block, scope=None) -> Ensemble:
    """Combining product of per-block morphism ensembles, landing on the
    coned subdivision of the layout; the gluings come from the scope."""
    b = layout_key(b)
    if not b:
        return singleton(
            constant_morphism(ctx.cone_layout(()), ctx.w_obj, ctx.w_obj.basepoint)
        )
    iota = ctx.iota(b)
    scope = scope if scope is not None else PairScope()
    return combining_product(
        [parts_by_block[g] for g in b],
        lambda tup: scope.compose(scope.glue(iota.codomain, tup, ctx.w_obj), iota),
    )


def combine_witnesses_over_layout(ctx, b, witnesses, space) -> FiltrationWitness:
    """Witness for the layout combining product; ranks add."""
    b = layout_key(b)
    if not b:
        return ctx.constant_witness(ctx.cone_layout(()), space)
    iota = ctx.iota(b)
    return restrict_witness(wedge_witness(witnesses, iota.codomain, ctx), iota)


def cover_witness(ctx, b, cover_fns, witness_at, space, level, scope):
    """The compacted witness at ``level`` summing, over the cover functions
    (one subset per block of the layout b), the combining product over b
    of the witnesses ``witness_at(g, k)`` pushed into the space.

    Each factor, one per distinct (g, k, target space and ``witness_at``),
    is compacted, pushed, compacted again and rid of its zero blocks once
    per scope, before the product is expanded, so the layouts of one pair,
    or of one q run, share it.  This gives the witness that compacting the
    expansion of the uncompacted factors gives, less its zero blocks.  The
    push and the expansion are linear in each factor, so merging equal
    entries of a factor first only sums coefficients that the final merge
    sums anyway.  Key-equal entries push to key-equal entries, as the push
    composes every part term with one morphism; and blocks built from
    key-equal factor entries have equal decompositions f (their rows are
    equal) and equal part keys, so the final merge joins them.  A product
    block's value is the combining product, over the wedge, of its factor
    blocks' values, restricted along an isomorphism; a map out of a wedge
    is the tuple of its restrictions to the summands, so that product is
    zero exactly when a factor is.  Each merge keeps its entries in
    first-occurrence order, so the surviving entries come out in the same
    order."""

    def factor(g, k):
        def build():
            small = ctx.space(k)
            inc = inclusion(small.obj, space.obj)
            w = compact_witness(witness_at(g, k))
            pushed = compact_witness(map_witness(w, inc, small, space, scope))
            return drop_zero_blocks(pushed, space, scope)

        return scope.once(("factor", witness_at, space, g, k), build)

    entries = []
    for fn in cover_fns:
        per_block = [factor(g, k) for g, k in zip(b, fn)]
        entries.extend(combine_witnesses_over_layout(ctx, b, per_block, space).entries)
    return compact_witness(FiltrationWitness(level, entries))


# -- the construction conditions -------------------------------------------
#
# Each condition has this one definition.  The builder evaluates it on the
# ensembles it has just made and raises VerificationError when it fails; the
# artifact checker evaluates it on the ensembles read back from files.
# ``p(g, k)`` is the pair ensemble at the face g and the index subset k.


class VerificationError(Exception):
    """A construction condition failed; the message names the condition and
    the pair or layout it failed on."""


def extend_over(pi: Ensemble, value_of) -> Ensemble:
    """Linear extension of ``value_of`` from subsets to the monoid-ring
    element pi."""
    total = Ensemble.zero()
    for k, c in pi.terms.items():
        total = total + c * value_of(k)
    return total


def boundary_defect(ctx: WedgeContext, s: Ensemble, f, j) -> Ensemble:
    """The constant morphism at the top vertex of the component at j, minus
    the restriction of s, on the based subdivision of the face f."""
    return singleton(ctx.xi(j, f)) - restrict_ensemble(s, ctx.base_inclusion(f))


def constant_restriction_holds(ctx: WedgeContext, p, f, j) -> bool:
    """Condition 1: p(f, j) restricts to the constant morphism on the based
    subdivision of f."""
    return not boundary_defect(ctx, p(f, j), f, j)


def multiplicative_restriction_holds(ctx: WedgeContext, p, f, j, b, scope) -> bool:
    """Condition 0 at the layout b of f: p(f, j) restricts to the combining
    product of the p(g, j) over the blocks g of b, glued in the scope."""
    got = restrict_ensemble(p(f, j), ctx.layout_inclusion(b, layout_key([f])))
    return got == combine_over_layout(ctx, b, {g: p(g, j) for g in b}, scope)


def alternating_sum(p, f, j) -> Ensemble:
    """The sum over subsets k of j of (-1)^(|j|-|k|) p(f, k); condition 2
    asks for a witness of it at level |j|."""
    return extend_over(omega(j), lambda k: p(f, k))


def proper_alternating_sum(p, f, j) -> Ensemble:
    """p(f, j) minus its alternating sum: the signed sum of the p(f, k) over
    the proper subsets k of j."""
    return extend_over(singleton(j) - omega(j), lambda k: p(f, k))


def layout_defect(ctx: WedgeContext, q: Ensemble, a, scope) -> Ensemble:
    """The combining product over the layout a of the restrictions of q to
    its blocks, glued in the scope, minus the restriction of q to a."""
    top = layout_key([ctx.e_set])
    per_block = {
        g: restrict_ensemble(q, ctx.layout_inclusion(layout_key([g]), top))
        for g in a
    }
    return combine_over_layout(ctx, a, per_block, scope) - restrict_ensemble(
        q, ctx.layout_inclusion(a, top)
    )


def pair_checks(ctx: WedgeContext, p, f, j, alt_witness, scope=None):
    """Conditions 0, 1 and 2 of the pair (f, j) as (check name, ok); the
    layout gluings and the witness go through the pair's scope.  ok is True
    when the check holds, so a reader that asks ``ok is True`` counts it,
    and otherwise a failed WitnessReport that says why; the witness's is
    ``verify_witness``'s own, its zero-block rule among its checks."""
    scope = scope if scope is not None else PairScope()
    tag = f"F={f} J={j}"
    yield f"constant-restriction {tag}", constant_restriction_holds(
        ctx, p, f, j
    ) or WitnessReport("the restriction to the based subdivision is not constant")
    bad = [
        b
        for b in LayoutLattice(f, bound=len(f)).layouts
        if not multiplicative_restriction_holds(ctx, p, f, j, b, scope)
    ]
    yield f"multiplicative-restriction {tag}", not bad or WitnessReport(
        f"the restrictions to the layouts {bad} are not their glued products"
    )
    yield f"alternating-sum-witness {tag}", verify_witness(
        alternating_sum(p, f, j), alt_witness, len(j), ctx.space(j), scope
    )


def q_checks(
    ctx: WedgeContext, q: Ensemble, layout_witnesses, boundary_witness, scope=None
):
    """The augmentation, layout-defect and boundary-defect claims for q as
    (check name, ok), ok as in :func:`pair_checks`; ``layout_witnesses``
    yields (layout, witness) pairs.  Every witness is evaluated through one
    scope, the q run's."""
    scope = scope if scope is not None else PairScope()
    level = len(ctx.i_set)
    aug = augmentation(q)
    yield f"augmentation I={ctx.i_set} E={ctx.e_set}", aug == 1 or WitnessReport(
        f"augmentation {aug}, not 1"
    )
    for a, wit in layout_witnesses:
        yield f"layout-defect-witness A={a}", verify_witness(
            layout_defect(ctx, q, a, scope), wit, level, ctx.full_space, scope
        )
    boundary = boundary_defect(ctx, q, ctx.e_set, ctx.i_set)
    yield "boundary-witness", verify_witness(
        boundary, boundary_witness, level, ctx.full_space, scope
    )


def _require_all(checks):
    for name, ok in checks:
        if not ok:
            raise VerificationError(f"{name} failed: {ok.diagnostic}")


class PairRecord:
    __slots__ = ("ensemble", "alt_witness")

    def __init__(self, ensemble: Ensemble, alt_witness: FiltrationWitness):
        self.ensemble, self.alt_witness = ensemble, alt_witness


class ConstructionResult:
    __slots__ = ("ctx", "pairs")

    def __init__(self, ctx: WedgeContext):
        self.ctx, self.pairs = ctx, {}


def pair_claims(i_set, e_set):
    """Every pair (F, J), F a nonempty face of E and J a proper subset of I,
    in induction order: faces, then subsets, by size and then ``ckey``."""
    order = functools.partial(sorted, key=lambda s: (len(s), ckey(s)))
    faces = order(f for f in subsets_of(e_set) if f)
    proper = order(j for j in subsets_of(i_set) if j != subset_key(i_set))
    return [(f, j) for f in faces for j in proper]


def construct_p(i_set, e_set, enforce_guard=True) -> ConstructionResult:
    """Run the full induction over (face, subset) pairs.

    For each pair the constructed ensemble restricts multiplicatively to
    every layout of its face (condition 0), restricts to the constant
    morphism on the based subdivision (condition 1), and its alternating
    sum over subsets carries a verified witness at level the subset size
    (condition 2).  A failed condition raises VerificationError.
    """
    i_set, e_set = subset_key(i_set), subset_key(e_set)
    if not i_set:
        raise ValueError("the construction needs a nonempty index set")
    if enforce_guard:
        construction_guard(i_set, e_set)
    ctx = WedgeContext(i_set, e_set)
    result = ConstructionResult(ctx=ctx)
    for f, j in pair_claims(i_set, e_set):
        _construct_pair(ctx, result.pairs, f, j)
    return result


def _construct_pair(ctx: WedgeContext, pairs, f, j) -> PairRecord:
    """Build the pair (f, j) and check it by ``pair_checks``, as the checker
    does.  The ensemble family and the witness family are lifted apart, so
    condition 2 compares two computations.  Its transports and conditions
    share one scope, dropped when this returns."""

    def p(g, k):
        return pairs[(g, k)].ensemble

    def alt(g, k):
        return pairs[(g, k)].alt_witness

    scope = PairScope()
    space_j = ctx.space(j)
    lat = LayoutLattice(f, bound=len(f))
    top = lat.top
    proper_layouts = [b for b in lat.layouts if b != top]

    # families over the proper layouts: alternating sums of combined parts
    u_vals, u_wits = Section(), Section()
    for b in proper_layouts:
        u_vals[b] = extend_over(
            omega(j),
            lambda k: combine_over_layout(ctx, b, {g: p(g, k) for g in b}, scope),
        )
        fns = covers(len(b), j)
        u_wits[b] = cover_witness(ctx, b, fns, alt, space_j, len(j), scope)

    # lift the compatible family through the inverse transform
    punctured = lat.poset().without(top)

    def along(move, k):
        """Precompose with k(a, b), for a >= b, by ``move``: restrict along
        the inclusion of b, or extend along the retraction onto b."""
        return lambda a, b, x: move(x, k(a, b))

    def inclusion_of(a, b):
        return ctx.layout_inclusion(b, a)

    v_vals = nabla_inverse(punctured, along(restrict_ensemble, inclusion_of), u_vals)
    v_wits = nabla_inverse(punctured, along(restrict_witness, inclusion_of), u_wits)
    u_lift = extend_to(top, punctured, along(restrict_ensemble, ctx.retraction), v_vals)
    u_wit = drop_zero_blocks(
        compact_witness(
            extend_to(top, punctured, along(restrict_witness, ctx.retraction), v_wits)
        ),
        space_j,
        scope,
    )

    # bend the boundary defect flat with the filling
    r_ens = proper_alternating_sum(p, f, j) + u_lift
    delta = boundary_defect(ctx, r_ens, f, j)
    delta_wit = drop_zero_blocks(
        ctx.omega_witness(j, f) - restrict_witness(u_wit, ctx.base_inclusion(f)),
        space_j,
        scope,
    )

    letter = sorted(set(ctx.i_set) - set(j))[0]
    chi_delta = map_ensemble(lambda v: ctx.filling(v, letter, j, scope), delta)

    chi_wit = restrict_witness(
        map_witness(
            cone_witness(delta_wit, space_j, ctx, scope),
            ctx.contraction(j, letter),
            ctx.reduced_space(space_j)[0],
            space_j,
            scope,
        ),
        ctx.plus_iso(f),
    )
    alt_wit = compact_witness(u_wit + chi_wit)
    record = PairRecord(ensemble=r_ens + chi_delta, alt_witness=alt_wit)
    pairs[(f, j)] = record
    _require_all(pair_checks(ctx, p, f, j, alt_wit, scope))
    return record


class AlmostFissileRecord:
    __slots__ = ("ensemble", "layout_witnesses", "boundary_witness")

    def __init__(self, ensemble: Ensemble, layout_witnesses: dict, boundary_witness):
        self.ensemble = ensemble
        self.layout_witnesses = layout_witnesses
        self.boundary_witness = boundary_witness


def construct_q(result: ConstructionResult) -> AlmostFissileRecord:
    """Assemble the alternating combination of the final ensembles; every
    layout defect and the boundary defect receive verified witnesses at
    level the index-set size.  A failed claim raises VerificationError.
    The run's transports and checks share one scope."""
    ctx = result.ctx
    scope = PairScope()
    i_set, e_set = ctx.i_set, ctx.e_set
    q_ens = proper_alternating_sum(
        lambda g, k: result.pairs[(g, k)].ensemble, e_set, i_set
    )

    lat = LayoutLattice(e_set, bound=len(e_set))
    top = lat.top
    witnesses = {}

    def witness_at(g, k):
        # restricting before the push gives the same blocks: a restriction
        # precomposes f and a push maps the parts
        return restrict_witness(
            result.pairs[(e_set, k)].alt_witness,
            ctx.layout_inclusion(layout_key([g]), top),
        )

    for a in lat.layouts:
        fns = proper_covers(len(a), i_set)
        witnesses[a] = cover_witness(
            ctx, a, fns, witness_at, ctx.full_space, len(i_set), scope
        )

    bwit = compact_witness(ctx.omega_witness(i_set, e_set))
    _require_all(q_checks(ctx, q_ens, witnesses.items(), bwit, scope))
    return AlmostFissileRecord(
        ensemble=q_ens, layout_witnesses=witnesses, boundary_witness=bwit
    )
