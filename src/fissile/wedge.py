"""The wedge of suspended thick simplices, its subset-monoid action, and the
inductive construction of fissile morphism ensembles with full certificates.

For an index set I, the main space is the wedge, over all subsets J of I,
of the suspended thick simplex on the letters I minus J.  The monoid of
subsets acts by moving the component at J to the component at K meet J
along the letter inclusion.  Over the coned barycentric subdivisions of the
faces of a ground simplex, constant-at-top-vertex morphisms are bent, by a
lift-and-fill induction, into fissile ensembles whose alternating sums are
certified deep in the block filtration.
"""

import os
from dataclasses import dataclass, field

from .canon import ckey
from .chained import (
    SubsetMonoid,
    ideal_membership,
    omega,
    subset_key,
    subsets_of,
)
from .ensembles import (
    Ensemble,
    augmentation,
    combining_product,
    map_ensemble,
    singleton,
)
from .identities import covers, proper_covers
from .layouts import GuardExceeded, LayoutLattice, layout_key
from .posets import Section, check_compatible, nabla_inverse
from .simplicial import (
    ContractionTower,
    SMorphism,
    barycentric,
    canonical_retraction,
    compose,
    cone,
    cone_map,
    constant_morphism,
    inclusion,
    induce_through,
    layout_complex,
    plus_base,
    plus_base_iso,
    point,
    reduced_cone_map,
    subsimplicial,
    suspension_top_at,
    wedge,  # noqa: F401  (a binding that perfbench/spans.py wraps)
    wedge_combine,
)
from .witnesses import (
    Block,
    BlockPart,
    FiltrationWitness,
    IdealTerm,
    PSpace,
    SpaceRegistry,
    cone_witness,
    map_witness,
    restrict_witness,
    verify_witness,
    wedge_witness,
)


def construction_guard(i_set, e_set):
    max_i = int(os.environ.get("FISSILE_MAX_CONSTRUCT_I", 2))
    max_e = int(os.environ.get("FISSILE_MAX_CONSTRUCT_E", 2))
    i_n, e_n = len(i_set), len(e_set)
    if i_n <= max_i and e_n <= max_e:
        return
    if i_n == 3 and e_n == 1 and max_i <= 3:
        return
    raise GuardExceeded(
        f"construction sizes |I|={i_n}, |E|={e_n} exceed the configured guard"
    )


class WedgeContext:
    """All shared objects for one (index set, ground set) run.

    The truncation bound is one above the ground-set size so that every
    reduced-cone domain appearing in witness transports keeps its
    nondegenerate simplices within the stored levels.
    """

    def __init__(self, i_set, e_set, bound=None):
        self.i_set = subset_key(i_set)
        self.e_set = subset_key(e_set)
        if not self.e_set:
            raise ValueError("ground set must be nonempty")
        self.bound = (len(self.e_set) + 1) if bound is None else bound
        self.monoid = SubsetMonoid(self.i_set)
        self.registry = SpaceRegistry(self.monoid)
        self.components = subsets_of(self.i_set)
        self.towers = {
            j: ContractionTower(tuple(sorted(set(self.i_set) - set(j))), self.bound)
            for j in self.components
        }
        parts = [self.towers[j].susp for j in self.components]
        self.w_obj, self.w_insertions = self.registry.wedge(
            parts, label=("W", self.i_set)
        )
        self._susp_maps = {}
        self._spaces = {}
        self._sub_objs = {}
        self._proper_space = None
        self._cones = {}
        self._plus = {}
        self._plus_iso = {}
        self._rho = {}
        self._iota = {}
        self._sigma = {}
        self._xi = {}
        self._identity_cert = None
        self._omega_certs = {}
        self._point = None
        self.full_space = self._build_full_space()

    # -- component plumbing --------------------------------------------

    def _susp_map(self, j_from, j_to) -> SMorphism:
        """Component map induced by the letter inclusion, for j_to <= j_from."""
        key = (j_from, j_to)
        if key not in self._susp_maps:
            t_from, t_to = self.towers[j_from], self.towers[j_to]
            cone_inc = cone_map(
                inclusion(t_from.thick, t_to.thick),
                1,
                cdom=t_from.hat_cone,
                ccod=t_to.hat_cone,
            )
            self._susp_maps[key] = induce_through(
                t_from.susp_proj, compose(t_to.susp_proj, cone_inc)
            )
        return self._susp_maps[key]

    def _action_table(self, k):
        maps = []
        for n in range(self.bound + 1):
            level = {self.w_obj.basepoint_at(n): self.w_obj.basepoint_at(n)}
            for idx, j in enumerate(self.components):
                j2 = self.monoid.op(k, j)
                idx2 = self.components.index(j2)
                smap = self._susp_map(j, j2)
                target = self.towers[j2].susp
                for x in self.towers[j].susp.level(n):
                    key = self.w_insertions[idx].maps[n][x]
                    if key == self.w_obj.basepoint_at(n):
                        continue
                    y = smap.maps[n][x]
                    level[key] = (
                        self.w_obj.basepoint_at(n)
                        if y == target.basepoint_at(n)
                        else (idx2, y)
                    )
            maps.append(level)
        return SMorphism(self.w_obj, self.w_obj, maps)

    def _build_full_space(self) -> PSpace:
        action = {k: self._action_table(k) for k in self.monoid.elements}
        return PSpace(self.w_obj, self.monoid, action, label=("WL", self.i_set))

    def _components_obj(self, keep, label):
        """The wedge of the components at the subsets satisfying ``keep``,
        inside the full one."""
        allowed = {idx for idx, j in enumerate(self.components) if keep(j)}

        def member(n, x):
            return x == self.w_obj.basepoint_at(n) or x[0] in allowed

        return subsimplicial(
            self.w_obj, member, basepoint=self.w_obj.basepoint, label=label
        )

    def _restricted_space(self, obj) -> PSpace:
        """A components subobject with the full action cut down to it."""
        action = {}
        for k, big in self.full_space.action.items():
            maps = [
                {x: big.maps[n][x] for x in level}
                for n, level in enumerate(obj.simplices)
            ]
            action[k] = SMorphism(obj, obj, maps)
        return PSpace(obj, self.monoid, action)

    def sub_obj(self, l_key):
        """The wedge of the components at subsets of l, inside the full one."""
        l_key = subset_key(l_key)
        if l_key not in self._sub_objs:
            self._sub_objs[l_key] = self._components_obj(
                lambda j: set(j) <= set(l_key), ("WL", l_key)
            )
        return self._sub_objs[l_key]

    def space(self, l_key) -> PSpace:
        l_key = subset_key(l_key)
        if l_key == self.i_set:
            return self.full_space
        if l_key not in self._spaces:
            self._spaces[l_key] = self._restricted_space(self.sub_obj(l_key))
        return self._spaces[l_key]

    def proper_space(self) -> PSpace:
        """Components at proper subsets only."""
        if self._proper_space is None:
            self._proper_space = self._restricted_space(
                self._components_obj(lambda j: j != self.i_set, ("Wx", self.i_set))
            )
        return self._proper_space

    # -- domain side -----------------------------------------------------

    def cone_layout(self, b):
        """The coned barycentric subdivision of the disjoint faces of b."""
        b = layout_key(b)
        if b not in self._cones:
            self._cones[b] = cone(
                barycentric(layout_complex(b), self.bound),
                0,
                check=False,
            )
            self._cones[b].label = ("conelayout", b)
        return self._cones[b]

    def cone_face(self, f):
        return self.cone_layout(layout_key([f]))

    def plus_base_of(self, f):
        f = subset_key(f)
        if f not in self._plus:
            self._plus[f] = plus_base(
                self.cone_face(f), label=("plusbase", f)
            )
        return self._plus[f]

    def plus_iso(self, f) -> SMorphism:
        """Isomorphism from the coned subdivision to the reduced cone of its
        base-plus-apex subset."""
        f = subset_key(f)
        if f not in self._plus_iso:
            red = self.registry.reduced_domain(self.plus_base_of(f))
            self._plus_iso[f] = plus_base_iso(self.cone_face(f), red)
        return self._plus_iso[f]

    def retraction(self, a, b) -> SMorphism:
        """Canonical retraction between coned layout subdivisions, a >= b."""
        a, b = layout_key(a), layout_key(b)
        if (a, b) not in self._rho:
            self._rho[(a, b)] = canonical_retraction(
                layout_complex(a),
                layout_complex(b),
                self.bound,
                cone_k=self.cone_layout(a),
                cone_l=self.cone_layout(b),
            )
        return self._rho[(a, b)]

    def layout_inclusion(self, b, a) -> SMorphism:
        """Inclusion of coned layout subdivisions for a >= b (shared keys)."""
        return inclusion(self.cone_layout(b), self.cone_layout(a))

    def base_inclusion(self, f) -> SMorphism:
        """Inclusion of the based subdivision of a face into its coned one."""
        return inclusion(self.plus_base_of(f), self.cone_face(f))

    def iota(self, b):
        """Isomorphism from a coned layout subdivision to the wedge of its
        per-block cones; returns (morphism, wedge object, insertions)."""
        b = layout_key(b)
        if b not in self._iota:
            blocks = list(b)
            wobj, ins = self.registry.wedge(
                [self.cone_face(g) for g in blocks],
                label=("wedgecones", b),
            )
            src = self.cone_layout(b)
            maps = []
            for n in range(self.bound + 1):
                level = {}
                for t, chain in src.level(n):
                    if chain is None:
                        level[(t, chain)] = wobj.basepoint_at(n)
                        continue
                    head = set(chain[0])
                    gi = next(
                        i for i, g in enumerate(blocks) if head <= set(g)
                    )
                    level[(t, chain)] = ins[gi].maps[n][(t, chain)]
                maps.append(level)
            self._iota[b] = (SMorphism(src, wobj, maps), wobj, ins)
        return self._iota[b]

    # -- morphisms into the wedge -----------------------------------------

    def xi(self, j, f) -> SMorphism:
        """Constant morphism at the top vertex of the component at j, on the
        based subdivision of the face f."""
        j, f = subset_key(j), subset_key(f)
        if (j, f) not in self._xi:
            t = self.plus_base_of(f)
            idx = self.components.index(j)
            susp = self.towers[j].susp
            maps = []
            for n in range(self.bound + 1):
                top = suspension_top_at(susp, n)
                tagged = self.w_insertions[idx].maps[n][top]
                level = {}
                for x in t.level(n):
                    if x == t.basepoint_at(n):
                        level[x] = self.w_obj.basepoint_at(n)
                    else:
                        level[x] = tagged
                maps.append(level)
            out = SMorphism(t, self.sub_obj(j), maps)
            assert out.is_based()
            self._xi[(j, f)] = out
        return self._xi[(j, f)]

    def contraction(self, l_key, letter) -> SMorphism:
        """The componentwise contraction from the reduced cone of the wedge
        at l back to the wedge; the letter must avoid l."""
        l_key = subset_key(l_key)
        if letter in l_key:
            raise ValueError("contraction letter must lie outside the subset")
        key = (l_key, letter)
        if key not in self._sigma:
            space = self.space(l_key)
            red_obj = self.registry.reduced_space(space)[1][0]
            wl = space.obj
            maps = []
            for n in range(self.bound + 1):
                level = {}
                for x in red_obj.level(n):
                    if x == red_obj.basepoint_at(n):
                        level[x] = wl.basepoint_at(n)
                        continue
                    t, y = x
                    idx, z = y
                    j = self.components[idx]
                    tower = self.towers[j]
                    cls = tower.reduced[2].maps[n][(t, z)]
                    img = tower.contraction(letter).maps[n][cls]
                    if img == tower.susp.basepoint_at(n):
                        level[x] = wl.basepoint_at(n)
                    else:
                        level[x] = (idx, img)
                maps.append(level)
            sigma = SMorphism(red_obj, wl, maps)
            assert sigma.is_based()
            self._sigma[key] = sigma
        return self._sigma[key]

    def filling(self, v: SMorphism, letter, l_key) -> SMorphism:
        """Extend a based morphism on a based face subdivision over the whole
        coned subdivision, contracting along the chosen letter."""
        l_key = subset_key(l_key)
        f = v.domain.label[1]
        red_t = self.registry.reduced_domain(self.plus_base_of(f))
        red_space_tuple = self.registry.reduced_space(self.space(l_key))
        cv = reduced_cone_map(v, red_t, red_space_tuple[1])
        sigma = self.contraction(l_key, letter)
        return compose(sigma, compose(cv, self.plus_iso(f)))

    # -- certificates ------------------------------------------------------

    def identity_cert(self):
        if self._identity_cert is None:
            self._identity_cert = ideal_membership(
                self.monoid, singleton(self.i_set), 0
            )
        return self._identity_cert

    def omega_cert(self, j):
        j = subset_key(j)
        if j not in self._omega_certs:
            self._omega_certs[j] = ideal_membership(self.monoid, omega(j), len(j))
        return self._omega_certs[j]

    # -- witness building blocks --------------------------------------------

    def point_obj(self):
        """The one-vertex domain of the part of every constant witness."""
        if self._point is None:
            self._point = point(self.bound)
            self._point.label = ("point",)
        return self._point

    def constant_witness(self, t_obj, space: PSpace, coeff=1) -> FiltrationWitness:
        """Rank-0 witness for coeff * <constant basepoint morphism> on t."""
        pt = self.point_obj()
        const = constant_morphism(pt, space.obj, space.obj.basepoint)
        wobj, ins = self.registry.wedge([pt], label=("wedgept",))
        f = constant_morphism(t_obj, wobj, wobj.basepoint)
        part = BlockPart(
            level=0,
            terms=[IdealTerm(singleton(self.i_set), self.identity_cert(), const)],
            domain=pt,
            space=space,
        )
        block = Block(
            f=f, wedge_obj=wobj, insertions=ins, parts=[part], space=space
        )
        return FiltrationWitness(0, [(coeff, block)])

    def singleton_block_witness(
        self, pi, cert, morphism, t_obj, space: PSpace, coeff=1
    ) -> FiltrationWitness:
        """Witness for coeff * (pi . <morphism>) as one block of rank
        cert.level over its own domain."""
        dom = morphism.domain
        wobj, ins = self.registry.wedge([dom], label=("wedge1", dom.label))
        part = BlockPart(
            level=cert.level,
            terms=[IdealTerm(pi, cert, morphism)],
            domain=dom,
            space=space,
        )
        block = Block(
            f=ins[0], wedge_obj=wobj, insertions=ins, parts=[part], space=space
        )
        return FiltrationWitness(cert.level, [(coeff, block)])


def restrict_ensemble(s: Ensemble, k: SMorphism) -> Ensemble:
    return map_ensemble(lambda v: compose(v, k), s)


def combine_over_layout(ctx: WedgeContext, b, parts_by_block) -> Ensemble:
    """Combining product of per-block morphism ensembles, landing on the
    coned subdivision of the layout."""
    b = layout_key(b)
    if not b:
        return singleton(
            constant_morphism(ctx.cone_layout(()), ctx.w_obj, ctx.w_obj.basepoint)
        )
    iota, wobj, ins = ctx.iota(b)
    return combining_product(
        [parts_by_block[g] for g in b],
        lambda tup: compose(
            wedge_combine(wobj, ins, list(tup), codomain=ctx.w_obj), iota
        ),
    )


def combine_witnesses_over_layout(ctx, b, witnesses, space) -> FiltrationWitness:
    """Witness for the layout combining product; ranks add."""
    b = layout_key(b)
    if not b:
        return ctx.constant_witness(ctx.cone_layout(()), space)
    iota, wobj, ins = ctx.iota(b)
    wed = wedge_witness(witnesses, wobj, ins, ctx.registry)
    return restrict_witness(wed, iota)


def block_fingerprint(block: Block):
    rows = [block.f.table_key()]
    for p in block.parts:
        terms = tuple(
            sorted(
                (
                    tuple(sorted(t.pi.terms.items())),
                    t.certificate.level,
                    t.certificate.combination,
                    t.morphism.table_key(),
                )
                for t in p.terms
            )
        )
        rows.append((p.level, terms))
    return ckey(repr(rows))


def compact_witness(w: FiltrationWitness) -> FiltrationWitness:
    merged = {}
    order = []
    for c, b in w.entries:
        key = block_fingerprint(b)
        if key not in merged:
            merged[key] = [0, b]
            order.append(key)
        merged[key][0] += c
    entries = [(c, b) for c, b in (merged[k] for k in order) if c]
    return FiltrationWitness(w.level, entries)


class MorphismLayoutPresheaf:
    """The layout presheaf of morphism ensembles on coned subdivisions.

    Universes are based morphisms from the coned layout subdivisions into a
    fixed action space; restriction composes with the inclusion, extension
    composes with the canonical retraction, and the combining product glues
    morphisms over the per-block cones.  The repair operator and fissility
    tests consume this through the same interface as the synthetic model.
    """

    def __init__(self, ctx: WedgeContext, space=None):
        self.ctx = ctx
        self.space = space if space is not None else ctx.full_space
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


def multiplicative_restriction_holds(ctx: WedgeContext, p, f, j, b) -> bool:
    """Condition 0 at the layout b of f: p(f, j) restricts to the combining
    product of the p(g, j) over the blocks g of b."""
    got = restrict_ensemble(p(f, j), ctx.layout_inclusion(b, layout_key([f])))
    return got == combine_over_layout(ctx, b, {g: p(g, j) for g in b})


def alternating_sum(p, f, j) -> Ensemble:
    """The sum over subsets k of j of (-1)^(|j|-|k|) p(f, k); condition 2
    asks for a witness of it at level |j|."""
    return extend_over(omega(j), lambda k: p(f, k))


def layout_defect(ctx: WedgeContext, q: Ensemble, a) -> Ensemble:
    """The combining product over the layout a of the restrictions of q to
    its blocks, minus the restriction of q to a."""
    top = layout_key([ctx.e_set])
    per_block = {
        g: restrict_ensemble(q, ctx.layout_inclusion(layout_key([g]), top))
        for g in a
    }
    return combine_over_layout(ctx, a, per_block) - restrict_ensemble(
        q, ctx.layout_inclusion(a, top)
    )


def pair_checks(ctx: WedgeContext, p, f, j, alt_witness):
    """Conditions 0, 1 and 2 of the pair (f, j) as (check name, ok)."""
    tag = f"F={f} J={j}"
    yield f"constant-restriction {tag}", constant_restriction_holds(ctx, p, f, j)
    yield f"multiplicative-restriction {tag}", all(
        multiplicative_restriction_holds(ctx, p, f, j, b)
        for b in LayoutLattice(f, bound=len(f)).layouts
    )
    rep = verify_witness(alternating_sum(p, f, j), alt_witness, len(j), ctx.monoid)
    yield f"alternating-sum-witness {tag}", bool(rep)


def q_checks(ctx: WedgeContext, q: Ensemble, layout_witnesses, boundary_witness):
    """The layout-defect and boundary-defect claims for q as (check name,
    ok); ``layout_witnesses`` yields (layout, witness) pairs."""
    level = len(ctx.i_set)
    for a, wit in layout_witnesses:
        rep = verify_witness(layout_defect(ctx, q, a), wit, level, ctx.monoid)
        yield f"layout-defect-witness A={a}", bool(rep)
    boundary = boundary_defect(ctx, q, ctx.e_set, ctx.i_set)
    rep = verify_witness(boundary, boundary_witness, level, ctx.monoid)
    yield "boundary-witness", bool(rep)


def _require_all(checks):
    for name, ok in checks:
        if not ok:
            raise VerificationError(f"{name} failed")


@dataclass
class PairRecord:
    face: tuple
    index_subset: tuple
    ensemble: Ensemble
    fissile: bool
    alt_sum: Ensemble
    alt_witness: FiltrationWitness


@dataclass
class ConstructionResult:
    ctx: WedgeContext
    pairs: dict = field(default_factory=dict)

    def final(self, j):
        return self.pairs[(self.ctx.e_set, subset_key(j))]


def construct_p(i_set, e_set, bound=None, enforce_guard=True) -> ConstructionResult:
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
    ctx = WedgeContext(i_set, e_set, bound=bound)
    result = ConstructionResult(ctx=ctx)
    faces = sorted(
        [f for f in subsets_of(e_set) if f],
        key=lambda f: (len(f), ckey(f)),
    )
    proper = sorted(
        [j for j in subsets_of(i_set) if j != i_set],
        key=lambda j: (len(j), ckey(j)),
    )
    for f in faces:
        for j in proper:
            _construct_pair(ctx, result.pairs, f, j)
    return result


def _construct_pair(ctx: WedgeContext, pairs, f, j) -> PairRecord:
    def p(g, k):
        return pairs[(g, k)].ensemble

    space_j = ctx.space(j)
    lat = LayoutLattice(f, bound=len(f))
    t_f = ctx.plus_base_of(f)
    inc_tf = ctx.base_inclusion(f)
    top = lat.top
    proper_layouts = [b for b in lat.layouts if b != top]

    # families over the proper layouts: alternating sums of combined parts
    u_vals = Section()
    u_wits = {}
    for b in proper_layouts:
        val = extend_over(
            omega(j), lambda k: combine_over_layout(ctx, b, {g: p(g, k) for g in b})
        )
        cover_wits = []
        for l_fn in covers(len(b), j):
            assignment = dict(zip(b, l_fn))
            per_block = []
            for g in b:
                rec = pairs[(g, assignment[g])]
                small = ctx.space(assignment[g])
                wit = map_witness(
                    rec.alt_witness,
                    inclusion(small.obj, space_j.obj),
                    small,
                    space_j,
                )
                per_block.append(wit)
            cover_wits.append(
                combine_witnesses_over_layout(ctx, b, per_block, space_j)
            )
        entries = []
        for w in cover_wits:
            entries.extend(w.entries)
        wit = compact_witness(FiltrationWitness(len(j), entries))
        assert wit.value() == val, "cover expansion mismatch"
        u_vals[b] = val
        u_wits[b] = wit

    # lift the compatible family through the inverse transform
    poset = lat.poset()
    punctured = poset.without(top)

    def restrict_along(a, b, s):
        return restrict_ensemble(s, ctx.layout_inclusion(b, a))

    check_compatible(punctured, restrict_along, u_vals)
    v_vals = nabla_inverse(punctured, restrict_along, u_vals)
    v_wits = {}
    for b in reversed(punctured.linear_extension()):
        wit = u_wits[b]
        for p_up in punctured.elements:
            if p_up != b and punctured.leq(b, p_up):
                wit = wit.plus(
                    restrict_witness(
                        v_wits[p_up], ctx.layout_inclusion(b, p_up)
                    ).scaled(-1)
                )
        v_wits[b] = compact_witness(wit)
        assert v_wits[b].value() == v_vals.value(b)

    u_lift = Ensemble.zero()
    lift_entries = []
    for b in punctured.elements:
        if not v_vals.value(b):
            if v_wits[b].entries:
                lift_entries.extend(
                    restrict_witness(v_wits[b], ctx.retraction(top, b)).entries
                )
            continue
        u_lift = u_lift + restrict_ensemble(
            v_vals[b], ctx.retraction(top, b)
        )
        lift_entries.extend(
            restrict_witness(v_wits[b], ctx.retraction(top, b)).entries
        )
    u_wit = compact_witness(FiltrationWitness(len(j), lift_entries))
    assert u_wit.value() == u_lift

    for b in proper_layouts:
        got = restrict_ensemble(u_lift, ctx.layout_inclusion(b, top))
        assert got == u_vals.value(b), "lift does not restrict to the family"

    # bend the boundary defect flat with the filling
    q_ens = extend_over(singleton(j) - omega(j), lambda k: p(f, k))
    r_ens = q_ens + u_lift

    xi_jf = ctx.xi(j, f)
    delta = boundary_defect(ctx, r_ens, f, j)
    omega_wit = ctx.singleton_block_witness(
        omega(j), ctx.omega_cert(j), xi_jf, t_f, space_j
    )
    delta_wit = compact_witness(
        omega_wit.plus(restrict_witness(u_wit, inc_tf).scaled(-1))
    )
    assert delta_wit.value() == delta, "boundary defect expansion mismatch"

    letter = sorted(set(ctx.i_set) - set(j))[0]
    chi_delta = map_ensemble(lambda v: ctx.filling(v, letter, j), delta)

    red_space = ctx.registry.reduced_space(space_j)
    chi_wit = restrict_witness(
        map_witness(
            cone_witness(delta_wit, ctx.registry),
            ctx.contraction(j, letter),
            red_space[0],
            space_j,
        ),
        ctx.plus_iso(f),
    )
    alt_wit = compact_witness(u_wit.plus(chi_wit))
    record = PairRecord(
        face=f,
        index_subset=j,
        ensemble=r_ens + chi_delta,
        fissile=True,
        alt_sum=u_lift + chi_delta,
        alt_witness=alt_wit,
    )
    pairs[(f, j)] = record
    _require_all(pair_checks(ctx, p, f, j, alt_wit))
    return record


@dataclass
class AlmostFissileRecord:
    ensemble: Ensemble
    layout_defects: dict
    layout_witnesses: dict
    boundary_value: Ensemble
    boundary_witness: FiltrationWitness


def construct_q(result: ConstructionResult) -> AlmostFissileRecord:
    """Assemble the alternating combination of the final ensembles; every
    layout defect and the boundary defect receive verified witnesses at
    level the index-set size.  A failed claim raises VerificationError."""
    ctx = result.ctx
    i_set, e_set = ctx.i_set, ctx.e_set
    q_ens = extend_over(
        singleton(i_set) - omega(i_set), lambda j: result.final(j).ensemble
    )
    assert augmentation(q_ens) == 1

    lat = LayoutLattice(e_set, bound=len(e_set))
    top = lat.top
    defects, witnesses = {}, {}
    for a in lat.layouts:
        entries = []
        for k_fn in proper_covers(len(a), i_set):
            assignment = dict(zip(a, k_fn))
            per_block = []
            for g in a:
                rec = result.pairs[(e_set, assignment[g])]
                small = ctx.space(assignment[g])
                wit = map_witness(
                    rec.alt_witness,
                    inclusion(small.obj, ctx.full_space.obj),
                    small,
                    ctx.full_space,
                )
                wit = restrict_witness(
                    wit,
                    ctx.layout_inclusion(layout_key([g]), top),
                )
                per_block.append(wit)
            entries.extend(
                combine_witnesses_over_layout(
                    ctx, a, per_block, ctx.full_space
                ).entries
            )
        defects[a] = layout_defect(ctx, q_ens, a)
        witnesses[a] = compact_witness(FiltrationWitness(len(i_set), entries))

    boundary = boundary_defect(ctx, q_ens, e_set, i_set)
    bwit = ctx.singleton_block_witness(
        omega(i_set),
        ctx.omega_cert(i_set),
        ctx.xi(i_set, e_set),
        ctx.plus_base_of(e_set),
        ctx.full_space,
    )
    bwit = compact_witness(bwit)
    _require_all(q_checks(ctx, q_ens, witnesses.items(), bwit))
    return AlmostFissileRecord(
        ensemble=q_ens,
        layout_defects=defects,
        layout_witnesses=witnesses,
        boundary_value=boundary,
        boundary_witness=bwit,
    )
