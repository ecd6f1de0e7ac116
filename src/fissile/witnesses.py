"""Blocks and checkable witnesses for the module filtration.

An ensemble of based morphisms into a space carrying a subset-monoid action
belongs to the level-s layer of the filtration when it is an integer
combination of blocks of rank at least s.  A block is the image, under
precomposition with a wedge decomposition of the domain, of a combining
product of per-part ensembles, each a sum of terms pi * <w> whose pi lies in
the ideal at the part's level.  That membership is decided in closed form by
:func:`~fissile.chained.ideal_membership`, and every claim is re-verified by
evaluation.
"""

import functools

from .chained import SubsetMonoid, ideal_membership
from .ensembles import Ensemble, combining_product, map_ensemble
from .simplicial import (
    SimplicialError,
    SMorphism,
    compose,
    inclusion,
    invert_iso,
    reduced_cone_map,
    wedge,  # noqa: F401  (a binding that perfbench/spans.py wraps)
    wedge_combine,
)


class PSpace:
    """A based simplicial set together with a subset-monoid action on it."""

    def __init__(self, obj, monoid: SubsetMonoid, action, check=True):
        self.obj = obj
        self.monoid = monoid
        self.action = dict(action)
        if check:
            self._validate()

    def _fail(self, check, k):
        raise SimplicialError(
            f"space {self.obj.label!r}: {check} at the monoid element {k!r}"
        )

    def _validate(self):
        if set(self.action) != set(self.monoid.elements):
            self._fail("action keys differ from the monoid elements", None)
        ident = self.monoid.identity()
        if self.action[ident] != inclusion(self.obj, self.obj):
            self._fail("action is not the identity", ident)
        for k in self.monoid.elements:
            act = self.action[k]
            if not act.is_based():
                self._fail("action is not based", k)
            for k2 in self.monoid.elements:
                meet = self.monoid.op(k, k2)
                if compose(act, self.action[k2]) != self.action[meet]:
                    self._fail(f"action is not multiplicative with {k2!r}", k)


class IdealTerm:
    """One summand pi * <w> of a part: a monoid-ring element pi, which must
    lie in the ideal at the part's level, and a morphism w."""

    __slots__ = ("pi", "morphism")

    def __init__(self, pi: Ensemble, morphism: SMorphism):
        self.pi, self.morphism = pi, morphism


class BlockPart:
    """Part j of a block: terms on summand j of the block's wedge, each
    valued in the claim's space, whose pi lie in the ideal at the part's
    level.  The summand is its block's and the space its claim's, so a part
    holds neither."""

    def __init__(self, level: int, terms: list):
        self.level, self.terms = level, terms

    @functools.cached_property
    def key(self):
        """The structural key of the part: its level and the multiset of its
        (pi items, morphism) terms, built once, as a part is not changed once
        made."""
        count = {}
        for t in self.terms:
            term = (tuple(sorted(t.pi.terms.items())), t.morphism)
            count[term] = count.get(term, 0) + 1
        return self.level, frozenset(count.items())

    def value(self, space: PSpace, scope) -> Ensemble:
        """The sum over the terms of pi * <w>, each monoid element acting on
        w through the scope."""
        out = {}
        for t in self.terms:
            for k, c in t.pi.terms.items():
                m = scope.compose(space.action[k], t.morphism)
                out[m] = out.get(m, 0) + c
        return Ensemble(out)

    def in_ideal(self, monoid, scope) -> bool:
        """Whether every term's pi lies in the ideal at the part's level,
        decided by ``ideal_membership`` once per distinct (pi items, level)
        in the scope."""
        level = self.level
        for t in self.terms:
            key = ("ideal", monoid, level, tuple(t.pi.terms.items()))
            if scope.once(key, lambda: ideal_membership(monoid, t.pi, level)) is None:
                return False
        return True


class Block:
    """An integer block: f from T into a wedge, which carries the insertions
    of its summands, and part j on summand j.  The space the parts map to is
    the one the block's claim names, so a block holds no space, and its
    wedge is f's codomain."""

    __slots__ = ("f", "parts")

    def __init__(self, f: SMorphism, parts: list):
        self.f, self.parts = f, parts

    @property
    def wedge(self):
        return self.f.codomain

    def rank(self):
        return sum(p.level for p in self.parts)

    def value(self, space: PSpace, scope=None) -> Ensemble:
        """The glued product of the parts in the space, from the scope, each
        term precomposed with f.  The one definition of a block's value."""
        scope = scope or PairScope()
        return map_ensemble(
            lambda g: compose(g, self.f), scope.glued_product(self, space)
        )


def once(table, key, build):
    """``table[key]``, built by ``build()`` on first use.  A key holds the
    objects it names, so an entry keeps them alive by itself.  A simplicial
    set, a space, a monoid, a function or a reduced-cone tuple stands for
    itself (sets, spaces and monoids define no equality, so they compare by
    identity); a morphism
    stands as ``(domain, codomain, morphism)`` (see :func:`_named`), as it
    compares by its rows and domain levels only."""
    if key not in table:
        table[key] = build()
    return table[key]


def _named(m: SMorphism) -> tuple:
    """A morphism in a key: its objects and the morphism itself."""
    return m.domain, m.codomain, m


class PairScope:
    """The morphism tables of one (face, subset) pair, or of one q run.

    Within a scope each distinct composite, wedge gluing, reduced-cone map,
    cone straightening, equivariance check, ideal-membership decision and
    glued product is built, validated or run once, through :func:`once` in
    one table, keyed by its kind and the objects and morphisms it reads.
    So the action of a monoid element on a part morphism, or a layout
    gluing precomposed with its inclusion, is one object each time it
    recurs.  A glued product precomposed with a block's decomposition is
    not kept.  The builder drops the scope when its pair ends; a call
    given no scope gets a fresh one.

    Sharing is exact: each kind reads only the objects and the rows that its
    key holds.  ``compose(g, f)`` reads g's objects and rows and f's domain
    and rows; a membership decision reads the monoid, the level and the pi
    items.  Two blocks whose glued products share a key have the same
    wedge, are evaluated in the same space and have parts whose terms have
    the same pi items and equal morphisms on the same objects, so their
    part values, and the gluings of every tuple of them, are the same.
    """

    def __init__(self):
        self._table = {}

    def once(self, key, build):
        """:func:`once` in this scope's table."""
        return once(self._table, key, build)

    def compose(self, g: SMorphism, f: SMorphism) -> SMorphism:
        """``compose(g, f)``."""
        key = ("compose", *_named(g), f.domain, f)
        return once(self._table, key, lambda: compose(g, f))

    def glue(self, wobj, tup, cod) -> SMorphism:
        """``wedge_combine`` of the part morphisms into cod."""
        key = ("glue", wobj, cod) + tuple(map(_named, tup))
        return once(self._table, key, lambda: wedge_combine(wobj, tup, codomain=cod))

    def reduced_cone_map(self, f: SMorphism, rdom, rcod) -> SMorphism:
        """``reduced_cone_map`` of f between these reduced-cone tuples."""
        key = ("cone", *_named(f), rdom, rcod)
        return once(self._table, key, lambda: reduced_cone_map(f, rdom, rcod))

    def straightening(self, wobj, coned, red_w) -> SMorphism:
        """The inverse of the gluing of the coned insertions ``coned`` over
        the wedge of the reduced part cones: the canonical isomorphism from
        the reduced cone of the old wedge (``red_w``) to the new wedge."""
        key = ("straighten", wobj, red_w) + tuple(map(_named, coned))
        return once(self._table, key, lambda: invert_iso(wedge_combine(wobj, coned)))

    def check_equivariant(self, h: SMorphism, src: PSpace, dst: PSpace):
        """``check_equivariant`` of h from src to dst."""
        key = ("equivariant", *_named(h), src, dst)
        once(self._table, key, lambda: check_equivariant(h, src, dst))

    def glued_product(self, block: Block, space: PSpace) -> Ensemble:
        """The combining product of the block's part values, each tuple glued
        by ``wedge_combine`` into the space: the block's value before the
        precomposition with its f.  Keyed on the wedge, the space and, per
        part, the pi items and morphism of each term (see the class
        docstring)."""
        wobj, parts = block.wedge, block.parts

        def term(t):
            return tuple(t.pi.terms.items()), *_named(t.morphism)

        key = ("product", wobj, space) + tuple(tuple(map(term, p.terms)) for p in parts)
        return once(
            self._table,
            key,
            lambda: combining_product(
                [p.value(space, self) for p in parts],
                lambda tup: self.glue(wobj, tup, space.obj),
            ),
        )


class FiltrationWitness:
    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries: list = None):
        self.level = level
        self.entries = [] if entries is None else entries  # (coeff, Block)

    def value(self, space: PSpace, scope=None) -> Ensemble:
        return self.evaluate(space, scope or PairScope())[0]

    def evaluate(self, space: PSpace, scope: PairScope):
        """The sum of c * (block value in the space) over the entries, each
        block evaluated once through the scope and streamed into one table,
        and the index of the first block that is zero on its own, or None."""
        total, zero = {}, None
        for b, (c, block) in enumerate(self.entries):
            value = block.value(space, scope)
            if not value and zero is None:
                zero = b
            for el, d in value.terms.items():
                total[el] = total.get(el, 0) + c * d
        return Ensemble(total), zero

    def __add__(self, other: "FiltrationWitness") -> "FiltrationWitness":
        """Both entry lists, in order, unmerged."""
        return FiltrationWitness(
            min(self.level, other.level), self.entries + other.entries
        )

    def __sub__(self, other: "FiltrationWitness") -> "FiltrationWitness":
        """The entries of self, then those of other negated, compacted."""
        negated = [(-c, b) for c, b in other.entries]
        return compact_witness(self + FiltrationWitness(other.level, negated))


def compact_witness(w: FiltrationWitness) -> FiltrationWitness:
    """Merge the entries whose blocks have equal structural keys (the table
    of f, then the key of each part), in first-occurrence order, and drop
    the ones whose coefficients cancel.  The blocks ``wedge_witness``
    expands from compacted factors share their part objects, so a part
    stands in a block's key by the index of its part key, which is hashed
    once per part object (w holds every part, so no id is reused during the
    call)."""
    index = {}
    of_part = {}
    merged = {}
    for c, b in w.entries:
        parts = []
        for p in b.parts:
            i = of_part.get(id(p))
            if i is None:
                i = of_part[id(p)] = index.setdefault(p.key, len(index))
            parts.append(i)
        key = (b.f, tuple(parts))
        if key in merged:
            merged[key][0] += c
        else:
            merged[key] = [c, b]
    return FiltrationWitness(w.level, [(c, b) for c, b in merged.values() if c])


def drop_zero_blocks(
    w: FiltrationWitness, space: PSpace, scope: PairScope
) -> FiltrationWitness:
    """The entries of w, in order, whose blocks are not zero on their own in
    the space, each evaluated through the scope: a zero block's glued
    product cancels once precomposed with its f.  It adds nothing to the
    witness's value, so this leaves the value and every kept block's rank
    as they were."""
    entries = [(c, b) for c, b in w.entries if b.value(space, scope)]
    return FiltrationWitness(w.level, entries)


class WitnessReport:
    """A failed check and why; it is false, as only a failure makes one."""

    __slots__ = ("diagnostic",)

    def __init__(self, diagnostic: str):
        self.diagnostic = diagnostic

    def __bool__(self):
        return False


def verify_witness(
    v: Ensemble, w: FiltrationWitness, s: int, space: PSpace, scope: PairScope = None
):
    """True when a witness holds in the claim's space from its own data,
    else the failed WitnessReport: block ranks, each part's pi terms in the
    ideal of the space's monoid at the part's level
    (:meth:`BlockPart.in_ideal`), based decompositions, the evaluated
    combination, and no block zero on its own, each through the scope.
    Every block's rank must reach the witness's own level, which must reach
    s; a witness with no blocks holds at any level.

    Each block is evaluated once (:meth:`FiltrationWitness.evaluate`); a
    sum mismatch is reported ahead of a zero block.  The builder
    drops zero blocks where restrictions create them, so a witness it
    writes holds none, and every field of a block is load-bearing."""
    scope = scope if scope is not None else PairScope()
    monoid = space.monoid
    if w.level < s:
        return WitnessReport(f"witness level {w.level} below requested {s}")
    for b, (_c, block) in enumerate(w.entries):
        if block.rank() < w.level:
            return WitnessReport(
                f"block of rank {block.rank()} below the witness level {w.level}"
            )
        for j, part in enumerate(block.parts):
            if not part.in_ideal(monoid, scope):
                return WitnessReport(
                    f"block {b} part {j}: pi is not in the level-{part.level} ideal"
                )
        if not block.f.is_based():
            return WitnessReport("wedge decomposition is not based")
    total, zero = w.evaluate(space, scope)
    if total != v:
        return WitnessReport("sum mismatch")
    if zero is not None:
        return WitnessReport(f"block {zero} is zero")
    return True


# -- the four witness transforms --------------------------------------------


def restrict_witness(w: FiltrationWitness, k: SMorphism) -> FiltrationWitness:
    """Precompose the wedge decompositions with a based morphism into the
    old domain; parts and ranks are untouched."""
    require_based(k, "restriction")
    entries = [(c, Block(compose(b.f, k), b.parts)) for c, b in w.entries]
    return FiltrationWitness(w.level, entries)


def require_based(h: SMorphism, role):
    if not h.is_based():
        raise SimplicialError(
            f"{role} morphism {h.domain.label!r} -> {h.codomain.label!r} "
            "is not based"
        )


def check_equivariant(h: SMorphism, src: PSpace, dst: PSpace):
    for k in src.monoid.elements:
        if compose(h, src.action[k]) != compose(dst.action[k], h):
            raise SimplicialError(
                f"morphism {h.domain.label!r} -> {h.codomain.label!r} is not "
                f"equivariant at the monoid element {k!r}"
            )


def map_witness(
    w: FiltrationWitness, h: SMorphism, src: PSpace, dst: PSpace, scope=None
) -> FiltrationWitness:
    """Push every part through an equivariant based morphism of spaces; the
    equivariance check runs through the scope."""
    require_based(h, "space")
    scope = scope if scope is not None else PairScope()
    scope.check_equivariant(h, src, dst)
    entries = []
    for c, b in w.entries:
        parts = []
        for p in b.parts:
            terms = [IdealTerm(t.pi, compose(h, t.morphism)) for t in p.terms]
            parts.append(BlockPart(p.level, terms))
        entries.append((c, Block(b.f, parts)))
    return FiltrationWitness(w.level, entries)


def cone_witness(w: FiltrationWitness, space: PSpace, ctx, scope=None):
    """Transport a witness in the space through the reduced-cone functor,
    into the space's reduced cone.

    Each part morphism is coned; the new wedge decomposition is the cone of
    the old one, straightened through the canonical isomorphism between the
    wedge of cones and the cone of the wedge.  Every reduced-cone map and
    straightening comes from the scope, every cone and wedge of objects
    from the run's context.
    """
    scope = scope if scope is not None else PairScope()
    red_z = ctx.reduced_space(space)[1]
    entries = []
    for c, b in w.entries:
        insertions = b.wedge.insertions
        red_parts = [ctx.reduced_domain(ins.domain) for ins in insertions]
        new_wedge = ctx.wedge_of([r[0] for r in red_parts])
        red_w = ctx.reduced_domain(b.wedge)
        coned = tuple(
            scope.reduced_cone_map(ins, red, red_w)
            for ins, red in zip(insertions, red_parts)
        )
        e_inv = scope.straightening(new_wedge, coned, red_w)
        red_t = ctx.reduced_domain(b.f.domain)
        cf = scope.reduced_cone_map(b.f, red_t, red_w)
        parts = []
        for p, red in zip(b.parts, red_parts):
            terms = [
                IdealTerm(t.pi, scope.reduced_cone_map(t.morphism, red, red_z))
                for t in p.terms
            ]
            parts.append(BlockPart(p.level, terms))
        entries.append((c, Block(compose(e_inv, cf), parts)))
    return FiltrationWitness(w.level, entries)


def wedge_witness(witnesses, wedge_obj, ctx) -> FiltrationWitness:
    """Witness for the combining product over a wedge of domains; ranks add.

    Expands the product of the input combinations, so each output block
    concatenates one block choice per slot; the wedge of the concatenated
    summands comes from the run's context.  The new decomposition glues,
    over the wedge, the f of each chosen block moved into its slice of the
    concatenated wedge by the context's ``summand_shift``.  It reads, of each
    chosen block, only f, so within this call it is built and validated once
    per distinct (concatenated wedge, per-slot wedge and f).
    """
    total_level = sum(w.level for w in witnesses)
    combos = [(1, [])]
    for w in witnesses:
        nxt = []
        for c, chosen in combos:
            for c2, b in w.entries:
                nxt.append((c * c2, chosen + [b]))
        combos = nxt
    decompositions = {}
    entries = []
    for c, blocks in combos:
        flat_parts = [p for b in blocks for p in b.parts]
        summands = [ins.domain for b in blocks for ins in b.wedge.insertions]
        flat_wedge = ctx.wedge_of(summands)
        key = (flat_wedge,) + tuple((b.wedge, b.f) for b in blocks)
        f_new = decompositions.get(key)
        if f_new is None:
            moved, start = [], 0
            for b in blocks:
                shift = ctx.summand_shift(b.wedge, flat_wedge, start)
                moved.append(compose(shift, b.f))
                start += len(b.wedge.insertions)
            f_new = decompositions[key] = wedge_combine(wedge_obj, moved)
        entries.append((c, Block(f_new, flat_parts)))
    return FiltrationWitness(total_level, entries)


def combine_over_wedge(wedge_obj, ensembles) -> Ensemble:
    """The combining product of morphism ensembles over a wedge of domains."""
    return combining_product(ensembles, lambda tup: wedge_combine(wedge_obj, list(tup)))
