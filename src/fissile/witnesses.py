"""Blocks and checkable membership certificates for the module filtration.

An ensemble of based morphisms into a space carrying a subset-monoid action
belongs to the level-s layer of the filtration when it is an integer
combination of blocks of rank at least s.  A block is the image, under
precomposition with a wedge decomposition of the domain, of a combining
product of per-part ensembles, each certified to lie in an ideal-scaled
submodule.  Nothing here decides membership: every claim is carried by an
explicit certificate and re-verified by evaluation.
"""

from dataclasses import dataclass, field

from .chained import IdealCertificate, SubsetMonoid
from .ensembles import Ensemble, combining_product, map_ensemble
from .simplicial import (
    SMorphism,
    compose,
    inclusion,
    reduced_cone,
    reduced_cone_map,
    wedge,
    wedge_combine,
)


class PSpace:
    """A based simplicial set together with a subset-monoid action on it."""

    def __init__(self, obj, monoid: SubsetMonoid, action, label=None, check=True):
        self.obj = obj
        self.monoid = monoid
        self.action = dict(action)
        self.label = label if label is not None else obj.label
        if check:
            self._validate()

    def _validate(self):
        assert set(self.action) == set(self.monoid.elements)
        ident = self.action[self.monoid.identity()]
        assert ident == inclusion(self.obj, self.obj)
        for k in self.monoid.elements:
            act = self.action[k]
            assert act.is_based()
            for k2 in self.monoid.elements:
                meet = self.monoid.op(k, k2)
                assert compose(act, self.action[k2]) == self.action[meet]

    def act_on_morphism(self, k, v: SMorphism) -> SMorphism:
        return compose(self.action[k], v)

    def act_on_ensemble(self, k, s: Ensemble) -> Ensemble:
        return map_ensemble(lambda v: self.act_on_morphism(k, v), s)

    def module_scale(self, pi: Ensemble, s: Ensemble) -> Ensemble:
        """The module action of a monoid-ring element on a morphism ensemble."""
        out = Ensemble.zero()
        for k, c in pi.terms.items():
            out = out + c * self.act_on_ensemble(k, s)
        return out


class SpaceRegistry:
    """Shared reduced-cone bookkeeping for spaces and plain domains, and the
    one wedge table of a run: builder and checker get every wedge here."""

    def __init__(self, monoid: SubsetMonoid):
        self.monoid = monoid
        self._reduced_spaces = {}
        self._reduced_domains = {}
        self._wedges = {}

    def wedge(self, parts, label=None) -> tuple:
        """The wedge of these part objects with its insertions, built and
        validated once per (parts, label).  The entry keeps its parts
        alive, so no part id in a key can be reused by a new object."""
        key = (tuple(id(p) for p in parts), label)
        if key not in self._wedges:
            self._wedges[key] = (tuple(parts), wedge(parts, label=label))
        return self._wedges[key][1]

    def reduced_space(self, space: PSpace) -> tuple:
        key = id(space.obj)
        if key not in self._reduced_spaces:
            red = reduced_cone(space.obj)
            action = {
                k: reduced_cone_map(space.action[k], red, red)
                for k in self.monoid.elements
            }
            cspace = PSpace(
                red[0],
                self.monoid,
                action,
                label=("redcone", space.label),
                check=False,
            )
            self._reduced_spaces[key] = (cspace, red, space)
        return self._reduced_spaces[key]

    def reduced_domain(self, t) -> tuple:
        key = id(t)
        if key not in self._reduced_domains:
            self._reduced_domains[key] = reduced_cone(t)
        return self._reduced_domains[key]


@dataclass
class IdealTerm:
    """One summand pi * <w> of a part, with the ideal certificate for pi."""

    pi: Ensemble
    certificate: IdealCertificate
    morphism: SMorphism

    def value(self, space: PSpace) -> Ensemble:
        out = Ensemble.zero()
        for k, c in self.pi.terms.items():
            out = out + c * Ensemble({space.act_on_morphism(k, self.morphism): 1})
        return out


@dataclass
class BlockPart:
    level: int
    terms: list
    domain: object  # based simplicial set, the wedge summand
    space: PSpace

    def value(self) -> Ensemble:
        out = Ensemble.zero()
        for term in self.terms:
            out = out + term.value(self.space)
        return out

    def check_certificates(self, monoid) -> bool:
        for term in self.terms:
            if term.certificate.level < self.level:
                return False
            if not term.certificate.check(monoid, term.pi):
                return False
        return True


@dataclass
class Block:
    f: SMorphism  # T -> wedge of the part domains
    wedge_obj: object
    insertions: list
    parts: list
    space: PSpace

    def rank(self):
        return sum(p.level for p in self.parts)

    def value(self) -> Ensemble:
        factors = [p.value() for p in self.parts]
        return combining_product(
            factors,
            lambda tup: compose(
                wedge_combine(
                    self.wedge_obj,
                    self.insertions,
                    list(tup),
                    codomain=self.space.obj,
                ),
                self.f,
            ),
        )


@dataclass
class FiltrationWitness:
    level: int
    entries: list = field(default_factory=list)  # (coeff, Block)

    def value(self) -> Ensemble:
        out = Ensemble.zero()
        for c, block in self.entries:
            out = out + c * block.value()
        return out

    def scaled(self, n: int) -> "FiltrationWitness":
        return FiltrationWitness(
            self.level, [(n * c, b) for c, b in self.entries if n * c]
        )

    def plus(self, other: "FiltrationWitness") -> "FiltrationWitness":
        return FiltrationWitness(
            min(self.level, other.level), list(self.entries) + list(other.entries)
        )


@dataclass
class WitnessReport:
    ok: bool
    diagnostic: str = "ok"

    def __bool__(self):
        return self.ok


def make_block(monoid, f, wedge_obj, insertions, parts, space):
    """Evaluate a block after checking every part certificate at its rank."""
    block = Block(
        f=f, wedge_obj=wedge_obj, insertions=insertions, parts=parts, space=space
    )
    for p in parts:
        if not p.check_certificates(monoid):
            raise ValueError("ideal decomposition fails verification")
    return block.value(), block


def verify_witness(v: Ensemble, w: FiltrationWitness, s: int, monoid) -> WitnessReport:
    """Re-check a witness from its own data: certificate levels, block ranks,
    and the evaluated combination."""
    if w.level < s:
        return WitnessReport(False, f"witness level {w.level} below requested {s}")
    total = Ensemble.zero()
    for c, block in w.entries:
        if block.rank() < s:
            return WitnessReport(
                False, f"block of rank {block.rank()} below level {s}"
            )
        for part in block.parts:
            if not part.check_certificates(monoid):
                return WitnessReport(False, "ideal certificate failed")
        if not block.f.is_based():
            return WitnessReport(False, "wedge decomposition is not based")
        total = total + c * block.value()
    if total != v:
        return WitnessReport(False, "sum mismatch")
    return WitnessReport(True)


# -- the four witness transforms --------------------------------------------


def restrict_witness(w: FiltrationWitness, k: SMorphism) -> FiltrationWitness:
    """Precompose the wedge decompositions with a based morphism into the
    old domain; parts and ranks are untouched."""
    assert k.is_based()
    entries = [
        (
            c,
            Block(
                f=compose(b.f, k),
                wedge_obj=b.wedge_obj,
                insertions=b.insertions,
                parts=b.parts,
                space=b.space,
            ),
        )
        for c, b in w.entries
    ]
    return FiltrationWitness(w.level, entries)


def check_equivariant(h: SMorphism, src: PSpace, dst: PSpace):
    for k in src.monoid.elements:
        assert compose(h, src.action[k]) == compose(dst.action[k], h), (
            "morphism is not equivariant"
        )


def map_witness(
    w: FiltrationWitness, h: SMorphism, src: PSpace, dst: PSpace
) -> FiltrationWitness:
    """Push every part through an equivariant based morphism of spaces."""
    assert h.is_based()
    check_equivariant(h, src, dst)
    entries = []
    for c, b in w.entries:
        parts = []
        for p in b.parts:
            terms = [
                IdealTerm(t.pi, t.certificate, compose(h, t.morphism))
                for t in p.terms
            ]
            parts.append(BlockPart(p.level, terms, p.domain, dst))
        entries.append(
            (
                c,
                Block(
                    f=b.f,
                    wedge_obj=b.wedge_obj,
                    insertions=b.insertions,
                    parts=parts,
                    space=dst,
                ),
            )
        )
    return FiltrationWitness(w.level, entries)


def _invert_iso(e: SMorphism) -> SMorphism:
    maps = []
    for n in range(e.domain.bound + 1):
        inv = {}
        for x, y in e.maps[n].items():
            assert y not in inv, "not injective"
            inv[y] = x
        assert len(inv) == len(e.codomain.simplices[n]), "not surjective"
        maps.append(inv)
    return SMorphism(e.codomain, e.domain, maps, check=False)


def cone_witness(
    w: FiltrationWitness, registry: SpaceRegistry
) -> FiltrationWitness:
    """Transport a witness through the reduced-cone functor.

    Each part morphism is coned; the new wedge decomposition is the cone of
    the old one, straightened through the canonical isomorphism between the
    wedge of cones and the cone of the wedge.
    """
    entries = []
    for c, b in w.entries:
        red_parts = [registry.reduced_domain(p.domain) for p in b.parts]
        new_domains = [r[0] for r in red_parts]
        new_wedge, new_ins = registry.wedge(new_domains)
        red_w = registry.reduced_domain(b.wedge_obj)
        straighten = wedge_combine(
            new_wedge,
            new_ins,
            [
                reduced_cone_map(b.insertions[j], red_parts[j], red_w)
                for j in range(len(b.parts))
            ],
        )
        e_inv = _invert_iso(straighten)
        red_t = registry.reduced_domain(b.f.domain)
        cf = reduced_cone_map(b.f, red_t, red_w)
        g = compose(e_inv, cf)
        parts = []
        for j, p in enumerate(b.parts):
            cspace, red_z, _base = registry.reduced_space(p.space)
            terms = [
                IdealTerm(
                    t.pi,
                    t.certificate,
                    reduced_cone_map(t.morphism, red_parts[j], red_z),
                )
                for t in p.terms
            ]
            parts.append(BlockPart(p.level, terms, new_domains[j], cspace))
        cspace0 = registry.reduced_space(b.space)[0]
        entries.append(
            (
                c,
                Block(
                    f=g,
                    wedge_obj=new_wedge,
                    insertions=new_ins,
                    parts=parts,
                    space=cspace0,
                ),
            )
        )
    return FiltrationWitness(w.level, entries)


def wedge_witness(
    witnesses, wedge_obj, insertions, registry: SpaceRegistry
) -> FiltrationWitness:
    """Witness for the combining product over a wedge of domains; ranks add.

    Expands the product of the input combinations, so each output block
    concatenates one block choice per slot; the wedges of the concatenated
    part domains come from the registry.
    """
    total_level = sum(w.level for w in witnesses)
    combos = [(1, [])]
    for w in witnesses:
        nxt = []
        for c, chosen in combos:
            for c2, b in w.entries:
                nxt.append((c * c2, chosen + [b]))
        combos = nxt
    entries = []
    for c, blocks in combos:
        flat_domains = []
        flat_parts = []
        offsets = []
        for b in blocks:
            offsets.append(len(flat_domains))
            flat_domains.extend(p.domain for p in b.parts)
            flat_parts.extend(b.parts)
        flat_wedge, flat_ins = registry.wedge(flat_domains)
        maps = []
        for n in range(wedge_obj.bound + 1):
            base, flat_base = wedge_obj.basepoint_at(n), flat_wedge.basepoint_at(n)
            level = {base: flat_base}
            for i, b in enumerate(blocks):
                keys, block_base = insertions[i].maps[n], b.wedge_obj.basepoint_at(n)
                for x, fx in b.f.maps[n].items():
                    key = keys[x]
                    if key == base:
                        continue
                    if fx == block_base:
                        level[key] = flat_base
                    else:
                        j, y = fx
                        level[key] = (offsets[i] + j, y)
            maps.append(level)
        f_new = SMorphism(wedge_obj, flat_wedge, maps)
        entries.append(
            (
                c,
                Block(
                    f=f_new,
                    wedge_obj=flat_wedge,
                    insertions=flat_ins,
                    parts=flat_parts,
                    space=blocks[0].space,
                ),
            )
        )
    return FiltrationWitness(total_level, entries)


class UnregisteredAction(KeyError):
    pass


def act(space: PSpace, k, target):
    """Apply one monoid element to a morphism or to a morphism ensemble.

    The space carries the registered action; unknown elements raise."""
    k = tuple(sorted(k))
    if k not in space.action:
        raise UnregisteredAction(f"{k!r} has no registered action")
    if isinstance(target, Ensemble):
        if not all(isinstance(m, SMorphism) for m in target.support()):
            raise UnregisteredAction("ensemble universe carries no action")
        return space.act_on_ensemble(k, target)
    if isinstance(target, SMorphism):
        return space.act_on_morphism(k, target)
    raise TypeError("target must be a morphism or an ensemble of morphisms")


def combine_over_wedge(wedge_obj, insertions, ensembles) -> Ensemble:
    """The combining product of morphism ensembles over a wedge of domains."""
    return combining_product(
        ensembles, lambda tup: wedge_combine(wedge_obj, insertions, list(tup))
    )
