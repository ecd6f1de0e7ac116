"""The fissilizing operator over any layout presheaf with an extender.

A layout presheaf assigns an ensemble universe to every layout of a ground
set, restricts along the layout order, extends against it, and combines
per-block ensembles multilinearly.  The operator that repairs an arbitrary
ensemble into a fissile one lifts through ``posets.nabla_inverse`` and
``posets.extend_to``, which also lift the simplicial pair construction's
ensembles and witnesses: the two models share one code path.
"""

from itertools import accumulate, product

from .ensembles import (
    Ensemble,
    SubgroupGenerators,
    combining_product,
    map_ensemble,
    subgroup_membership,
)
from .layouts import LayoutLattice, layout_key, resolve_block
from .posets import Section, extend_to, nabla_inverse


class FunctionFacePresheaf:
    """Synthetic face data: the universe at a face holds all tuples of values
    aligned to the sorted face; restriction drops coordinates."""

    def __init__(self, ground, values=(0, 1), default=0):
        self.ground = tuple(sorted(set(ground)))
        self.values = tuple(values)
        self.default = default
        if default not in self.values:
            raise ValueError("default must be one of the values")

    def positions(self, f, g):
        """Where the points of the sorted face g sit in the sorted face f."""
        f = tuple(sorted(f))
        g = tuple(sorted(g))
        if not set(g) <= set(f):
            raise ValueError("face restriction requires inclusion")
        return tuple(f.index(x) for x in g)

    def restrict(self, f, g, el):
        return tuple(el[k] for k in self.positions(f, g))

    def enumerate(self, f):
        return [tuple(t) for t in product(self.values, repeat=len(tuple(f)))]


class _Images(dict):
    """The element -> image table of one gather, filled on first use.

    An element is read flat, as the face default and then its blocks'
    values, and output block r lists the flat values at ``rows[r]``."""

    def __init__(self, rows, default):
        super().__init__()
        self.rows, self.default = rows, (default,)

    def __missing__(self, el):
        flat = self.default + sum(el, ())
        im = self[el] = tuple([tuple([flat[k] for k in row]) for row in self.rows])
        return im


class ProductLayoutPresheaf:
    """Layout presheaf induced by face data: the universe at a layout is the
    product over its blocks, keyed by block-sorted tuples.

    Restriction and extension along a >= b are gathers: an element is read
    flat, as the face default and then its blocks' values, and each output
    block lists the flat indices it takes.  Each pair's two gathers are
    planned once, and each keeps the image of every element it has moved,
    so an element is gathered once per plan.  An image table holds at most
    one entry per element of the universe the gather reads, which is at
    most the universe at a.
    """

    def __init__(self, face: FunctionFacePresheaf):
        self.face = face
        self.lattice = LayoutLattice(face.ground)
        self.top = self.lattice.top
        self._plans = {}

    def wrap(self, q: Ensemble) -> Ensemble:
        return map_ensemble(lambda el: (el,), q)

    def unwrap(self, s: Ensemble) -> Ensemble:
        return map_ensemble(lambda el: el[0], s)

    def _plan(self, a, b, what):
        """(restriction images, extension images) of the pair a >= b."""
        plan = self._plans.get((a, b))
        if plan is None:
            if not self.lattice.geq(a, b):
                raise ValueError(f"{what} requires a >= b")
            start = dict(zip(a, accumulate(map(len, a), initial=1)))
            down = []
            for g in b:
                f = resolve_block(a, g)
                down.append(tuple(start[f] + k for k in self.face.positions(f, g)))
            where = {
                x: s + k
                for g, s in zip(b, accumulate(map(len, b), initial=1))
                for k, x in enumerate(g)
            }
            up = tuple(tuple(where.get(x, 0) for x in f) for f in a)
            default = self.face.default
            plan = self._plans[(a, b)] = (_Images(tuple(down), default), _Images(up, default))
        return plan

    def restrict(self, s: Ensemble, a, b) -> Ensemble:
        return map_ensemble(self._plan(a, b, "restriction")[0].__getitem__, s)

    def extend(self, s: Ensemble, a, b) -> Ensemble:
        return map_ensemble(self._plan(a, b, "extension")[1].__getitem__, s)

    def combine(self, a, parts) -> Ensemble:
        factors = [parts[g] for g in a]
        return combining_product(
            factors, lambda tup: tuple(el[0] for el in tup)
        )

    def enumerate_universe(self, a):
        pools = [self.face.enumerate(g) for g in a]
        return [tuple(choice) for choice in product(*pools)]


def q_square(lp, q: Ensemble, a) -> Ensemble:
    """Combining product of the per-block restrictions of a top ensemble."""
    wrapped = lp.wrap(q)
    parts = {g: lp.restrict(wrapped, lp.top, layout_key([g])) for g in a}
    return lp.combine(a, parts)


def is_fissile(lp, r: Ensemble) -> bool:
    """Whether the restriction to every layout splits as the combining
    product of the block restrictions."""
    wrapped = lp.wrap(r)
    for a in lp.lattice.layouts:
        if lp.restrict(wrapped, lp.top, a) != q_square(lp, r, a):
            return False
    return True


def fissilize(lp, q: Ensemble) -> Ensemble:
    """Repair an arbitrary ensemble into a fissile one.

    The layout-indexed family of combining products is pulled back through
    the inverse triangular transform and pushed to the top by the extender;
    fissile inputs are fixed points.
    """
    poset = lp.lattice.poset()
    family = Section((a, q_square(lp, q, a)) for a in lp.lattice.layouts)
    v = nabla_inverse(poset, lambda p, w, s: lp.restrict(s, p, w), family)
    return lp.unwrap(extend_to(lp.top, poset, lambda p, w, s: lp.extend(s, p, w), v))


class SubgroupFamilyReport:
    __slots__ = ("hypothesis_ok", "hypothesis_failures", "conclusion")

    def __init__(self, hypothesis_ok: bool):
        self.hypothesis_ok = hypothesis_ok
        self.hypothesis_failures = []
        self.conclusion = None

    def __bool__(self):
        return self.hypothesis_ok and bool(self.conclusion)


def check_invariance(lp, n_family) -> SubgroupFamilyReport:
    """Verify, on generators, that the subgroup family is preserved by the
    restriction homomorphisms and by the extender."""
    report = SubgroupFamilyReport(hypothesis_ok=True)
    lattice = lp.lattice
    for a in lattice.layouts:
        for b in lattice.layouts:
            if a == b or not lattice.geq(a, b):
                continue
            for g in n_family[a].generators:
                if not subgroup_membership(lp.restrict(g, a, b), n_family[b]):
                    report.hypothesis_ok = False
                    report.hypothesis_failures.append(
                        ("restriction", a, b)
                    )
            for g in n_family[b].generators:
                if not subgroup_membership(lp.extend(g, a, b), n_family[a]):
                    report.hypothesis_ok = False
                    report.hypothesis_failures.append(("extender", a, b))
    return report


def check_fissilizer_defect(lp, q: Ensemble, n_family) -> SubgroupFamilyReport:
    """Certificate form of the defect statement: when the family is invariant
    and every combining-product defect of ``q`` lies in it, the fissilized
    ensemble differs from ``q`` by a member at the top layout.

    Hypothesis failures are reported separately from a failing conclusion.
    """
    report = check_invariance(lp, n_family)
    wrapped = lp.wrap(q)
    for a in lp.lattice.layouts:
        defect = q_square(lp, q, a) - lp.restrict(wrapped, lp.top, a)
        if not subgroup_membership(defect, n_family[a]):
            report.hypothesis_ok = False
            report.hypothesis_failures.append(("defect", a))
    if not report.hypothesis_ok:
        return report
    diff = lp.wrap(fissilize(lp, q) - q)
    report.conclusion = bool(subgroup_membership(diff, n_family[lp.top]))
    return report


def defect_subgroup_family(lp, seeds):
    """The smallest family containing every combining-product defect of the
    seed ensembles and closed under restriction and the extender.

    Each generator is pushed once along each pair a > b and direction: a
    generator pushed before stays a member of its target's span, since
    spans only grow, so each round pushes only the generators that arrived
    since the last one.  Closure terminates because the generated subgroups
    sit inside finitely generated integer lattices, which have no infinite
    ascending chains.
    """
    lattice = lp.lattice
    family = {a: SubgroupGenerators(()) for a in lattice.layouts}

    def push(a, g):
        if not g or subgroup_membership(g, family[a]):
            return False
        family[a] = SubgroupGenerators(family[a].generators + (g,))
        return True

    for q in seeds:
        wrapped = lp.wrap(q)
        for a in lattice.layouts:
            push(a, q_square(lp, q, a) - lp.restrict(wrapped, lp.top, a))
    moves = [
        (source, target, move, a, b)
        for a in lattice.layouts
        for b in lattice.layouts
        if a != b and lattice.geq(a, b)
        for source, target, move in ((a, b, lp.restrict), (b, a, lp.extend))
    ]
    pushed = [0] * len(moves)
    changed = True
    while changed:
        changed = False
        for k, (source, target, move, a, b) in enumerate(moves):
            gens = family[source].generators
            for g in gens[pushed[k]:]:
                changed |= push(target, move(g, a, b))
            pushed[k] = len(gens)
    return family
