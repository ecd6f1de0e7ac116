"""Finite posets, presheaves of ensemble groups, and the triangular transform.

The transform ``nabla`` sends a finitely supported family (u_p) to the family
whose value at q is the sum of restrictions u_p|_q over all p >= q.  Its
matrix is unitriangular in any linear extension, so the inverse is computed
by back-substitution, uniformly for every finite poset.

``nabla_inverse`` and the extension sum ``extend_to`` are the package's only
inverse transform and lift.  They use only ``+``, ``-`` and truth, so
families of ensembles and of filtration witnesses share them.
"""

from functools import reduce
from operator import add

from .canon import ckey
from .ensembles import Ensemble, _accumulate, _exact


class FinitePoset:
    """A finite poset given by its elements and a decidable relation.

    Reflexivity, antisymmetry and transitivity are checked exhaustively on
    construction; the index, linear extension, maximum and punctured posets
    are then kept.
    """

    def __init__(self, elements, leq):
        self.elements = tuple(sorted(elements, key=ckey))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate poset elements")
        rel = {}
        for p in self.elements:
            for q in self.elements:
                rel[(q, p)] = bool(leq(q, p))
        for p in self.elements:
            if not rel[(p, p)]:
                raise ValueError("relation is not reflexive")
        for p in self.elements:
            for q in self.elements:
                if p != q and rel[(p, q)] and rel[(q, p)]:
                    raise ValueError("relation is not antisymmetric")
        for p in self.elements:
            for q in self.elements:
                for r in self.elements:
                    if rel[(p, q)] and rel[(q, r)] and not rel[(p, r)]:
                        raise ValueError("relation is not transitive")
        self._leq = rel
        self.index = {p: i for i, p in enumerate(self.elements)}
        below = {p: sum(rel[(q, p)] for q in self.elements) for p in self.elements}
        self._order = tuple(sorted(self.elements, key=lambda p: (below[p], ckey(p))))
        self._tops = [p for p in self.elements if below[p] == len(self.elements)]
        self._without = {}

    def leq(self, q, p):
        return self._leq[(q, p)]

    def down_set(self, p):
        """All elements <= p."""
        if p not in self.index:
            raise KeyError(f"{p!r} is not a poset element")
        return tuple(q for q in self.elements if self.leq(q, p))

    def linear_extension(self):
        """Deterministic order compatible with the relation, bottoms first."""
        return self._order

    def maximum(self):
        if len(self._tops) != 1:
            raise ValueError("poset has no greatest element")
        return self._tops[0]

    def without(self, p):
        if p not in self._without:
            rest = [q for q in self.elements if q != p]
            self._without[p] = FinitePoset(rest, self.leq)
        return self._without[p]


class Section(dict):
    """A finitely supported family p -> ensemble; absent keys mean zero."""

    def value(self, p):
        return self.get(p, Ensemble.zero())


class IncompatibleSection(ValueError):
    pass


def _require_elements(poset: FinitePoset, family: Section):
    for p in family:
        if p not in poset.index:
            raise ValueError(f"family key {p!r} is not a poset element")


def nabla(poset: FinitePoset, restrict, family: Section) -> Section:
    """Triangular transform: output at q sums the restrictions from all p >= q,
    in one table per q."""
    _require_elements(poset, family)
    out = Section()
    for q in poset.elements:
        acc = {}
        for p, val in family.items():
            if val and poset.leq(q, p):
                _accumulate(acc, restrict(p, q, val).terms, 1)
        if acc:
            out[q] = _exact(acc)
    return out


def nabla_inverse(poset: FinitePoset, restrict, family: Section) -> Section:
    """Invert :func:`nabla` by back-substitution, tops first: at each q, the
    restrictions of the values found above q are summed in element order
    and subtracted from the family's value at q once."""
    _require_elements(poset, family)
    out = Section()
    for q in reversed(poset.linear_extension()):
        above = [p for p in poset.elements if p in out and poset.leq(q, p)]
        acc = family.value(q)
        if above:
            acc = acc - reduce(add, [restrict(p, q, out[p]) for p in above])
        if acc:
            out[q] = acc
    return out


def extend_to(top, poset: FinitePoset, extend, v: Section):
    """The lift of v to ``top``: the sum of ``extend(top, p, v[p])`` over the
    keys p of v, in element order.  A witness family holds every element,
    so only an empty ensemble family sums to nothing."""
    terms = [extend(top, p, v[p]) for p in poset.elements if p in v]
    return reduce(add, terms) if terms else Ensemble.zero()


def check_compatible(poset: FinitePoset, restrict, family: Section):
    _require_elements(poset, family)
    for p in poset.elements:
        for q in poset.elements:
            if p != q and poset.leq(q, p):
                if restrict(p, q, family.value(p)) != family.value(q):
                    raise IncompatibleSection(
                        f"family is not compatible along {p!r} >= {q!r}"
                    )


def lift_limit(poset: FinitePoset, restrict, extend, compat: Section) -> Ensemble:
    """Produce a top-level element restricting to a given compatible family.

    ``poset`` must have a greatest element; ``compat`` is indexed by the
    remaining elements and is verified to be compatible before lifting.  The
    lift is the extender image of the inverse transform of the family, with
    the top component set to zero.
    """
    _require_elements(poset, compat)
    top = poset.maximum()
    if compat.get(top):
        raise ValueError("input family must not assign the greatest element")
    punctured = poset.without(top)
    compat = Section((p, val) for p, val in compat.items() if p != top)
    check_compatible(punctured, restrict, compat)
    return extend_to(top, punctured, extend, nabla_inverse(punctured, restrict, compat))


def check_restriction_square(poset, restrict, extend, family: Section):
    """The compatibility square between the inverse transform, the extender
    and restriction: at every q, the restriction of the family's lift to
    the top equals the lift to q of its values on the down-set of q, whose
    inverse transform vanishes outside that down-set.  The family is lifted
    to the top once."""
    top = poset.maximum()
    total = extend_to(top, poset, extend, nabla_inverse(poset, restrict, family))
    for q in poset.elements:
        below = Section((p, family[p]) for p in poset.down_set(q) if p in family)
        w = nabla_inverse(poset, restrict, below)
        if restrict(top, q, total) != extend_to(q, poset, extend, w):
            return False
    return True
