"""Free abelian groups on arbitrary element universes.

An :class:`Ensemble` is a finite formal integer combination of canonically
encoded elements.  Coefficients are Python ints, hence arbitrary precision;
zero coefficients are never stored.  The group core never interprets
elements: every universe (subsets, layouts, tuples, simplicial morphisms)
supplies its own canonical values, see :mod:`fissile.canon`.  Subgroup
membership is decided exactly against one integer echelon and its pivot
table per generator family, and a member comes with its coefficients.

``Ensemble(terms)`` is the one filter that drops zero coefficients from a
caller's table.  The group operations ``+``, ``-``, unary ``-`` and ``n*``
make one pass each and drop a zero where it arises, so their tables are
taken as they are, without a second filtering copy.  :func:`expand_into`
is the one definition of the multilinear expansion: it adds the product
of coefficient tables into a single table, and :func:`combining_product`
and the cover identities both sum through it.
"""

from functools import cached_property

from .canon import ckey, jsonable


class Ensemble:
    """Finite formal sum ``sum(coeff * <element>)`` with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {el: c for el, c in terms.items() if c} if terms else {}

    @staticmethod
    def zero():
        return Ensemble()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Ensemble) and self.terms == other.terms

    def __add__(self, other):
        return _exact(_accumulate(dict(self.terms), other.terms, 1))

    def __sub__(self, other):
        return _exact(_accumulate(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return _exact({el: -c for el, c in self.terms.items()})

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if not n:
            return Ensemble()
        return _exact({el: n * c for el, c in self.terms.items()})

    __mul__ = __rmul__

    def support(self):
        return set(self.terms)

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: ckey(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "Ensemble(0)"
        bits = " + ".join(f"{c}*<{jsonable(el)}>" for el, c in self.sorted_items())
        return f"Ensemble({bits})"


def singleton(w):
    """The generator ensemble with a single coefficient-1 term."""
    return Ensemble({w: 1})


def augmentation(s: Ensemble) -> int:
    """Sum of coefficients.  Additive in the ensemble."""
    return sum(s.terms.values())


_new = object.__new__


def _exact(terms):
    """The ensemble holding ``terms`` itself, a table already free of zero
    coefficients; every other table goes through ``Ensemble(terms)``."""
    s = _new(Ensemble)
    s.terms = terms
    return s


def _accumulate(out, terms, sign):
    """Add ``sign`` (a nonzero int) times a zero-free table into ``out`` in
    one pass, deleting each entry whose sum cancels.  Keys keep their
    first-insertion order, as a filtered copy of the unfiltered sum would."""
    get = out.get
    for el, c in terms.items():
        c = get(el, 0) + sign * c
        if c:
            out[el] = c
        else:
            del out[el]
    return out


def _without_zeros(out):
    """``out`` itself when no coefficient in it is zero, else the ensemble
    of its nonzero entries."""
    return Ensemble(out) if 0 in out.values() else _exact(out)


def map_ensemble(f, s: Ensemble) -> Ensemble:
    """Linear pushforward along an element function; colliding images add up.

    Raises whatever ``f`` raises if it is undefined on a support element.
    """
    out = {}
    get = out.get
    for el, c in s.terms.items():
        im = f(el)
        out[im] = get(im, 0) + c
    return _without_zeros(out)


def expand_into(out, tables, combiner=None, scale=1):
    """Add ``scale`` times the multilinear product of the coefficient
    tables into the table ``out``, and return it.

    Each tuple holding one key per table, in order, contributes the product
    of their coefficients at ``combiner(tuple)``, or at the tuple itself
    when no combiner is given.  The expansion is exhaustive: nothing is
    collapsed in advance, and sums that cancel stay in ``out`` as zeros.
    """
    partial = [((), scale)]
    for table in tables:
        items = table.items()
        partial = [(tup + (el,), c * d) for tup, c in partial for el, d in items]
    get = out.get
    if combiner is None:
        for tup, c in partial:
            out[tup] = get(tup, 0) + c
    else:
        for tup, c in partial:
            el = combiner(tup)
            out[el] = get(el, 0) + c
    return out


def combining_product(factors, combiner) -> Ensemble:
    """Multilinear product sending a tuple of singletons to one singleton.

    ``combiner`` receives a tuple holding one support element per factor and
    returns the combined element.  The empty factor list yields the singleton
    of ``combiner(())``.
    """
    return _without_zeros(expand_into({}, [f.terms for f in factors], combiner))


class SubgroupGenerators:
    """A finitely generated subgroup, given by explicit ensemble generators,
    with its coordinate index, integer echelon and pivot table, each built
    on first use."""

    def __init__(self, generators):
        self.generators = tuple(generators)

    @cached_property
    def index(self):
        """Position of each coordinate of the generators' support."""
        support = set().union(*(g.terms for g in self.generators))
        return {el: i for i, el in enumerate(sorted(support, key=ckey))}

    @cached_property
    def echelon(self):
        """(H, recorded operations) of the generators' coordinate rows."""
        rows = []
        for g in self.generators:
            row = [0] * len(self.index)
            for el, c in g.terms.items():
                row[self.index[el]] = c
            rows.append(row)
        return _echelon_form(rows)

    @cached_property
    def pivots(self):
        """(pivot column, row from that column on) of each nonzero row of H,
        in row order; H's zero rows all come after its nonzero rows."""
        out = []
        for row in self.echelon[0]:
            piv = next((j for j, val in enumerate(row) if val), None)
            if piv is None:
                break
            out.append((piv, row[piv:]))
        return out


class Membership:
    __slots__ = ("member", "coefficients", "reason")

    def __init__(self, member: bool, coefficients: tuple | None, reason: str):
        self.member, self.coefficients, self.reason = member, coefficients, reason

    def __bool__(self):
        return self.member


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _echelon_form(rows):
    """Integer row echelon form H of ``rows`` and its recorded operations:
    ``(r, i, a, b, c, d)`` set row r to a*row_r + b*row_i and row i to
    c*row_r + d*row_i.  Their product is the transform U, U*rows == H."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    h = [list(r) for r in rows]
    ops = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            ops.append((r, piv, 0, 1, 1, 0))
        for i in range(r + 1, m):
            while h[i][col]:
                a, b = h[r][col], h[i][col]
                if b % a == 0:
                    q = b // a
                    for jj in range(ncols):
                        h[i][jj] -= q * h[r][jj]
                    ops.append((r, i, 1, 0, -q, 1))
                else:
                    x, y, g = _xgcd(a, b)
                    mbg, ag = -b // g, a // g
                    for jj in range(ncols):
                        aa, bb = h[r][jj], h[i][jj]
                        h[r][jj] = x * aa + y * bb
                        h[i][jj] = mbg * aa + ag * bb
                    ops.append((r, i, x, y, mbg, ag))
        r += 1
        if r == m:
            break
    return h, ops


def subgroup_membership(v: Ensemble, gens: SubgroupGenerators) -> Membership:
    """Decide whether ``v`` is an integer combination of the generators.

    The generators' echelon H and its pivot table are built once per
    :class:`SubgroupGenerators`.  A target is reduced against H's pivots,
    one multiplier per row, from each pivot column on, since H is zero left
    of its pivots; the coefficients (one per generator) are those
    multipliers pushed back through the recorded row operations in reverse,
    and are verified by re-evaluation.  Negative answers are definite: a
    coordinate outside every generator, a pivot that does not divide, or a
    nonzero residual.
    """
    index = gens.index
    for el in v.terms:
        if el not in index:
            return Membership(False, None, "coordinate outside every generator")
    if not v.terms:
        return Membership(True, (0,) * len(gens.generators), "zero element")
    residual = [0] * len(index)
    for el, c in v.terms.items():
        residual[index[el]] = c
    combo = [0] * len(gens.generators)
    for i, (piv, row) in enumerate(gens.pivots):
        t, rest = divmod(residual[piv], row[0])
        if rest:
            return Membership(False, None, "divisibility obstruction")
        if t:
            combo[i] = t
            residual[piv:] = [x - t * y for x, y in zip(residual[piv:], row)]
    if any(residual):
        return Membership(False, None, "residual outside the lattice")
    for r, i, a, b, c, d in reversed(gens.echelon[1]):
        combo[r], combo[i] = a * combo[r] + c * combo[i], b * combo[r] + d * combo[i]
    check = {}
    for c, g in zip(combo, gens.generators):
        if c:
            _accumulate(check, g.terms, c)
    if check != v.terms:
        raise ValueError("subgroup membership: the combination fails re-evaluation")
    return Membership(True, tuple(combo), "certified combination")
