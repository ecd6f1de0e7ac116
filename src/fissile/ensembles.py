"""Free abelian groups on arbitrary element universes.

An :class:`Ensemble` is a finite formal integer combination of canonically
encoded elements.  Coefficients are Python ints, hence arbitrary precision;
zero coefficients are never stored.  The group core never interprets
elements: every universe (subsets, layouts, tuples, simplicial morphisms)
supplies its own canonical values, see :mod:`fissile.canon`.
"""

from dataclasses import dataclass

from .canon import ckey, ckey_b64, jsonable


class Ensemble:
    """Finite formal sum ``sum(coeff * <element>)`` with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for el, c in terms.items():
                if c:
                    clean[el] = c
        self.terms = clean

    @staticmethod
    def zero():
        return Ensemble()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Ensemble) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for el, c in other.terms.items():
            out[el] = out.get(el, 0) + c
        return Ensemble(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Ensemble({el: -c for el, c in self.terms.items()})

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Ensemble({el: n * c for el, c in self.terms.items()})

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

    def to_json(self):
        """Sorted array of {key, coeff}; key is the base64 canonical bytes."""
        return [
            {"key": ckey_b64(el), "coeff": str(c)} for el, c in self.sorted_items()
        ]


def singleton(w):
    """The generator ensemble with a single coefficient-1 term."""
    return Ensemble({w: 1})


def augmentation(s: Ensemble) -> int:
    """Sum of coefficients.  Additive in the ensemble."""
    return sum(s.terms.values())


def map_ensemble(f, s: Ensemble) -> Ensemble:
    """Linear pushforward along an element function; colliding images add up.

    Raises whatever ``f`` raises if it is undefined on a support element.
    """
    out = {}
    for el, c in s.terms.items():
        im = f(el)
        out[im] = out.get(im, 0) + c
    return Ensemble(out)


def combining_product(factors, combiner) -> Ensemble:
    """Multilinear product sending a tuple of singletons to one singleton.

    ``combiner`` receives a tuple holding one support element per factor and
    returns the combined element.  The empty factor list yields the singleton
    of ``combiner(())``.
    """
    partial = [((), 1)]
    for factor in factors:
        nxt = []
        for prefix, c in partial:
            for el, d in factor.terms.items():
                nxt.append((prefix + (el,), c * d))
        partial = nxt
    out = {}
    for tup, c in partial:
        el = combiner(tup)
        out[el] = out.get(el, 0) + c
    return Ensemble(out)


@dataclass(frozen=True)
class SubgroupGenerators:
    """A finitely generated subgroup, given by explicit ensemble generators."""

    generators: tuple

    def __init__(self, generators):
        object.__setattr__(self, "generators", tuple(generators))


@dataclass(frozen=True)
class Membership:
    member: bool
    coefficients: tuple | None
    reason: str

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


def _row_echelon(rows):
    """Integer row echelon form with transform: returns (H, U), U*rows == H."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            while h[i][col]:
                a, b = h[r][col], h[i][col]
                if b % a == 0:
                    q = b // a
                    for jj in range(ncols):
                        h[i][jj] -= q * h[r][jj]
                    for jj in range(m):
                        u[i][jj] -= q * u[r][jj]
                else:
                    x, y, g = _xgcd(a, b)
                    mbg, ag = -b // g, a // g
                    for jj in range(ncols):
                        aa, bb = h[r][jj], h[i][jj]
                        h[r][jj] = x * aa + y * bb
                        h[i][jj] = mbg * aa + ag * bb
                    for jj in range(m):
                        aa, bb = u[r][jj], u[i][jj]
                        u[r][jj] = x * aa + y * bb
                        u[i][jj] = mbg * aa + ag * bb
        if h[r][col] < 0:
            h[r] = [-v for v in h[r]]
            u[r] = [-v for v in u[r]]
        r += 1
        if r == m:
            break
    return h, u


def subgroup_membership(v: Ensemble, gens: SubgroupGenerators) -> Membership:
    """Decide whether ``v`` is an integer combination of the generators.

    Positive answers return coefficients (one per generator, verified by
    re-evaluation); negative answers are definite, via an exact integer
    normal form over the coordinate set spanned by all supports.
    """
    coords = set(v.support())
    for g in gens.generators:
        coords |= g.support()
    coords = sorted(coords, key=ckey)
    index = {el: i for i, el in enumerate(coords)}
    gen_coords = set()
    for g in gens.generators:
        gen_coords |= g.support()
    for el in v.support():
        if el not in gen_coords:
            return Membership(False, None, "coordinate outside every generator")
    if not v.terms:
        return Membership(True, (0,) * len(gens.generators), "zero element")
    if not gens.generators:
        return Membership(False, None, "no generators")
    rows = []
    for g in gens.generators:
        row = [0] * len(coords)
        for el, c in g.terms.items():
            row[index[el]] = c
        rows.append(row)
    target = [0] * len(coords)
    for el, c in v.terms.items():
        target[index[el]] = c
    h, u = _row_echelon(rows)
    residual = list(target)
    combo = [0] * len(rows)
    for i, row in enumerate(h):
        piv = next((j for j, val in enumerate(row) if val), None)
        if piv is None:
            break
        if residual[piv] % row[piv] != 0:
            return Membership(False, None, "divisibility obstruction")
        t = residual[piv] // row[piv]
        if t:
            for j in range(len(coords)):
                residual[j] -= t * row[j]
            for j in range(len(rows)):
                combo[j] += t * u[i][j]
    if any(residual):
        return Membership(False, None, "residual outside the lattice")
    check = Ensemble.zero()
    for c, g in zip(combo, gens.generators):
        check = check + c * g
    if check != v:
        raise ValueError("subgroup membership: the combination fails re-evaluation")
    return Membership(True, tuple(combo), "certified combination")
