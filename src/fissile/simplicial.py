"""Dimension-truncated simplicial sets and based morphisms.

Every simplicial set stores, per dimension up to an explicit bound, the full
(finite) simplex list together with total face and degeneracy tables; the
simplicial identities are checked exhaustively on construction.  Simplex
keys are nested tuples of primitives so that they serialize canonically.

Cone simplices are pairs (t, y): t is a monotone 0/1 tuple recording, slot
by slot, whether the simplex runs along the apex or the base, and y is the
base-part simplex (None when the slot set is pure apex).  For the
apex-at-0 cone the apex slots are the 0s; for the apex-at-1 cone they are
the 1s.  Quotients keep survivor keys and collapse the removed subset to a
'*' key per dimension; the quotient of anything by the empty subset adds a
disjoint basepoint.
"""

from itertools import product

from .canon import ckey, jsonable

BASE = "*"


class SimplicialError(Exception):
    """A simplicial set or morphism table fails one of its structural
    checks; the message names the check and the object."""


class FiniteSimplicialSet:
    def __init__(self, bound, simplices, faces, degens, basepoint=None, label=None, check=True):
        self.bound = bound
        self.simplices = [tuple(sorted(level, key=ckey)) for level in simplices]
        self.level_sets = [frozenset(level) for level in self.simplices]
        self.faces = faces
        self.degens = degens
        self.basepoint = basepoint
        self.label = label
        self._nondeg = None
        self._ez = None
        if check:
            self._validate()

    # -- structure access ------------------------------------------------

    def face(self, n, i, x):
        return self.faces[n][x][i]

    def degen(self, n, i, x):
        return self.degens[n][x][i]

    def level(self, n):
        return self.simplices[n]

    def has(self, n, x):
        return x in self.level_sets[n]

    def nondegenerate(self, n):
        if self._nondeg is None:
            self._nondeg = []
            for m in range(self.bound + 1):
                if m == 0:
                    self._nondeg.append(tuple(self.simplices[0]))
                    continue
                degenerate = set()
                for y in self.simplices[m - 1]:
                    degenerate.update(self.degens[m - 1][y])
                self._nondeg.append(
                    tuple(x for x in self.simplices[m] if x not in degenerate)
                )
        return self._nondeg[n]

    def eilenberg_zilber(self, n, x):
        """Decompose x as iterated degeneracies of a nondegenerate simplex:
        returns (ops, m, y) with x = s_{ops[0]} ... s_{ops[-1]} y, where
        ops[0] is the least i with x in the image of s_i."""
        if self._ez is None:
            ez = [{y: ((), 0, y) for y in self.simplices[0]}]
            for m in range(1, self.bound + 1):
                level = {}
                for y in self.simplices[m - 1]:
                    ops, k, z = ez[m - 1][y]
                    for i, d in enumerate(self.degens[m - 1][y]):
                        if d not in level or i < level[d][0][0]:
                            level[d] = ((i,) + ops, k, z)
                for y in self.simplices[m]:
                    level.setdefault(y, ((), m, y))
                ez.append(level)
            self._ez = ez
        return self._ez[n][x]

    def is_based(self):
        return self.basepoint is not None

    def basepoint_at(self, n):
        """The n-fold degenerate basepoint."""
        x = self.basepoint
        for m in range(n):
            x = self.degens[m][x][0]
        return x

    def basepoint_levels(self):
        return tuple(self.basepoint_at(n) for n in range(self.bound + 1))

    def size(self):
        return sum(len(level) for level in self.simplices)

    # -- validation ------------------------------------------------------

    def _fail(self, check, n):
        raise SimplicialError(f"{check} in {self.label!r} at dimension {n}")

    def _validate(self):
        if len(self.simplices) != self.bound + 1:
            self._fail("level count differs from the bound", self.bound)
        sets, faces, degens = self.level_sets, self.faces, self.degens
        for n in range(self.bound + 1):
            level = sets[n]
            if len(level) != len(self.simplices[n]):
                self._fail("duplicate simplices", n)
            if n >= 1:
                below = sets[n - 1]
                if faces[n].keys() != level:
                    self._fail("face table not total", n)
                for row in faces[n].values():
                    if len(row) != n + 1 or not below.issuperset(row):
                        self._fail("face outside the level below", n)
            if n < self.bound:
                above = sets[n + 1]
                if degens[n].keys() != level:
                    self._fail("degeneracy table not total", n)
                for row in degens[n].values():
                    if len(row) != n + 1 or not above.issuperset(row):
                        self._fail("degeneracy outside the level above", n)
        for n in range(2, self.bound + 1):
            fn, fb = faces[n], faces[n - 1]
            for x in self.simplices[n]:
                row = fn[x]
                for j in range(n + 1):
                    dj = fb[row[j]]
                    for i in range(j):
                        if dj[i] != fb[row[i]][j - 1]:
                            self._fail("face identity fails", n)
        for n in range(self.bound):
            fa, dn = faces[n + 1], degens[n]
            fn, db = faces[n], degens[n - 1] if n else None
            for x in self.simplices[n]:
                srow = dn[x]
                for j in range(n + 1):
                    frow = fa[srow[j]]
                    for i in range(n + 2):
                        if i == j or i == j + 1:
                            ok = frow[i] == x
                        elif i < j:
                            ok = frow[i] == db[fn[x][i]][j - 1]
                        else:
                            ok = frow[i] == db[fn[x][i - 1]][j]
                        if not ok:
                            self._fail("face of degeneracy fails", n)
        for n in range(self.bound - 1):
            dn, da = degens[n], degens[n + 1]
            for x in self.simplices[n]:
                srow = dn[x]
                for j in range(n + 1):
                    sj = da[srow[j]]
                    for i in range(j + 1):
                        if da[srow[i]][j + 1] != sj[i]:
                            self._fail("degeneracy identity fails", n)
        for n in range(self.bound):
            rows = degens[n].values()
            for i in range(n + 1):
                if len({row[i] for row in rows}) != len(rows):
                    self._fail("degeneracy not injective", n)
        if self.basepoint is not None and self.basepoint not in sets[0]:
            self._fail("basepoint outside the vertices", 0)

    def to_json(self):
        """Per-dimension simplex tables with face and degeneracy matrices."""
        out = {"bound": self.bound, "levels": []}
        for n in range(self.bound + 1):
            out["levels"].append(
                {
                    "simplices": [jsonable(x) for x in self.simplices[n]],
                    "faces": [
                        [jsonable(x), [jsonable(f) for f in self.faces[n][x]]]
                        for x in self.simplices[n]
                    ]
                    if n
                    else [],
                    "degeneracies": [
                        [jsonable(x), [jsonable(d) for d in self.degens[n][x]]]
                        for x in self.simplices[n]
                    ]
                    if n < self.bound
                    else [],
                }
            )
        if self.basepoint is not None:
            out["basepoint"] = jsonable(self.basepoint)
        return out


class SMorphism:
    """A simplicial morphism as total per-dimension tables; commutation with
    faces and degeneracies is checked exhaustively on construction."""

    __slots__ = ("domain", "codomain", "maps", "_key")

    def __init__(self, domain, codomain, maps, check=True):
        self.domain = domain
        self.codomain = codomain
        self.maps = tuple(dict(m) for m in maps)
        self._key = None
        if check:
            self._validate()

    def _fail(self, check, n):
        raise SimplicialError(
            f"morphism {self.domain.label!r} -> {self.codomain.label!r}: "
            f"{check} at dimension {n}"
        )

    def _validate(self):
        t, z = self.domain, self.codomain
        bound = t.bound
        if z.bound < bound:
            self._fail("codomain truncated below the domain", bound)
        maps = self.maps
        for n in range(bound + 1):
            if maps[n].keys() != t.level_sets[n]:
                self._fail("table not total", n)
            if not z.level_sets[n].issuperset(maps[n].values()):
                self._fail("value outside codomain", n)
        for n in range(1, bound + 1):
            m, below, tf, zf = maps[n], maps[n - 1], t.faces[n], z.faces[n]
            for x, row in tf.items():
                if tuple(map(below.__getitem__, row)) != zf[m[x]]:
                    self._fail("morphism does not commute with faces", n)
        for n in range(bound):
            m, above, td, zd = maps[n], maps[n + 1], t.degens[n], z.degens[n]
            for x, row in td.items():
                if tuple(map(above.__getitem__, row)) != zd[m[x]]:
                    self._fail("morphism does not commute with degeneracies", n)

    def is_based(self):
        if self.domain.basepoint is None or self.codomain.basepoint is None:
            return False
        return self.maps[0][self.domain.basepoint] == self.codomain.basepoint

    def __call__(self, n, x):
        return self.maps[n][x]

    def table_key(self):
        """The rows (n, x, value) over the nondegenerate x, in the order of
        their ckeys, without computing one.  A row encodes as "[n,x,value]":
        the dimensions order as their decimal text followed by "," (so 10
        falls between 1 and 2), and within a dimension the domain's level
        order is the ckey order of x, which stays the row order because x
        is unique there and "," sorts below every character that can extend
        a JSON value (only a number can be extended)."""
        if self._key is None:
            dom = self.domain
            self._key = tuple(
                (n, x, self.maps[n][x])
                for n in sorted(range(dom.bound + 1), key=lambda n: f"{n},")
                for x in dom.nondegenerate(n)
            )
        return self._key

    def canonical_payload(self):
        return ("morphism", self.table_key())

    def __eq__(self, other):
        return isinstance(other, SMorphism) and self.table_key() == other.table_key()

    def __hash__(self):
        return hash(self.table_key())

    def __repr__(self):
        return f"SMorphism({jsonable(self.table_key())!r})"

    def is_injective(self):
        return all(
            len(set(self.maps[n].values())) == len(self.maps[n])
            for n in range(self.domain.bound + 1)
        )


def compose(g: SMorphism, f: SMorphism) -> SMorphism:
    maps = []
    for n in range(f.domain.bound + 1):
        maps.append({x: g.maps[n][y] for x, y in f.maps[n].items()})
    return SMorphism(f.domain, g.codomain, maps, check=False)


def constant_morphism(t, z, vertex) -> SMorphism:
    maps = []
    x = vertex
    for n in range(t.bound + 1):
        maps.append({s: x for s in t.simplices[n]})
        if n < t.bound:
            x = z.degen(n, 0, x)
    return SMorphism(t, z, maps)


# -- basic constructions --------------------------------------------------


def standard_simplex(n, bound):
    """Monotone tuples into {0..n}; faces delete slots, degeneracies repeat."""
    simplices, faces, degens = [], [], []
    for m in range(bound + 1):
        level = [
            t
            for t in product(range(n + 1), repeat=m + 1)
            if all(t[i] <= t[i + 1] for i in range(m))
        ]
        simplices.append(level)
        faces.append(
            {t: tuple(t[:i] + t[i + 1 :] for i in range(m + 1)) for t in level}
            if m
            else {}
        )
        if m < bound:
            degens.append(
                {t: tuple(t[: i + 1] + t[i:] for i in range(m + 1)) for t in level}
            )
        else:
            degens.append({})
    label = ("standard", n, bound)
    return FiniteSimplicialSet(bound, simplices, faces, degens, label=label)


def point(bound, based=True):
    p = standard_simplex(0, bound)
    if based:
        p.basepoint = (0,)
    return p


def thick_simplex(letters, bound):
    """All tuples over the letter set; faces delete, degeneracies repeat."""
    letters = tuple(sorted(set(letters)))
    simplices, faces, degens = [], [], []
    for m in range(bound + 1):
        level = list(product(letters, repeat=m + 1))
        simplices.append(level)
        faces.append(
            {t: tuple(t[:i] + t[i + 1 :] for i in range(m + 1)) for t in level}
            if m
            else {}
        )
        if m < bound:
            degens.append(
                {t: tuple(t[: i + 1] + t[i:] for i in range(m + 1)) for t in level}
            )
        else:
            degens.append({})
    return FiniteSimplicialSet(
        bound, simplices, faces, degens, label=("thick", letters, bound)
    )


def nerve(elements, leq, bound, label=None):
    """Nerve of a finite poset: monotone chains with repetition."""
    elements = tuple(sorted(elements, key=ckey))
    simplices, faces, degens = [], [], []
    for m in range(bound + 1):
        level = [
            c
            for c in product(elements, repeat=m + 1)
            if all(leq(c[i], c[i + 1]) for i in range(m))
        ]
        simplices.append(level)
        faces.append(
            {c: tuple(c[:i] + c[i + 1 :] for i in range(m + 1)) for c in level}
            if m
            else {}
        )
        if m < bound:
            degens.append(
                {c: tuple(c[: i + 1] + c[i:] for i in range(m + 1)) for c in level}
            )
        else:
            degens.append({})
    return FiniteSimplicialSet(bound, simplices, faces, degens, label=label)


# -- abstract complexes and barycentric subdivision ------------------------


class AbstractComplex:
    """A family of nonempty finite vertex sets closed under nonempty subsets."""

    def __init__(self, simplices):
        simps = set()
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not s:
                raise ValueError("complex simplices must be nonempty")
            for k in range(1, len(s) + 1):
                from itertools import combinations

                simps.update(tuple(sorted(c)) for c in combinations(s, k))
        self.simplices = tuple(sorted(simps, key=ckey))
        self.vertices = tuple(sorted({v for s in self.simplices for v in s}))

    def is_subcomplex_of(self, other):
        return set(self.simplices) <= set(other.simplices)


def full_complex(vertices):
    vertices = tuple(sorted(set(vertices)))
    return AbstractComplex([vertices]) if vertices else AbstractComplex([])


def layout_complex(layout):
    """Disjoint faces: one full simplex per block of the layout."""
    return AbstractComplex(list(layout)) if layout else AbstractComplex([])


def barycentric(k: AbstractComplex, bound):
    """Nerve of the simplices ordered by reverse inclusion: chains descend."""
    if not k.simplices:
        return FiniteSimplicialSet(
            bound,
            [[] for _ in range(bound + 1)],
            [{} for _ in range(bound + 1)],
            [{} for _ in range(bound + 1)],
            label=("barycentric", (), bound),
        )
    return nerve(
        k.simplices,
        lambda x, y: set(x) >= set(y),
        bound,
        label=("barycentric", k.simplices, bound),
    )


# -- cones, quotients, wedges ----------------------------------------------


def _cone_slots(t, s):
    """Indices of the base slots of a cone simplex label t."""
    return tuple(i for i, v in enumerate(t) if v == (1 - s))


def cone(u: FiniteSimplicialSet, s: int, check=True) -> FiniteSimplicialSet:
    """The cone over u fibered over the interval, apex on the s side.

    Simplices are pairs (t, y); t is a monotone 0/1 tuple, y the base part
    of dimension (number of base slots) - 1, None for pure apex.
    """
    if s not in (0, 1):
        raise ValueError("cone side must be 0 or 1")
    bound = u.bound
    simplices, faces, degens = [], [], []
    for m in range(bound + 1):
        level = []
        for t in product((0, 1), repeat=m + 1):
            if any(t[i] > t[i + 1] for i in range(m)):
                continue
            base = _cone_slots(t, s)
            if base:
                level.extend((t, y) for y in u.simplices[len(base) - 1])
            else:
                level.append((t, None))
        simplices.append(level)
        fc = {}
        if m:
            for t, y in level:
                base = _cone_slots(t, s)
                row = []
                for i in range(m + 1):
                    t2 = t[:i] + t[i + 1 :]
                    if i in base:
                        j = base.index(i)
                        if len(base) == 1:
                            row.append((t2, None))
                        else:
                            row.append((t2, u.face(len(base) - 1, j, y)))
                    else:
                        row.append((t2, y))
                fc[(t, y)] = tuple(row)
        faces.append(fc)
        dg = {}
        if m < bound:
            for t, y in level:
                base = _cone_slots(t, s)
                row = []
                for i in range(m + 1):
                    t2 = t[: i + 1] + t[i:]
                    if i in base:
                        j = base.index(i)
                        row.append((t2, u.degen(len(base) - 1, j, y)))
                    else:
                        row.append((t2, y))
                dg[(t, y)] = tuple(row)
        degens.append(dg)
    out = FiniteSimplicialSet(
        bound,
        simplices,
        faces,
        degens,
        basepoint=((s,), None),
        label=("cone", s, u.label),
        check=check,
    )
    return out


def base_embedding(u, c, s) -> SMorphism:
    """The inclusion of u as the base of its cone."""
    maps = []
    for n in range(u.bound + 1):
        t = ((1 - s),) * (n + 1)
        maps.append({x: (t, x) for x in u.simplices[n]})
    return SMorphism(u, c, maps)


def cone_projection(c, s) -> SMorphism:
    """Projection of the cone to the interval; cone labels are its simplices."""
    interval = standard_simplex(1, c.bound)
    maps = []
    for n in range(c.bound + 1):
        maps.append({(t, y): t for (t, y) in c.simplices[n]})
    return SMorphism(c, interval, maps)


def cone_map(f: SMorphism, s, cdom=None, ccod=None) -> SMorphism:
    """Functoriality of the cone."""
    cdom = cdom if cdom is not None else cone(f.domain, s)
    ccod = ccod if ccod is not None else cone(f.codomain, s)
    maps = []
    for n in range(cdom.bound + 1):
        level = {}
        for t, y in cdom.simplices[n]:
            base = _cone_slots(t, s)
            level[(t, y)] = (t, f.maps[len(base) - 1][y]) if base else (t, None)
        maps.append(level)
    return SMorphism(cdom, ccod, maps)


def subsimplicial(u, member, basepoint=None, label=None, check=True):
    """The simplicial subset of all simplices satisfying ``member(n, x)``."""
    simplices = [
        [x for x in u.simplices[n] if member(n, x)] for n in range(u.bound + 1)
    ]
    keep = [set(level) for level in simplices]
    faces, degens = [], []
    for n in range(u.bound + 1):
        if n:
            fc = {}
            for x in simplices[n]:
                row = u.faces[n][x]
                assert all(f in keep[n - 1] for f in row), "subset not closed"
                fc[x] = row
            faces.append(fc)
        else:
            faces.append({})
        if n < u.bound:
            dg = {}
            for x in simplices[n]:
                row = u.degens[n][x]
                assert all(d in keep[n + 1] for d in row), "subset not closed"
                dg[x] = row
            degens.append(dg)
        else:
            degens.append({})
    return FiniteSimplicialSet(
        u.bound, simplices, faces, degens, basepoint=basepoint, label=label, check=check
    )


def inclusion(sub, sup) -> SMorphism:
    """The identity table of sub into sup, which contains it with the same
    keys; inclusion(u, u) is the identity of u."""
    return SMorphism(
        sub, sup, [{x: x for x in level} for level in sub.simplices], check=False
    )


def quotient(u, removed_levels, label=None):
    """Collapse a simplicial subset (given per level) to the basepoint.

    Quotient by the empty subset adds a disjoint basepoint instead.
    """
    bound = u.bound
    removed = [set(level) for level in removed_levels]
    simplices, faces, degens = [], [], []
    for n in range(bound + 1):
        level = [x for x in u.simplices[n] if x not in removed[n]]
        level.append(BASE)
        simplices.append(level)
        if n:
            fc = {BASE: (BASE,) * (n + 1)}
            for x in u.simplices[n]:
                if x in removed[n]:
                    continue
                fc[x] = tuple(
                    BASE if f in removed[n - 1] else f for f in u.faces[n][x]
                )
            faces.append(fc)
        else:
            faces.append({})
        if n < bound:
            dg = {BASE: (BASE,) * (n + 1)}
            for x in u.simplices[n]:
                if x in removed[n]:
                    continue
                dg[x] = u.degens[n][x]
            degens.append(dg)
        else:
            degens.append({})
    return FiniteSimplicialSet(
        bound, simplices, faces, degens, basepoint=BASE, label=label
    )


def quotient_projection(u, q) -> SMorphism:
    maps = []
    for n in range(u.bound + 1):
        level = {}
        qlevel = q.level_sets[n]
        for x in u.simplices[n]:
            level[x] = x if x in qlevel else q.basepoint_at(n)
        maps.append(level)
    return SMorphism(u, q, maps)


def generated_subset_levels(u, seeds):
    """Level sets of the simplicial subset generated by seed simplices."""
    levels = [set() for _ in range(u.bound + 1)]
    stack = list(seeds)
    while stack:
        n, x = stack.pop()
        if x in levels[n]:
            continue
        levels[n].add(x)
        if n:
            for f in u.faces[n][x]:
                stack.append((n - 1, f))
        if n < u.bound:
            for d in u.degens[n][x]:
                stack.append((n + 1, d))
    return levels


def induce_through(p: SMorphism, g: SMorphism) -> SMorphism:
    """The morphism h with h . p == g for levelwise-surjective p; when the
    target has a free basepoint outside the image, it goes to the basepoint
    (both sides must then be based)."""
    maps = []
    for n in range(p.codomain.bound + 1):
        level = {}
        for x, px in p.maps[n].items():
            gx = g.maps[n][x]
            if px in level:
                assert level[px] == gx, "map does not descend through the quotient"
            else:
                level[px] = gx
        for y in p.codomain.simplices[n]:
            if y not in level:
                assert y == p.codomain.basepoint_at(n), "projection not surjective"
                level[y] = g.codomain.basepoint_at(n)
        maps.append(level)
    return SMorphism(p.codomain, g.codomain, maps)


# -- named compound constructions ------------------------------------------


def reduced_cone(t: FiniteSimplicialSet, label=None):
    """Cone at the 0 side with the cone over the basepoint collapsed.

    Returns (čT, inclusion T -> čT, projection ČT -> čT, ČT).
    """
    if t.basepoint is None:
        raise ValueError("reduced cone needs a based input")
    c = cone(t, 0)
    fixed = []
    for n in range(t.bound + 1):
        for apexes in range(n + 2):
            tt = (0,) * apexes + (1,) * (n + 1 - apexes)
            if apexes == n + 1:
                fixed.append((n, (tt, None)))
            else:
                fixed.append((n, (tt, t.basepoint_at(n - apexes))))
    levels = generated_subset_levels(c, fixed)
    q = quotient(c, levels, label=("redcone", t.label) if label is None else label)
    proj = quotient_projection(c, q)
    inc_maps = []
    for n in range(t.bound + 1):
        tt = (1,) * (n + 1)
        inc_maps.append({x: proj.maps[n][(tt, x)] for x in t.simplices[n]})
    inc = SMorphism(t, q, inc_maps)
    return q, inc, proj, c


def reduced_cone_map(f: SMorphism, rdom, rcod) -> SMorphism:
    """Functoriality of the reduced cone on a based morphism."""
    qd, _, projd, cd = rdom
    qz, _, projz, cz = rcod
    cf = cone_map(f, 0, cdom=cd, ccod=cz)
    return induce_through(projd, compose(projz, cf))


def kan_suspension(u: FiniteSimplicialSet):
    """Cone at the 1 side with the base collapsed; two vertices when the
    input is nonempty: the top (image of the apex) and the basepoint.

    Returns (suspension, projection from the cone, top vertex key).
    """
    c = cone(u, 1)
    removed = []
    for n in range(u.bound + 1):
        tt = (0,) * (n + 1)
        removed.append({(tt, x) for x in u.simplices[n]})
    q = quotient(c, removed, label=("suspension", u.label))
    proj = quotient_projection(c, q)
    top = ((1,), None)
    assert q.has(0, top)
    return q, proj, top


def suspension_top_at(susp, n):
    x = ((1,), None)
    for m in range(n):
        x = susp.degen(m, 0, x)
    return x


def wedge(parts, label=None):
    """Coproduct with basepoints identified; returns (object, insertions)."""
    bound = parts[0].bound
    assert all(p.bound == bound for p in parts)
    assert all(p.basepoint is not None for p in parts)
    bps = [p.basepoint_levels() for p in parts]
    simplices, faces, degens = [], [], []
    for n in range(bound + 1):
        level = [BASE]
        for j, p in enumerate(parts):
            level.extend((j, x) for x in p.simplices[n] if x != bps[j][n])
        simplices.append(level)

        def tag(j, x, m):
            return BASE if x == bps[j][m] else (j, x)

        if n:
            fc = {BASE: (BASE,) * (n + 1)}
            for j, p in enumerate(parts):
                for x in p.simplices[n]:
                    if x == bps[j][n]:
                        continue
                    fc[(j, x)] = tuple(tag(j, f, n - 1) for f in p.faces[n][x])
            faces.append(fc)
        else:
            faces.append({})
        if n < bound:
            dg = {BASE: (BASE,) * (n + 1)}
            for j, p in enumerate(parts):
                for x in p.simplices[n]:
                    if x == bps[j][n]:
                        continue
                    dg[(j, x)] = tuple(tag(j, d, n + 1) for d in p.degens[n][x])
            degens.append(dg)
        else:
            degens.append({})
    w = FiniteSimplicialSet(
        bound,
        simplices,
        faces,
        degens,
        basepoint=BASE,
        label=label if label is not None else ("wedge", tuple(p.label for p in parts)),
    )
    insertions = []
    for j, p in enumerate(parts):
        maps = []
        for n in range(bound + 1):
            maps.append(
                {
                    x: (BASE if x == bps[j][n] else (j, x))
                    for x in p.simplices[n]
                }
            )
        insertions.append(SMorphism(p, w, maps))
    return w, insertions


def wedge_combine(w, insertions, morphisms, codomain=None) -> SMorphism:
    """The morphism out of a wedge assembled from per-part based morphisms.

    ``codomain`` may enlarge the target when the parts land in different
    subsets of one ambient simplicial set.
    """
    assert all(f.is_based() for f in morphisms)
    z = codomain if codomain is not None else morphisms[0].codomain
    maps = []
    for n in range(w.bound + 1):
        base = w.basepoint_at(n)
        level = {base: z.basepoint_at(n)}
        for j, f in enumerate(morphisms):
            keys = insertions[j].maps[n]
            for x, fx in f.maps[n].items():
                key = keys[x]
                if key != base:
                    level[key] = fx
        maps.append(level)
    return SMorphism(w, z, maps)


def disjoint_basepoint(u: FiniteSimplicialSet, label=None):
    """u with a free basepoint adjoined (quotient by the empty subset)."""
    return quotient(
        u,
        [set() for _ in range(u.bound + 1)],
        label=label if label is not None else ("plus", u.label),
    )


def plus_base(c: FiniteSimplicialSet, label=None):
    """Inside a 0-side cone: the based subset made of the full base copy and
    the apex, isomorphic to the base with a free basepoint."""

    def member(n, key):
        t, y = key
        return all(v == 1 for v in t) or all(v == 0 for v in t)

    return subsimplicial(
        c,
        member,
        basepoint=c.basepoint,
        label=label if label is not None else ("plusbase", c.label),
    )


def plus_base_iso(c: FiniteSimplicialSet, rplus) -> SMorphism:
    """The canonical isomorphism from a 0-side cone over u to the reduced
    cone of (base copy of u with free basepoint).

    ``rplus`` is the reduced_cone(...) tuple of :func:`plus_base` of ``c``.
    """
    q, _inc, proj, _ct = rplus
    maps = []
    for n in range(c.bound + 1):
        level = {}
        for t, y in c.simplices[n]:
            if y is None:
                level[(t, y)] = q.basepoint_at(n)
            else:
                base_len = sum(1 for v in t if v == 1)
                inner = ((1,) * base_len, y)
                level[(t, y)] = proj.maps[n][(t, inner)]
        maps.append(level)
    out = SMorphism(c, q, maps)
    for n in range(c.bound + 1):
        values = set(out.maps[n].values())
        assert len(values) == len(q.simplices[n]) == len(c.simplices[n])
    return out


def apex_substitution(cca, ca, letter) -> SMorphism:
    """The retraction of the 0-cone over a 1-cone on a thick simplex back to
    the 1-cone: outer apex slots turn into copies of the given letter,
    which the thick simplex absorbs."""
    maps = []
    for n in range(cca.bound + 1):
        level = {}
        for t, y in cca.simplices[n]:
            outer = sum(1 for v in t if v == 0)
            if y is None:
                level[(t, y)] = ((0,) * (n + 1), (letter,) * (n + 1))
                continue
            t_in, z = y
            inner_base = sum(1 for v in t_in if v == 0)
            inner_apex = len(t_in) - inner_base
            zz = (letter,) * outer + (z if z is not None else ())
            t_new = (0,) * (outer + inner_base) + (1,) * inner_apex
            level[(t, y)] = (t_new, zz if zz else None)
        maps.append(level)
    return SMorphism(cca, ca, maps)


class ContractionTower:
    """Everything around one thick simplex: its 1-cone, suspension, reduced
    cone of the suspension, and the canonical contraction for one letter."""

    def __init__(self, letters, bound):
        self.letters = tuple(sorted(set(letters)))
        self.bound = bound
        self.thick = thick_simplex(self.letters, bound)
        self.hat_cone = cone(self.thick, 1)
        self.susp, self.susp_proj, self.top = kan_suspension(self.thick)
        self.reduced = reduced_cone(self.susp)
        self.contractions = {}

    def suspension(self):
        return self.susp

    def contraction(self, letter) -> SMorphism:
        if letter not in self.letters and self.letters:
            raise ValueError(f"{letter!r} is not a letter of the thick simplex")
        if letter in self.contractions:
            return self.contractions[letter]
        cca = cone(self.hat_cone, 0)
        sigma_tilde = apex_substitution(cca, self.hat_cone, letter)
        csusp = cone(self.susp, 0)
        cq = cone_map(self.susp_proj, 0, cdom=cca, ccod=csusp)
        sigma_bar = induce_through(cq, compose(self.susp_proj, sigma_tilde))
        red, inc, proj, _c = self.reduced
        sigma = induce_through(proj, sigma_bar)
        assert compose(sigma, inc) == inclusion(self.susp, self.susp)
        self.contractions[letter] = sigma
        return sigma


def count_retractions_with_apex_image(cca, ca, base_incl, apex_image, cap=8):
    """Diagnostic search: how many retractions of the 0-cone send the apex to
    the prescribed vertex.  Exhaustive, so keep the bound tiny."""
    found = []
    base_fixed = {}
    for n in range(cca.bound + 1):
        for x in base_incl.domain.simplices[n]:
            base_fixed[(n, base_incl.maps[n][x])] = x
    slots = []
    for n in range(cca.bound + 1):
        for x in cca.nondegenerate(n):
            if (n, x) not in base_fixed:
                slots.append((n, x))

    def rec(idx, maps):
        if len(found) >= cap:
            return
        if idx == len(slots):
            try:
                found.append(SMorphism(cca, ca, maps))
            except SimplicialError:
                pass
            return
        n, x = slots[idx]
        for val in ca.simplices[n]:
            ok = n == 0 or all(
                cca.face(n, i, x) not in maps[n - 1]
                or maps[n - 1][cca.face(n, i, x)] == ca.face(n, i, val)
                for i in range(n + 1)
            )
            if not ok:
                continue
            trial = [dict(level) for level in maps]
            trial[n][x] = val
            for m in range(cca.bound):
                for y, v in list(trial[m].items()):
                    for i in range(m + 1):
                        dy = cca.degen(m, i, y)
                        trial[m + 1].setdefault(dy, ca.degen(m, i, v))
            rec(idx + 1, trial)

    start = [dict() for _ in range(cca.bound + 1)]
    for n in range(cca.bound + 1):
        for x in base_incl.domain.simplices[n]:
            start[n][base_incl.maps[n][x]] = x
    start[0][cca.basepoint] = apex_image
    for m in range(cca.bound):
        for y, v in list(start[m].items()):
            for i in range(m + 1):
                dy = cca.degen(m, i, y)
                start[m + 1].setdefault(dy, ca.degen(m, i, v))
    rec(0, start)
    return found


def complex_intersection(k: AbstractComplex, l: AbstractComplex) -> AbstractComplex:
    common = set(k.simplices) & set(l.simplices)
    out = AbstractComplex.__new__(AbstractComplex)
    out.simplices = tuple(sorted(common, key=ckey))
    out.vertices = tuple(sorted({v for s in common for v in s}))
    return out


def canonical_retraction(k: AbstractComplex, l: AbstractComplex, bound,
                         cone_k=None, cone_l=None) -> SMorphism:
    """The based retraction of the coned subdivision of a complex onto that
    of a subcomplex, sending every vertex outside it to the apex.

    Chains descend along inclusion, and the entries outside the subcomplex
    form a prefix, which the retraction turns into apex slots.
    """
    if not l.is_subcomplex_of(k):
        raise ValueError("second complex must be a subcomplex of the first")
    ck = cone_k if cone_k is not None else cone(barycentric(k, bound), 0)
    cl = cone_l if cone_l is not None else cone(barycentric(l, bound), 0)
    lset = set(l.simplices)
    maps = []
    for n in range(ck.bound + 1):
        level = {}
        for t, chain in ck.simplices[n]:
            if chain is None:
                level[(t, chain)] = (t, None)
                continue
            keep = 0
            while keep < len(chain) and chain[keep] not in lset:
                keep += 1
            suffix = chain[keep:]
            new_t = (0,) * (n + 1 - len(suffix)) + (1,) * len(suffix)
            level[(t, chain)] = (new_t, suffix if suffix else None)
        maps.append(level)
    return SMorphism(ck, cl, maps)


# -- morphism enumeration ---------------------------------------------------


class EnumerationGuard(RuntimeError):
    pass


def enumerate_based_morphisms(t, z, cap=200000):
    """All based morphisms from t to z, deterministically ordered.

    Backtracks over images of nondegenerate simplices by increasing
    dimension, pruning by face compatibility.
    """
    if t.basepoint is None or z.basepoint is None:
        raise ValueError("based enumeration needs based simplicial sets")
    slots = []
    for n in range(t.bound + 1):
        for x in t.nondegenerate(n):
            if n == 0 and x == t.basepoint:
                continue
            slots.append((n, x))

    results = []

    def extend_tables(maps, n, x, val):
        maps[n][x] = val
        for m in range(n, t.bound):
            newly = {}
            for y, v in list(maps[m].items()):
                for i in range(m + 1):
                    dy = t.degen(m, i, y)
                    if dy not in maps[m + 1]:
                        dv = z.degen(m, i, v)
                        assert newly.setdefault(dy, dv) == dv
                        newly[dy] = dv
            if not newly:
                break
            maps[m + 1].update(newly)

    def admissible(maps, n, x, val):
        if n == 0:
            return True
        for i in range(n + 1):
            fx = t.face(n, i, x)
            if fx in maps[n - 1] and maps[n - 1][fx] != z.face(n, i, val):
                return False
        return True

    def rec(idx, maps):
        if len(results) > cap:
            raise EnumerationGuard("morphism enumeration exceeded the cap")
        if idx == len(slots):
            tables = [dict(maps[n]) for n in range(t.bound + 1)]
            results.append(SMorphism(t, z, tables))
            return
        n, x = slots[idx]
        for val in z.simplices[n]:
            if admissible(maps, n, x, val):
                trial = [dict(level) for level in maps]
                extend_tables(trial, n, x, val)
                rec(idx + 1, trial)

    start = [dict() for _ in range(t.bound + 1)]
    extend_tables(start, 0, t.basepoint, z.basepoint)
    rec(0, start)
    return results
