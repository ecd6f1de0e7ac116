"""Dimension-truncated simplicial sets and based morphisms.

Every simplicial set stores, per dimension up to an explicit bound, the full
(finite) simplex list together with total face and degeneracy tables; the
simplicial identities are checked where a set or map is built from rules,
and proved where it is derived from validated ones.  Simplex keys are
nested tuples of primitives so that they serialize canonically.
A morphism stores one row per nondegenerate simplex of its domain: by the
Eilenberg-Zilber lemma every simplex is uniquely s_I y with y nondegenerate,
so those rows fix the map, and the value at s_I y is s_I of the row of y.

Every simplex key gets a small integer id, once per process, from one
intern table (as Ripser and the simplex tree index simplices).  A morphism
holds per dimension the ids of its values in ``domain.nondegenerate(n)``
order, so composing is a gather and hashing reads only ints; equality does
not look at the codomain (see :class:`SMorphism`).  Those id rows are the
one form a morphism is built from.  Ids never reach a file: table keys are
rebuilt from them, and the artifact reader turns a written table back into
id rows.

Cone simplices are pairs (t, y): t is a monotone 0/1 tuple recording, slot
by slot, whether the simplex runs along the apex or the base, and y is the
base-part simplex (None when the slot set is pure apex).  For the
apex-at-0 cone the apex slots are the 0s; for the apex-at-1 cone they are
the 1s.

One rule, :func:`collapse`, keeps the survivor keys and collapses a
simplicial subset to a '*' key per dimension (the empty subset adds a
disjoint basepoint).  A quotient, a reduced cone (0-cone keys off the cone
over the basepoint) and a suspension (1-cone keys off the base) are each
one collapse; the two cones are never built, only their rules read.  The
quotients of the full cones, with maps induced through their projections,
are the cross-check in ``fissile verify simplicial``.

Only :func:`assemble` (a set from rules), :func:`wedge`, :func:`subsimplicial`
(a set from validated sets) and :func:`_rows` (a morphism from its value
rule) know these table formats; the others derive one table from another.

A wedge keys the simplex x of its summand j off the basepoint as (j, x),
and its basepoint as '*'.  Only :func:`wedge` and :func:`wedge_combine`
read or write those keys: every map out of a wedge is the gluing of its
values on the summands.  Two readers remain outside this module:
``WedgeContext.sub_obj``, which keeps the keys of the full wedge so that
``restrict_to`` cuts the action down to it, and ``WedgeContext.contraction``,
whose domain is a reduced cone over a wedge, not a wedge.
"""

from functools import cache, cached_property, partial
from itertools import chain, combinations, product, repeat

from .canon import ckey, jsonable

BASE = "*"


# the intern table: the key of each id, and the id of each key.  One per
# process, since morphisms over separately built equal sets compare by ids.
_KEYS = []
_IDS = {}


def _intern(x):
    i = _IDS.get(x)
    if i is None:
        i = _IDS[x] = len(_KEYS)
        _KEYS.append(x)
    return i


def intern_all(xs):
    """The ids of the keys in the sequence xs, as a tuple."""
    ids = tuple(map(_IDS.get, xs))
    return tuple(map(_intern, xs)) if None in ids else ids


class SimplicialError(Exception):
    """A simplicial set or morphism table fails one of its structural
    checks; the message names the check and the object."""


def assemble(bound, levels, face_row, degen_row, basepoint=None, label=None):
    """The validated simplicial set with these simplex levels, whose x of
    dimension n has the faces ``face_row(n, x)`` for n >= 1 and the
    degeneracies ``degen_row(n, x)`` for n < bound, each a tuple of n + 1
    simplices."""
    faces = [{}] + [{x: face_row(n, x) for x in levels[n]} for n in range(1, bound + 1)]
    degens = [{x: degen_row(n, x) for x in levels[n]} for n in range(bound)] + [{}]
    s = FiniteSimplicialSet(bound, levels, faces, degens, basepoint, label)
    s._validate()
    return s


class FiniteSimplicialSet:
    """Simplex levels in ckey order and total face and degeneracy tables:
    :func:`assemble`, building them from rules, runs :meth:`_validate`, and
    :func:`wedge` and :func:`subsimplicial` prove theirs valid instead."""

    def __init__(self, bound, simplices, faces, degens, basepoint=None, label=None):
        self.bound = bound
        self.simplices = [tuple(sorted(level, key=ckey)) for level in simplices]
        self.level_sets = [frozenset(level) for level in self.simplices]
        self.faces = faces
        self.degens = degens
        self.basepoint = basepoint
        self.label = label
        self.insertions = None  # the summand insertions, on a wedge only
        self.gather = None  # the gluing plan of wedge_combine, on a wedge only
        self._face_forms = {}

    # -- structure access ------------------------------------------------

    def face(self, n, i, x):
        return self.faces[n][x][i]

    def degen(self, n, i, x):
        return self.degens[n][x][i]

    def level(self, n):
        return self.simplices[n]

    def has(self, n, x):
        return x in self.level_sets[n]

    # -- derived tables, each computed on its own first read ---------------

    @cached_property
    def _nondeg(self):
        """The nondegenerate simplices, one tuple per dimension, in level
        order."""
        out = [tuple(self.simplices[0])]
        for m in range(1, self.bound + 1):
            degenerate = set()
            for y in self.simplices[m - 1]:
                degenerate.update(self.degens[m - 1][y])
            out.append(tuple(x for x in self.simplices[m] if x not in degenerate))
        return out

    def nondegenerate(self, n):
        return self._nondeg[n]

    @cached_property
    def _nondeg_ids(self):
        return [intern_all(level) for level in self._nondeg]

    def nondegenerate_ids(self):
        """The ids of the nondegenerate simplices, one tuple per dimension in
        the order of ``nondegenerate(n)``."""
        return self._nondeg_ids

    @cached_property
    def level_key(self):
        """(id of the nondegenerate id levels, their count), leaving out
        trailing empty levels, as table keys do."""
        ids = self._nondeg_ids
        dims = max((n + 1 for n, level in enumerate(ids) if level), default=0)
        return _intern(tuple(ids[:dims])), dims

    @cached_property
    def _key_levels(self):
        order = sorted(range(self.bound + 1), key=lambda m: f"{m},")
        return tuple((m, self._nondeg[m]) for m in order)

    def key_levels(self):
        """(n, nondegenerate simplices) with n in the order of its text
        followed by ",", the dimension order of ``SMorphism.table_key``."""
        return self._key_levels

    def face_forms(self, n):
        """The normal form s_ops y of each face of each nondegenerate simplex
        of dimension n >= 1, concatenated, as (ops, m, the position of y in
        ``nondegenerate(m)``)."""
        if n not in self._face_forms:
            at = [{y: i for i, y in enumerate(level)} for level in self._nondeg]
            forms, faces = self.normal_forms(n - 1), self.faces[n]
            self._face_forms[n] = [
                (ops, m, at[m][y])
                for x in self.nondegenerate(n)
                for ops, m, y in map(forms.__getitem__, faces[x])
            ]
        return self._face_forms[n]

    @cached_property
    def _ez(self):
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
        return ez

    def normal_forms(self, n):
        """The Eilenberg-Zilber normal form of every simplex of dimension n:
        x maps to (ops, m, y) with y nondegenerate of dimension m and
        x = s_{ops[0]} ... s_{ops[-1]} y, where ops[0] is the least i with x
        in the image of s_i."""
        return self._ez[n]

    def is_based(self):
        return self.basepoint is not None

    @cached_property
    def basepoint_row(self):
        """The position of the basepoint in ``nondegenerate(0)``."""
        return self.nondegenerate(0).index(self.basepoint)

    def degenerate_vertex(self, x, n):
        """s_0 ... s_0 x: the vertex x degenerated up to dimension n."""
        for m in range(n):
            x = self.degens[m][x][0]
        return x

    def basepoint_at(self, n):
        """The n-fold degenerate basepoint."""
        return self.degenerate_vertex(self.basepoint, n)

    def basepoint_levels(self):
        return tuple(self.basepoint_at(n) for n in range(self.bound + 1))

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


def _values(dom, cod, value_at, n, xs):
    """The values at the simplices xs of dimension n of the simplicial map
    whose value at a nondegenerate y of dimension m is ``value_at(m, y)``:
    s_I value_at(m, y) for the normal form x = s_I y."""
    forms, degens, out = dom.normal_forms(n), cod.degens, []
    for x in xs:
        ops, m, y = forms[x]
        v = value_at(m, y)
        for i in reversed(ops):
            v = degens[m][v][i]
            m += 1
        out.append(v)
    return out


class SMorphism:
    """A simplicial morphism stored as its rows on the nondegenerate
    simplices of the domain: ``rows[n]`` holds the ids of the values at
    ``domain.nondegenerate(n)``, in that order.  ``m(n, x)`` answers every
    simplex, degenerate ones through the domain's Eilenberg-Zilber normal
    form.  The constructor takes those id rows and nothing else: a rule
    for the values goes through :func:`tabulate`, and a written table
    through the artifact reader, which both build id rows.  It rejects
    rows whose count or lengths are not those of the nondegenerate
    simplices, and with ``check`` validates them: every value lies in the
    codomain and d_i m(x) == m(n - 1, d_i x) for every nondegenerate x.
    Every :func:`tabulate`, :func:`restrict_to` and table read from a file
    is validated; the other builders skip it, each by its docstring's proof.

    Two morphisms are equal when their domains have the same nondegenerate
    levels and their rows are the same, which is equality of their table
    keys.  The codomain takes no part: an inclusion into a larger set and
    the identity of the smaller one have one table, and both an ensemble
    and a written file see one element.  So the rows hold interned ids, not
    positions in the codomain, whose levels differ between those two.

    Those checks make the extension M(s_I y) = s_I m(y) a simplicial map.
    M is well defined because the normal form s_I y of a simplex is unique
    (y and the degeneracy operator s_I; two words for s_I act alike by the
    codomain's simplicial identities).  It commutes with degeneracies by
    construction: s_j s_I y rewrites to a normal form s_J y by those
    identities, and the same rewriting turns s_j s_I m(y) into s_J m(y).
    It commutes with faces: d_i s_I y is either s_J y, when the face
    cancels a degeneracy, or s_J d_k y, and then M(s_J d_k y) =
    s_J M(d_k y) = s_J d_k m(y) by the checked row of y, which is
    d_i s_I m(y) by the same identities in the codomain.  So the proof
    rests on the uniqueness of the normal form and on the simplicial
    identities of both sets, which ``FiniteSimplicialSet._validate`` checks
    or the set's construction proves.
    """

    __slots__ = ("domain", "codomain", "rows", "_tables", "_hash", "__weakref__")

    def __init__(self, domain, codomain, rows, check=True):
        self.domain, self.codomain = domain, codomain
        self._tables = self._hash = None
        ids = domain.nondegenerate_ids()
        if len(rows) != len(ids):
            self._fail("table dimensions differ from the bound", domain.bound)
        if list(map(len, rows)) != list(map(len, ids)):
            n = next(n for n, row in enumerate(rows) if len(row) != len(ids[n]))
            self._fail("table rows differ from the nondegenerate simplices", n)
        self.rows = rows
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
        for n, row in enumerate(self.rows):
            if not z.level_sets[n].issuperset(map(_KEYS.__getitem__, row)):
                self._fail("value outside codomain", n)
        # the values at the faces of every nondegenerate x, read through
        # their normal forms, against the faces of the values at x
        for n in range(1, bound + 1):
            got = []
            for ops, m, q in t.face_forms(n):
                v = _KEYS[self.rows[m][q]]
                for i in reversed(ops):
                    v = z.degens[m][v][i]
                    m += 1
                got.append(v)
            faces = z.faces[n]
            if got != [f for v in self.rows[n] for f in faces[_KEYS[v]]]:
                self._fail("morphism does not commute with faces", n)

    def items(self, n):
        """The pairs (x, value) over the nondegenerate x of dimension n."""
        return zip(self.domain.nondegenerate(n), map(_KEYS.__getitem__, self.rows[n]))

    def _apply(self, n, ids):
        """The value ids at the simplices with these ids of dimension n,
        through one table per dimension from simplex ids to value ids: the
        rows, then each degenerate simplex on its first read."""
        if self._tables is None:
            ids_by_dim = self.domain.nondegenerate_ids()
            self._tables = list(map(dict, map(zip, ids_by_dim, self.rows)))
        tables = self._tables
        try:
            return tuple(map(tables[n].__getitem__, ids))
        except KeyError:
            for i in ids:
                if i not in tables[n]:
                    v = _values(self.domain, self.codomain, self._value_at, n, [_KEYS[i]])
                    tables[n][i] = _intern(v[0])
            return tuple(map(tables[n].__getitem__, ids))

    def _value_at(self, m, y):
        return _KEYS[self._tables[m][_IDS[y]]]

    def is_based(self):
        if self.domain.basepoint is None or self.codomain.basepoint is None:
            return False
        return _KEYS[self.rows[0][self.domain.basepoint_row]] == self.codomain.basepoint

    def __call__(self, n, x):
        return _KEYS[self._apply(n, (_intern(x),))[0]]

    def table_key(self):
        """The rows (n, x, value) over the nondegenerate x, in the order of
        their ckeys, without computing one.  A row encodes as "[n,x,value]":
        the dimensions order as their decimal text followed by "," (so 10
        falls between 1 and 2), and within a dimension the domain's level
        order is the ckey order of x, which stays the row order because x
        is unique there and "," sorts below every character that can extend
        a JSON value (only a number can be extended)."""
        key = []
        for n, xs in self.domain.key_levels():
            key.extend(zip(repeat(n), xs, map(_KEYS.__getitem__, self.rows[n])))
        return tuple(key)

    def canonical_payload(self):
        return ("morphism", self.table_key())

    def __eq__(self, other):
        if not isinstance(other, SMorphism):
            return False
        key = self.domain.level_key
        return key == other.domain.level_key and self.rows[: key[1]] == other.rows[: key[1]]

    def __hash__(self):
        if self._hash is None:
            level_id, dims = self.domain.level_key
            self._hash = hash((level_id, self.rows[:dims]))
        return self._hash

    def __repr__(self):
        return f"SMorphism({jsonable(self.table_key())!r})"

    def is_injective(self):
        """Injective on the nondegenerate rows with every value
        nondegenerate, which for a simplicial map is injectivity on every
        simplex: a value s_i y at a nondegenerate x is also the value at the
        other simplex s_i d_i x, and nondegenerate values have distinct
        normal forms."""
        return all(
            len(set(row)) == len(row) and set(nondeg).issuperset(row)
            for row, nondeg in zip(self.rows, self.codomain.nondegenerate_ids())
        )


def compose(g: SMorphism, f: SMorphism) -> SMorphism:
    """g . f: each row of f gathered through the id tables of g; a
    composite of simplicial maps is simplicial, so it is not validated."""
    rows = tuple([g._apply(n, row) for n, row in enumerate(f.rows)])
    return SMorphism(f.domain, g.codomain, rows, check=False)


def restrict_to(m: SMorphism, sub, cod) -> SMorphism:
    """m on a simplicial subset sub of its domain, into cod, validated."""
    rows = tuple(m._apply(n, ids) for n, ids in enumerate(sub.nondegenerate_ids()))
    return SMorphism(sub, cod, rows)


def invert_iso(e: SMorphism) -> SMorphism:
    """The inverse of an isomorphism, which is a bijection between the
    nondegenerate simplices of its domain and codomain, checked here: the
    inverse of a simplicial bijection is simplicial, so not validated."""
    rows = []
    pairs = zip(e.rows, e.domain.nondegenerate_ids(), e.codomain.nondegenerate_ids())
    for n, (row, xs, nondeg) in enumerate(pairs):
        inv = dict(zip(row, xs))
        if len(inv) != len(row) or not set(nondeg).issuperset(inv):
            e._fail("inverse of a map that is not injective", n)
        if len(inv) != len(nondeg):
            e._fail("inverse of a map that is not surjective", n)
        rows.append(tuple(map(inv.__getitem__, nondeg)))
    return SMorphism(e.codomain, e.domain, tuple(rows), check=False)


def _rows(domain, value):
    """The id rows of ``value(n, x)`` at the nondegenerate x of the domain."""
    return tuple(
        intern_all([value(n, x) for x in domain.nondegenerate(n)])
        for n in range(domain.bound + 1)
    )


def tabulate(domain, codomain, value) -> SMorphism:
    """The validated morphism whose row at each nondegenerate simplex x of
    dimension n of the domain is ``value(n, x)``."""
    return SMorphism(domain, codomain, _rows(domain, value))


def constant_morphism(t, z, vertex) -> SMorphism:
    xs = [z.degenerate_vertex(vertex, n) for n in range(t.bound + 1)]
    return tabulate(t, z, lambda n, x: xs[n])


# -- basic constructions --------------------------------------------------


def standard_simplex(n, bound):
    """Monotone tuples into {0..n}; faces delete slots, degeneracies repeat."""
    return nerve(range(n + 1), lambda x, y: x <= y, bound, label=("standard", n, bound))


def point(bound, label=None):
    """The based 0-simplex, labelled as ``standard_simplex(0, bound)`` by default."""
    label = label if label is not None else ("standard", 0, bound)
    return nerve((0,), lambda x, y: True, bound, basepoint=(0,), label=label)


def thick_simplex(letters, bound):
    """All tuples over the letter set; faces delete, degeneracies repeat."""
    letters = tuple(sorted(set(letters)))
    return nerve(letters, lambda x, y: True, bound, label=("thick", letters, bound))


def nerve(elements, leq, bound, basepoint=None, label=None):
    """Nerve of a finite preorder: monotone chains with repetition."""
    elements = tuple(sorted(elements, key=ckey))
    levels = [
        [
            c
            for c in product(elements, repeat=m + 1)
            if all(leq(c[i], c[i + 1]) for i in range(m))
        ]
        for m in range(bound + 1)
    ]
    return assemble(
        bound,
        levels,
        lambda m, c: tuple(c[:i] + c[i + 1 :] for i in range(m + 1)),
        lambda m, c: tuple(c[: i + 1] + c[i:] for i in range(m + 1)),
        basepoint,
        label,
    )


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
    return AbstractComplex(layout)


def barycentric(k: AbstractComplex, bound):
    """Nerve of the simplices ordered by reverse inclusion: chains descend."""
    return nerve(
        k.simplices,
        lambda x, y: set(x) >= set(y),
        bound,
        label=("barycentric", k.simplices, bound),
    )


# -- cones, quotients, wedges ----------------------------------------------


@cache
def _cone_slots(t, s):
    """Indices of the base slots of a cone simplex label t, computed once
    per (t, s): a cone has few monotone t, but many simplices share each."""
    return tuple(i for i, v in enumerate(t) if v == (1 - s))


def _cone_level(u, s, m):
    """The keys (t, y) of dimension m of the cone over u, apex on the s
    side: t runs over the monotone 0/1 tuples of length m + 1, y over the
    simplices of u of dimension (number of base slots) - 1, or is None."""
    level = []
    for t in product((0, 1), repeat=m + 1):
        if any(t[i] > t[i + 1] for i in range(m)):
            continue
        base = _cone_slots(t, s)
        level.extend((t, y) for y in (u.simplices[len(base) - 1] if base else (None,)))
    return level


def _cone_face_row(u, s, m, x):
    """The faces of the cone key x = (t, y) of dimension m >= 1: dropping an
    apex slot keeps y, dropping a base slot takes the matching face of y,
    or None when it was the only base slot."""
    t, y = x
    base = _cone_slots(t, s)
    row = []
    for i in range(m + 1):
        t2 = t[:i] + t[i + 1 :]
        if i not in base:
            row.append((t2, y))
        elif len(base) == 1:
            row.append((t2, None))
        else:
            row.append((t2, u.face(len(base) - 1, base.index(i), y)))
    return tuple(row)


def _cone_degen_row(u, s, m, x):
    """The degeneracies of the cone key x = (t, y) of dimension m: repeating
    an apex slot keeps y, repeating a base slot degenerates y there."""
    t, y = x
    base = _cone_slots(t, s)
    return tuple(
        (t[: i + 1] + t[i:], u.degen(len(base) - 1, base.index(i), y))
        if i in base
        else (t[: i + 1] + t[i:], y)
        for i in range(m + 1)
    )


def _cone_value(f, s, x):
    """The value of the cone of the morphism f at the cone key x = (t, y):
    (t, f(y)), and x itself when it is pure apex."""
    t, y = x
    base = _cone_slots(t, s)
    return (t, f(len(base) - 1, y)) if base else x


def cone(u: FiniteSimplicialSet, s: int, label=None) -> FiniteSimplicialSet:
    """The cone over u fibered over the interval, apex on the s side.

    Simplices are pairs (t, y); t is a monotone 0/1 tuple, y the base part
    of dimension (number of base slots) - 1, None for pure apex.
    """
    if s not in (0, 1):
        raise ValueError("cone side must be 0 or 1")
    return assemble(
        u.bound,
        [_cone_level(u, s, m) for m in range(u.bound + 1)],
        partial(_cone_face_row, u, s),
        partial(_cone_degen_row, u, s),
        basepoint=((s,), None),
        label=label if label is not None else ("cone", s, u.label),
    )


def base_embedding(u, c, s) -> SMorphism:
    """The inclusion of u as the base of its cone."""
    return tabulate(u, c, lambda n, x: ((1 - s,) * (n + 1), x))


def cone_projection(c, s) -> SMorphism:
    """Projection of the cone to the interval; cone labels are its simplices."""
    return tabulate(c, standard_simplex(1, c.bound), lambda n, x: x[0])


def cone_map(f: SMorphism, s, cdom=None, ccod=None) -> SMorphism:
    """Functoriality of the cone."""
    cdom = cdom if cdom is not None else cone(f.domain, s)
    ccod = ccod if ccod is not None else cone(f.codomain, s)
    return tabulate(cdom, ccod, lambda n, x: _cone_value(f, s, x))


def subsimplicial(u, member, basepoint=None, label=None):
    """The simplicial subset of all simplices satisfying ``member(n, x)``,
    which must be closed under faces and degeneracies and hold the
    basepoint; it restricts u's tables, so u's identities hold in it."""
    levels = [[x for x in u.simplices[n] if member(n, x)] for n in range(u.bound + 1)]
    sets = list(map(set, levels))
    faces = [{}] + [{x: u.faces[n][x] for x in levels[n]} for n in range(1, u.bound + 1)]
    degens = [{x: u.degens[n][x] for x in levels[n]} for n in range(u.bound)] + [{}]
    for tables, shift, ops in ((faces, -1, "faces"), (degens, 1, "degeneracies")):
        for n, rows in enumerate(tables):
            if rows and not sets[n + shift].issuperset(chain.from_iterable(rows.values())):
                raise SimplicialError(
                    f"subset {label!r} of {u.label!r} not closed under {ops} "
                    f"at dimension {n}"
                )
    if basepoint is not None and basepoint not in sets[0]:
        raise SimplicialError(f"subset {label!r} of {u.label!r} misses the basepoint")
    return FiniteSimplicialSet(u.bound, levels, faces, degens, basepoint, label)


def inclusion(sub, sup) -> SMorphism:
    """The identity table, not validated, of sub into sup, which contains
    it with the same keys; inclusion(u, u) is the identity of u."""
    return SMorphism(sub, sup, tuple(sub.nondegenerate_ids()), check=False)


def collapse(bound, keys, face_row, degen_row, kept, label):
    """The validated set of the keys x in ``keys[n]`` with ``kept(n, x)``,
    plus the basepoint '*': the quotient by the keys not kept, which must
    form a simplicial subset.  The faces of x are ``face_row(n, x)``, each
    one not kept read as '*'; its degeneracies are ``degen_row(n, x)``, and
    validation rejects one that is not kept."""
    levels = [[BASE] + [x for x in level if kept(n, x)] for n, level in enumerate(keys)]

    def faces(n, x):
        if x == BASE:
            return (BASE,) * (n + 1)
        return tuple([f if kept(n - 1, f) else BASE for f in face_row(n, x)])

    def degens(n, x):
        return (BASE,) * (n + 1) if x == BASE else degen_row(n, x)

    return assemble(bound, levels, faces, degens, basepoint=BASE, label=label)


def quotient(u, removed_levels, label=None):
    """Collapse a simplicial subset (given per level) to the basepoint.

    Quotient by the empty subset adds a disjoint basepoint instead.
    """
    removed = [set(level) for level in removed_levels]
    return collapse(
        u.bound,
        u.simplices,
        lambda n, x: u.faces[n][x],
        lambda n, x: u.degens[n][x],
        lambda n, x: x not in removed[n],
        label,
    )


def quotient_projection(u, q) -> SMorphism:
    bps = q.basepoint_levels()
    return tabulate(u, q, lambda n, x: x if x in q.level_sets[n] else bps[n])


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
    (both sides must then be based).

    A nondegenerate y = p(x) needs x nondegenerate, so h is read off the
    nondegenerate rows of p that land on nondegenerate simplices; h . p
    and g then agree on every row of p, checked for the rows landing on
    degenerate simplices too, hence everywhere."""
    cod = p.codomain
    maps, degenerate = [], []
    for n in range(cod.bound + 1):
        nondeg, level = set(cod.nondegenerate(n)), {}
        for x, px in p.items(n):
            gx = g(n, x)
            if px not in nondeg:
                degenerate.append((n, px, gx))
            elif px in level:
                if level[px] != gx:
                    g._fail("map does not descend through the quotient", n)
            else:
                level[px] = gx
        for y in cod.nondegenerate(n):
            if y not in level:
                if y != cod.basepoint_at(n):
                    p._fail("projection not surjective", n)
                level[y] = g.codomain.basepoint_at(n)
        maps.append(level)
    for n, px, gx in degenerate:
        if _values(cod, g.codomain, lambda m, y: maps[m][y], n, (px,))[0] != gx:
            g._fail("map does not descend through the quotient", n)
    return tabulate(cod, g.codomain, lambda n, y: maps[n][y])


# -- named compound constructions ------------------------------------------


def _reduced(bps, x):
    """The reduced-cone key of the 0-cone key x = (t, y) over a set whose
    basepoint levels are bps: '*' when x lies in the cone over the
    basepoint (y is None or a degeneracy of the basepoint), else x."""
    t, y = x
    return BASE if y is None or y == bps[t.count(1) - 1] else x


def reduced_cone(t: FiniteSimplicialSet):
    """Cone at the 0 side with the cone over the basepoint collapsed: the
    :func:`collapse` of the 0-cone's keys (t, y) off the cone over the
    basepoint, built from the 0-cone's rules without building the 0-cone.

    Returns (čT, inclusion T -> čT), both validated.
    """
    if t.basepoint is None:
        raise ValueError("reduced cone needs a based input")
    bps = t.basepoint_levels()
    q = collapse(
        t.bound,
        [_cone_level(t, 0, n) for n in range(t.bound + 1)],
        partial(_cone_face_row, t, 0),
        partial(_cone_degen_row, t, 0),
        lambda n, x: _reduced(bps, x) != BASE,
        ("redcone", t.label),
    )
    inc = tabulate(t, q, lambda n, x: _reduced(bps, ((1,) * (n + 1), x)))
    return q, inc


def reduced_cone_map(f: SMorphism, rdom, rcod) -> SMorphism:
    """Functoriality of the reduced cone on a based morphism, between the
    ``reduced_cone`` tuples of its domain and codomain: '*' goes to '*',
    and (t, y) to (t, f(y)), or to '*' when that lies over the basepoint.
    Not validated between f's own reduced cones: the cone of a based
    simplicial f is simplicial and keeps the cone over the basepoint, so it
    induces this map.  Into another set's reduced cone it is validated."""
    if not f.is_based():
        f._fail("reduced cone of a map that is not based", 0)
    bps = rcod[1].domain.basepoint_levels()

    def value(n, x):
        return BASE if x == BASE else _reduced(bps, _cone_value(f, 0, x))

    check = rdom[1].domain is not f.domain or rcod[1].domain is not f.codomain
    return SMorphism(rdom[0], rcod[0], _rows(rdom[0], value), check=check)


TOP = ((1,), None)  # the top vertex of a suspension: the 1-cone's apex


def kan_suspension(u: FiniteSimplicialSet):
    """Cone at the 1 side with the base collapsed: the :func:`collapse` of
    the 1-cone's keys that have an apex slot, built from the 1-cone's rules
    without building the 1-cone.  Its vertices are TOP and the basepoint."""
    return collapse(
        u.bound,
        [_cone_level(u, 1, n) for n in range(u.bound + 1)],
        partial(_cone_face_row, u, 1),
        partial(_cone_degen_row, u, 1),
        lambda n, x: 1 in x[0],
        ("suspension", u.label),
    )


def wedge(parts, label=None):
    """Coproduct with basepoints identified: the wedge object, which carries
    the insertions of its summands as the tuple ``insertions``.  Its keys
    are '*' and (j, x), x off summand j's basepoint.  Not validated: the
    degeneracies of a basepoint form a simplicial subset, so the wedge is a
    quotient of the summands' disjoint union, with their identities, and
    each insertion restricts that quotient map."""
    bound = parts[0].bound
    for p in parts:
        if p.bound != bound or p.basepoint is None:
            raise SimplicialError(
                f"wedge summand {p.label!r} is unbased or not truncated at {bound}"
            )
    bps = [p.basepoint_levels() for p in parts]
    levels = [[BASE] for _ in range(bound + 1)]
    faces = [{}] + [{BASE: (BASE,) * (n + 1)} for n in range(1, bound + 1)]
    degens = [{BASE: (BASE,) * (n + 1)} for n in range(bound)] + [{}]
    tags = []  # per summand and dimension, the wedge key of each simplex, shared
    for j, p in enumerate(parts):
        tag = [{x: (j, x) for x in xs} for xs in p.simplices]
        for n, b in enumerate(bps[j]):
            tag[n][b] = BASE
        tags.append(tag)
        for n in range(bound + 1):
            keys = [tag[n][x] for x in p.simplices[n] if x != bps[j][n]]
            levels[n] += keys
            if n:
                below, rows = tag[n - 1].__getitem__, p.faces[n]
                faces[n].update((k, tuple(map(below, rows[k[1]]))) for k in keys)
            if n < bound:
                above, rows = tag[n + 1].__getitem__, p.degens[n]
                degens[n].update((k, tuple(map(above, rows[k[1]]))) for k in keys)
    label = label if label is not None else ("wedge", tuple(p.label for p in parts))
    w = FiniteSimplicialSet(bound, levels, faces, degens, BASE, label)
    w.insertions = tuple(
        SMorphism(p, w, _rows(p, lambda n, x: tags[j][n][x]), check=False)
        for j, p in enumerate(parts)
    )
    # the gluing plan of wedge_combine: per dimension, for each
    # nondegenerate simplex of w in order (the basepoint at dimension 0 and
    # every (j, x) with x nondegenerate, in level order), its index in the
    # basepoint followed by the summands' nondegenerate levels
    gather = []
    for n in range(bound + 1):
        at, count = {} if n else {BASE: 0}, 1
        for j, p in enumerate(parts):
            level = p.nondegenerate(n)
            at.update(((j, x), count + i) for i, x in enumerate(level))
            count += len(level)
        gather.append(tuple(at[x] for x in w.simplices[n] if x in at))
    w.gather = tuple(gather)
    return w


def wedge_combine(w, morphisms, codomain=None) -> SMorphism:
    """The morphism out of a wedge assembled from per-part based morphisms,
    one on each summand, in order: each row gathers, through the wedge's
    plan, the basepoint of the codomain and the rows of the parts.  Each
    part's domain must be its summand itself.

    ``codomain`` may enlarge the target when the parts land in different
    subsets of one ambient simplicial set, and the gluing is validated there;
    based simplicial parts into their own target glue into a simplicial map.
    """
    if len(morphisms) != len(w.insertions):
        raise SimplicialError(
            f"wedge {w.label!r} has {len(w.insertions)} summands, "
            f"not {len(morphisms)} parts"
        )
    for f, ins in zip(morphisms, w.insertions):
        t = ins.domain
        if f.domain is not t:
            raise SimplicialError(
                f"wedge part {f.domain.label!r} -> {f.codomain.label!r} is not "
                f"on the summand {t.label!r}"
            )
        if not f.is_based():
            raise SimplicialError(
                f"wedge part {f.domain.label!r} -> {f.codomain.label!r} is not based"
            )
    z = codomain if codomain is not None else morphisms[0].codomain
    base = (_intern(z.basepoint),)
    rows = []
    for n, plan in enumerate(w.gather):
        values = base + tuple(v for f in morphisms for v in f.rows[n])
        rows.append(tuple(map(values.__getitem__, plan)))
    return SMorphism(w, z, tuple(rows), check=any(f.codomain is not z for f in morphisms))


def plus_base(c: FiniteSimplicialSet, label=None):
    """Inside a 0-side cone: the based subset made of the full base copy and
    the apex, isomorphic to the base with a free basepoint: the simplices
    whose slots are all base or all apex."""
    return subsimplicial(
        c,
        lambda n, key: len(set(key[0])) == 1,
        basepoint=c.basepoint,
        label=label if label is not None else ("plusbase", c.label),
    )


def plus_base_iso(c: FiniteSimplicialSet, rplus) -> SMorphism:
    """The canonical isomorphism from a 0-side cone over u to the reduced
    cone of (base copy of u with free basepoint): (t, y) goes to
    (t, (base copy of y)), and the pure apex to '*'.

    ``rplus`` is the (čT, inclusion) tuple of :func:`reduced_cone` on the
    :func:`plus_base` of ``c``.
    """
    q = rplus[0]

    def value(n, x):
        t, y = x
        if y is None:
            return q.basepoint_at(n)
        return (t, ((1,) * t.count(1), y))

    out = tabulate(c, q, value)
    # bijective on nondegenerate simplices, hence an isomorphism
    same_size = all(
        len(q.nondegenerate(n)) == len(c.nondegenerate(n)) for n in range(c.bound + 1)
    )
    if not (same_size and out.is_injective()):
        raise SimplicialError(
            f"plus-base map {c.label!r} -> {q.label!r} is not an isomorphism"
        )
    return out


def _apex_value(letter, n, x):
    """The apex substitution at the key x = (t, y) of dimension n of the
    0-cone over a 1-cone on a thick simplex: a 1-cone key whose outer
    apex slots became copies of the letter."""
    t, y = x
    if y is None:
        return ((0,) * (n + 1), (letter,) * (n + 1))
    t_in, z = y
    outer, inner_base = t.count(0), t_in.count(0)
    zz = (letter,) * outer + (z if z is not None else ())
    t_new = (0,) * (outer + inner_base) + (1,) * (len(t_in) - inner_base)
    return (t_new, zz if zz else None)


def apex_substitution(cca, ca, letter) -> SMorphism:
    """The retraction of the 0-cone over a 1-cone on a thick simplex back to
    the 1-cone: outer apex slots turn into copies of the given letter,
    which the thick simplex absorbs."""
    return tabulate(cca, ca, lambda n, x: _apex_value(letter, n, x))


class ContractionTower:
    """Everything around one thick simplex: its suspension Σ, the (čΣ,
    inclusion) tuple of the reduced cone of Σ, and the canonical
    contraction for each letter, the last two built on first use.  It
    builds no cone: Σ and čΣ are each one :func:`collapse` of cone keys."""

    def __init__(self, letters, bound):
        self.letters = tuple(sorted(set(letters)))
        self.bound = bound
        self.thick = thick_simplex(self.letters, bound)
        self.susp = kan_suspension(self.thick)
        self.contractions = {}

    @cached_property
    def reduced(self):
        """The ``reduced_cone`` tuple of Σ, which only a contraction reads."""
        return reduced_cone(self.susp)

    def contraction(self, letter) -> SMorphism:
        """The contraction čΣ -> Σ at the letter, tabulated on the reduced
        cone: the apex substitution at (t, (t_in, z)), read as a suspension
        key ('*' when it lies in the collapsed base).  It must restrict to
        the identity along the inclusion Σ -> čΣ."""
        if letter not in self.letters and self.letters:
            raise ValueError(f"{letter!r} is not a letter of the thick simplex")
        if letter not in self.contractions:
            red, inc = self.reduced
            susp = self.susp

            def value(n, x):
                if x == BASE:
                    return BASE
                v = _apex_value(letter, n, x)
                return v if susp.has(n, v) else BASE

            sigma = tabulate(red, susp, value)
            if compose(sigma, inc) != inclusion(susp, susp):
                raise SimplicialError(
                    f"contraction of {susp.label!r} at {letter!r} does not "
                    "restrict to the identity"
                )
            self.contractions[letter] = sigma
        return self.contractions[letter]


def suspension_inclusion(sub: ContractionTower, sup: ContractionTower) -> SMorphism:
    """The map of suspensions induced by the inclusion of the thick simplex
    of sub into that of sup, whose letters contain sub's: the identity on
    keys, validated."""
    return tabulate(sub.susp, sup.susp, lambda n, x: x)


def _faces_agree(t, z, maps, n, x, val):
    """Whether sending x to val commutes with faces, given the rows of every
    nondegenerate simplex below dimension n."""
    if n == 0:
        return True
    faces = _values(t, z, lambda m, y: maps[m][y], n - 1, t.faces[n][x])
    return tuple(faces) == z.faces[n][val]


def complex_intersection(k: AbstractComplex, l: AbstractComplex) -> AbstractComplex:
    # an intersection of closed families is closed, so the closure adds nothing
    return AbstractComplex(set(k.simplices) & set(l.simplices))


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

    def value(n, x):
        t, chain = x
        if chain is None:
            return (t, None)
        keep = 0
        while keep < len(chain) and chain[keep] not in lset:
            keep += 1
        suffix = chain[keep:]
        new_t = (0,) * (n + 1 - len(suffix)) + (1,) * len(suffix)
        return (new_t, suffix if suffix else None)

    return tabulate(ck, cl, value)


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

    def rec(idx, maps):
        if len(results) > cap:
            raise EnumerationGuard("morphism enumeration exceeded the cap")
        if idx == len(slots):
            results.append(tabulate(t, z, lambda n, x: maps[n][x]))
            return
        n, x = slots[idx]
        for val in z.simplices[n]:
            if _faces_agree(t, z, maps, n, x, val):
                maps[n][x] = val
                rec(idx + 1, maps)
        maps[n].pop(x, None)

    start = [{} for _ in range(t.bound + 1)]
    start[0][t.basepoint] = z.basepoint
    rec(0, start)
    return results
