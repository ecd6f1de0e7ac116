"""Serialization of construction artifacts and their independent re-check.

A morphism record names its domain by a label, whose grammar
:class:`fissile.wedge.WedgeContext` documents; nothing else in a dump is a
label.  Each witness file, a pair file or ``q.json``, writes each distinct
part once, in its ``parts`` table, and each witness as its level, its block
count and its blocks grouped by the id of their f, each block a
coefficient and the indices of its parts in the table.  The checker
rebuilds each domain from the manifest sizes through
:meth:`~fissile.wedge.WedgeContext.obj`, the constructors the builder
calls, and derives every other object from what it reads: a block's wedge
is the wedge of the objects its parts' terms lie on, and a witness's space
is its claim's, the space at J for a pair (F, J) and the full space for q.
It reads each table entry once, into one part that every block naming it
shares, and decodes a witness's blocks group by group.
It revalidates every stored morphism table against those objects and
re-verifies all claims from file contents alone, never trusting the
builder's bookkeeping.  The claims are evaluated by the
condition functions of :mod:`fissile.wedge` (``pair_checks`` and
``q_checks``), the same ones the builder evaluates while it constructs, so
builder and checker cannot drift apart.
"""

import json
import os
import re
from collections import Counter
from itertools import repeat

from .canon import morph_id
from .chained import subset_key
from .ensembles import Ensemble
from .layouts import LayoutLattice, layout_key
# ``wedge`` stays importable here: perfbench/spans.py wraps every binding of
# it.  Wedges themselves come from the context.
from .simplicial import SimplicialError, SMorphism, intern_all, wedge  # noqa: F401
from .wedge import WedgeContext, pair_checks, pair_claims, q_checks
from .witnesses import Block, BlockPart, FiltrationWitness, IdealTerm, WitnessReport, once


class ArtifactError(ValueError):
    pass


# -- object resolution --------------------------------------------------------


def _key(x, what):
    """x as read from JSON with each list made a tuple, every atom a str,
    an int that is not a bool, or null: ``true`` or ``1.0`` equals 1 in
    Python, so either would name the key written with 1."""
    if type(x) is list:
        return tuple([_key(v, what) for v in x])
    if x is None or type(x) is str or type(x) is int:
        return x
    raise ArtifactError(f"{what} holds {x!r:.60}, not a str, an int or null")


def _plain(x):
    """Whether x is a str, an int, or a tuple of those."""
    return type(x) in (str, int) or type(x) is tuple and all(map(_plain, x))


def _label_key(label):
    """The label as a nonempty tuple of strings, ints and such tuples."""
    label = _key(label, "malformed label")
    if not (type(label) is tuple and label and _plain(label)):
        raise ArtifactError(f"malformed label {label!r}")
    return label


def resolve(ctx: WedgeContext, label):
    """``ctx.obj(label)`` for a label read from a file: a malformed label
    or one of an unknown kind is an ArtifactError that names it.

    Each label is resolved once per context, in the context's run table,
    keyed on the ``repr`` of the label as read.  That is exact: the object
    is a function of the label, and two labels read from JSON with one
    ``repr`` are one value.  A label that raises is not stored, so it
    raises again on every call."""
    return ctx.once(("resolve", repr(label)), lambda: _resolve(ctx, label))


def _resolve(ctx, label):
    label = _label_key(label)
    try:
        return ctx.obj(label)
    except (TypeError, IndexError, ValueError) as exc:
        raise ArtifactError(f"malformed label {label!r}: {exc}") from None


def _id_rows(dom, table):
    """The id rows of a written table, and the (n, x, value) key that its
    id digests.  A table is its values alone, one per nondegenerate simplex
    of dom in table order, ``dom.key_levels()``, which gives each value its
    n and x; every atom of a value must be a str, an int or null.  The key
    holds each value as written."""
    levels = dom.key_levels()
    count = sum(len(xs) for _n, xs in levels)
    if len(table) != count:
        raise ArtifactError(
            f"morphism table on {dom.label!r} holds {len(table)} values, "
            f"not one per each of its {count} nondegenerate simplices"
        )
    what = f"morphism table entry on {dom.label!r}"
    rows, key, start = [()] * (dom.bound + 1), [], 0
    for n, xs in levels:
        values = table[start : start + len(xs)]
        start += len(xs)
        rows[n] = intern_all([_key(v, what) for v in values])
        key.extend(zip(repeat(n), xs, values))
    return tuple(rows), key


# -- morphism registry ---------------------------------------------------------


class MorphismStore:
    """The morphism records of a dump, each named by its id, the
    :func:`~fissile.canon.morph_id` of its table.  A record holds a domain
    label and a table, and no codomain: one table serves maps into several
    objects, so each use names the object it needs and the reader validates
    the table there."""

    def __init__(self):
        self.records = {}
        self._refs = {}
        self.loaded = {}
        self._uses = {}

    def ref(self, m: SMorphism) -> str:
        """The id of m's record, ``morph_id`` of m, computed through
        :func:`~fissile.witnesses.once` once per morphism on its objects.  The
        first morphism written with a table makes its record: m's domain
        label and the values of m's table key, in its order, the domain's
        ``key_levels()``; the id digests the whole (n, x, value) key, which
        the reader rebuilds from the domain."""

        def record():
            payload = m.canonical_payload()
            mid = morph_id(payload)
            if mid not in self.records:
                table = [v for _n, _x, v in payload[1]]
                self.records[mid] = {"domain": m.domain.label, "table": table}
            return mid

        return once(self._refs, (m.domain, m.codomain, m), record)

    def to_json(self):
        return {mid: rec for mid, rec in sorted(self.records.items())}

    @staticmethod
    def load(data, ctx: WedgeContext):
        """The store of a ``morphisms.json`` object: each record's table is
        read into id rows on the record's domain, and its id is recomputed
        from the (n, x, value) key so rebuilt.  No table is validated here;
        each use validates it into its codomain (:meth:`morph`)."""
        store = MorphismStore()
        for mid, rec in data.items():
            label, table = _fields(rec, "morphism record", "domain", "table")
            dom = resolve(ctx, label)
            rows, key = _id_rows(dom, _list(table, "morphism table"))
            if morph_id(["morphism", key]) != mid:
                raise ArtifactError("morphism id does not match its table")
            store.loaded[mid] = dom, rows
        return store

    def domain(self, mid):
        """The domain of the record mid, which must be a stored id."""
        if type(mid) is not str or mid not in self.loaded:
            raise ArtifactError(f"unknown morphism reference {mid}")
        return self.loaded[mid][0]

    def morph(self, mid, cod, use):
        """The morphism of the record mid into cod, validated there once per
        (id, codomain); ``use`` names the reference in an error."""
        dom, rows = self.domain(mid), self.loaded[mid][1]

        def build():
            try:
                return SMorphism(dom, cod, rows)
            except SimplicialError as exc:
                raise ArtifactError(
                    f"{use} is not a morphism into {cod.label!r}: {exc}"
                ) from None

        return once(self._uses, (mid, cod), build)

    def require_all_used(self):
        """Every record is the target of some use, so each table written is
        validated somewhere."""
        unused = self.loaded.keys() - {mid for mid, _cod in self._uses}
        if unused:
            raise ArtifactError(f"morphism record {min(unused)} is used by no reference")


# -- ensembles and witnesses ----------------------------------------------------


def _int(x, field):
    """x, which must be an int, and so not a bool."""
    if type(x) is not int:
        raise ArtifactError(f"{field} {x!r} is not an int")
    return x


def _subset(x, field):
    """The tuple of x, which must be a list of ints."""
    if not isinstance(x, list):
        raise ArtifactError(f"{field} {x!r} is not a list of ints")
    return tuple(_int(e, field) for e in x)


def _list(x, field, arity=None):
    """x, which must be a list, of lists of ``arity`` entries if given."""
    if not isinstance(x, list):
        raise ArtifactError(f"{field} {x!r:.60} is not a list")
    for entry in x if arity else ():
        if not (isinstance(entry, list) and len(entry) == arity):
            raise ArtifactError(f"{field} entry {entry!r:.60} is not a list of {arity}")
    return x


def _object(x, field):
    """x, which must be a JSON object."""
    if not isinstance(x, dict):
        raise ArtifactError(f"{field} {x!r:.60} is not an object")
    return x


def _fields(x, what, *keys):
    """The fields ``keys`` of x, in order; x must be a JSON object that has
    each and no other, so every field written is one the checker reads.
    The checker reads every field here, or through ``get`` where a missing
    one is checked as a bad value.  A field it does not read is named
    ahead of a missing one, so a file in an older layout names what it
    holds that is no longer read."""
    x = _object(x, what)
    extra = x.keys() - set(keys)
    if extra:
        raise ArtifactError(f"{what} has the field {min(extra)!r:.60}, which is not read")
    for key in keys:
        if key not in x:
            raise ArtifactError(f"{what} lacks the field {key!r}")
    return [x[key] for key in keys]


def _decimal(text, field):
    """The int whose canonical decimal text, str(int(text)), is ``text``."""
    if not (isinstance(text, str) and re.fullmatch("0|-?[1-9][0-9]*", text)):
        raise ArtifactError(f"{field} {text!r} is not canonical decimal text")
    return int(text)


def _layout(data):
    """The layout written as data, a list of nonempty, pairwise disjoint
    blocks, each a list of ints."""
    blocks = [_subset(g, "layout block") for g in _list(data, "layout")]
    try:
        return layout_key(blocks)
    except ValueError as exc:
        raise ArtifactError(f"layout {data!r:.60}: {exc}") from None


def ensemble_to_json(s: Ensemble, store: MorphismStore):
    return [
        {"key": store.ref(m), "coeff": str(c)} for m, c in s.sorted_items()
    ]


def ensemble_from_json(data, store: MorphismStore, cod) -> Ensemble:
    """The ensemble of morphisms into cod written as data."""
    out = {}
    for entry in _list(data, "ensemble"):
        key, coeff = _fields(entry, "ensemble entry", "key", "coeff")
        m = store.morph(key, cod, "ensemble key")
        if m in out:
            raise ArtifactError(f"ensemble key {key} repeated")
        out[m] = _decimal(coeff, "ensemble coeff")
    return Ensemble(out)


def _pi_from_json(data) -> Ensemble:
    out = {}
    for k, c in _list(data, "pi", 2):
        k = _subset(k, "pi key")
        if k in out:
            raise ArtifactError(f"pi key {list(k)} repeated")
        out[k] = _int(c, "pi coefficient")
    return Ensemble(out)


class PartTable:
    """The part table of one witness file as it is written: each distinct
    part once, ``{"level", "terms": [{"pi", "w"}]}``, in first-use order,
    and named by its index.  Two parts are one entry when they are written
    alike, level, terms, pi and ids; each part object is encoded once."""

    def __init__(self, store: MorphismStore):
        self.store, self.rows = store, []
        self._index, self._of = {}, {}

    def index(self, p: BlockPart) -> int:
        """The index of p's entry, which the first use of its form makes."""

        def entry():
            terms = [(t.pi.sorted_items(), self.store.ref(t.morphism)) for t in p.terms]
            key = (p.level, tuple((tuple(pi), w) for pi, w in terms))
            if key not in self._index:
                self._index[key] = len(self.rows)
                rows = [{"pi": pi, "w": w} for pi, w in terms]
                self.rows.append({"level": p.level, "terms": rows})
            return self._index[key]

        return once(self._of, p, entry)


def witness_to_json(w: FiltrationWitness, store: MorphismStore, parts: PartTable):
    """The witness as data: its level, its number of blocks, and its blocks
    in groups, one per distinct id of their f, in first-occurrence order.
    A group is ``{"f", "blocks"}``, and each of its blocks, in witness
    order, is ``[coeff, [part index, ...]]`` into the file's part table."""
    groups = {}
    for c, b in w.entries:
        block = [c, [parts.index(p) for p in b.parts]]
        groups.setdefault(store.ref(b.f), []).append(block)
    return {
        "level": w.level,
        "block_count": len(w.entries),
        "groups": [{"f": fid, "blocks": blocks} for fid, blocks in groups.items()],
    }


def parts_from_json(data, store: MorphismStore, space) -> list:
    """The part table written as data, each entry read once into one
    :class:`BlockPart` in the file's space: a nonempty list of terms on one
    object, each valued in the space, whose actions are composed with it.
    Two entries written alike are one part written twice."""
    parts, seen = [], {}
    for i, prec in enumerate(_list(data, "parts")):
        trecs, plevel = _fields(prec, "part", "terms", "level")
        terms, key = [], []
        for trec in _list(trecs, "terms"):
            w, pi = _fields(trec, "term", "w", "pi")
            # sets compare by identity, and every one comes from ctx
            if terms and store.domain(w) is not terms[0].morphism.domain:
                raise ArtifactError(
                    f"part {i} has terms on {terms[0].morphism.domain.label!r} "
                    f"and on {store.domain(w).label!r}"
                )
            morphism = store.morph(w, space.obj, f"part {i} term")
            terms.append(IdealTerm(_pi_from_json(pi), morphism))
            key.append((w, tuple(terms[-1].pi.terms.items())))
        if not terms:
            raise ArtifactError(f"part {i} has no terms")
        level = _int(plevel, "part level")
        k = seen.setdefault((level, tuple(key)), i)
        if k != i:
            raise ArtifactError(f"parts {k} and {i} are written alike")
        parts.append(BlockPart(level, terms))
    return parts


def witness_from_json(data, store: MorphismStore, ctx: WedgeContext, parts, used):
    """The witness written as data over the file's part table ``parts``;
    each part index read is added to the set ``used``.  Its blocks are
    decoded group by group, each group's in order, and numbered so in
    diagnostics; there must be as many as the witness counts, so no group
    is dropped unseen, even one whose blocks cancel.  A block's part j is
    its wedge's summand j, the object its terms lie on; the wedge is the
    context's wedge of those summands, and the group's f must map into it."""
    groups, count, level = _fields(data, "witness", "groups", "block_count", "level")
    entries, heads = [], {}
    for g, grec in enumerate(_list(groups, "groups")):
        blocks, fid = _fields(grec, "group", "blocks", "f")
        store.domain(fid)
        if heads.setdefault(fid, g) != g:
            raise ArtifactError(f"groups {heads[fid]} and {g} have one f")
        if not _list(blocks, "blocks"):
            raise ArtifactError(f"group {g} has no blocks")
        for entry in blocks:
            b = len(entries)
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ArtifactError(f"block {b} {entry!r:.60} is not [coeff, [part index, ...]]")
            block_parts = []
            for i in _list(entry[1], "part indices"):
                if type(i) is not int or not 0 <= i < len(parts):
                    raise ArtifactError(f"block {b} part index {i!r:.60} is not in the part table")
                used.add(i)
                block_parts.append(parts[i])
            if not block_parts:
                raise ArtifactError(f"block {b} has no parts")
            wedge_obj = ctx.wedge_of([p.terms[0].morphism.domain for p in block_parts])
            f = store.morph(fid, wedge_obj, f"block {b} decomposition")
            entries.append((_int(entry[0], "block coeff"), Block(f, block_parts)))
    if _int(count, "witness block_count") != len(entries):
        raise ArtifactError(f"witness block_count {count} is not its {len(entries)} blocks")
    return FiltrationWitness(_int(level, "witness level"), entries)


def witnesses_from_json(table, witnesses, store: MorphismStore, ctx: WedgeContext, space):
    """The witnesses written as data in one file, all claimed in the space,
    whose part table is ``table``, and the first entry of the table that no
    block names, or None.  The caller fails an unused entry, as it fails an
    unused morphism record, once the claims match."""
    parts, used = parts_from_json(table, store, space), set()
    out = [witness_from_json(w, store, ctx, parts, used) for w in witnesses]
    return out, min(set(range(len(parts))) - used, default=None)


def _require_all_parts_used(unused):
    """Every entry of every part table is named by some block; ``unused``
    holds the (file name, first unused entry or None) of each table."""
    for name, i in unused:
        if i is not None:
            raise ArtifactError(f"{name} part {i} is used by no block")


# -- writing -------------------------------------------------------------------


def _dump(path, payload):
    """Write payload as one line of compact sorted-key JSON.  A one-shot
    ``json.dumps`` with no ``indent`` runs in CPython's C encoder;
    ``json.dump`` and ``iterencode`` would not."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _slug(subset):
    return "-".join(str(x) for x in subset) if subset else "empty"


def write_pair_artifacts(result, out_dir):
    """Dump every constructed pair with its alternating-sum witness to a
    directory."""
    os.makedirs(out_dir, exist_ok=True)
    ctx = result.ctx
    store = MorphismStore()
    pair_files = []
    for (f, j), rec in sorted(result.pairs.items()):
        name = f"pair_F{_slug(f)}_J{_slug(j)}.json"
        parts = PartTable(store)
        payload = {
            "face": f,
            "subset": j,
            "ensemble": ensemble_to_json(rec.ensemble, store),
            "alt_witness": witness_to_json(rec.alt_witness, store, parts),
            "parts": parts.rows,
        }
        _dump(os.path.join(out_dir, name), payload)
        pair_files.append(name)
    _dump(
        os.path.join(out_dir, "manifest.json"),
        {
            "kind": "pair-construction",
            "i": ctx.i_set,
            "e": ctx.e_set,
            "bound": ctx.bound,
            "pairs": pair_files,
        },
    )
    _dump(os.path.join(out_dir, "morphisms.json"), store.to_json())
    return pair_files


def write_q_artifacts(result, record, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    ctx = result.ctx
    store = MorphismStore()
    parts = PartTable(store)
    payload = {
        "ensemble": ensemble_to_json(record.ensemble, store),
        "layouts": [
            {
                "layout": a,
                "witness": witness_to_json(record.layout_witnesses[a], store, parts),
            }
            for a in sorted(record.layout_witnesses)
        ],
        "boundary_witness": witness_to_json(record.boundary_witness, store, parts),
        "parts": parts.rows,
    }
    _dump(os.path.join(out_dir, "q.json"), payload)
    _dump(
        os.path.join(out_dir, "manifest.json"),
        {
            "kind": "almost-fissile",
            "i": ctx.i_set,
            "e": ctx.e_set,
            "bound": ctx.bound,
        },
    )
    _dump(os.path.join(out_dir, "morphisms.json"), store.to_json())


# -- checking -------------------------------------------------------------------


# the readers recurse on what they read; real dumps nest at most 10 deep
MAX_DEPTH = 64


def _load(path):
    """The JSON object in the file at path, nested at most ``MAX_DEPTH`` deep."""
    name = os.path.basename(path)
    too_deep = ArtifactError(f"{name} nests more than {MAX_DEPTH} deep")
    try:
        with open(path, encoding="utf-8") as fh:
            data = _object(json.load(fh), name)
    except RecursionError:
        raise too_deep from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{name} is not JSON: {exc.msg} (char {exc.pos})") from None
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{name} is not UTF-8: {exc.reason} (byte {exc.start})") from None
    inner = [data]
    for _ in range(MAX_DEPTH):
        children = (x.values() if type(x) is dict else x for x in inner)
        inner = [c for cs in children for c in cs if type(c) in (dict, list)]
    if inner:
        raise too_deep
    return data


def read_manifest(in_dir, kind):
    """The manifest of a dump of this kind: an object of exactly the fields
    ``kind``, ``i``, ``e`` and ``bound``, and ``pairs`` for a pair dump,
    whose index sets ``i`` and ``e`` are nonempty lists of distinct ints."""
    manifest = _load(os.path.join(in_dir, "manifest.json"))
    if manifest.get("kind") != kind:
        raise ArtifactError("manifest kind mismatch")
    pairs = ("pairs",) if kind == "pair-construction" else ()
    _fields(manifest, "manifest", "kind", "i", "e", "bound", *pairs)
    for field in ("i", "e"):
        sizes = _subset(manifest[field], f"manifest {field!r}")
        if not sizes or len(set(sizes)) != len(sizes):
            raise ArtifactError(f"manifest {field!r}: not a nonempty list of distinct ints")
    return manifest


def _open_dump(in_dir, kind):
    """The manifest of a dump, the context rebuilt from its sizes, and the
    loaded morphism store.  The truncation bound is the context's, |E| + 1;
    a manifest naming any other is rejected."""
    manifest = read_manifest(in_dir, kind)
    ctx = WedgeContext(tuple(manifest["i"]), tuple(manifest["e"]))
    if manifest["bound"] != ctx.bound:
        raise ArtifactError(
            f"manifest bound {manifest['bound']!r} is not |E| + 1 = {ctx.bound}"
        )
    store = MorphismStore.load(_load(os.path.join(in_dir, "morphisms.json")), ctx)
    return manifest, ctx, store


def _claim_mismatches(expected, found, tag):
    """One failed (check name, report) per expected claim missing from or
    repeated in ``found`` and per distinct found claim not expected; none
    when the two match one for one.  ``tag`` names a claim."""
    counts = Counter(found)
    out = []
    for claim in expected:
        n = counts.pop(claim, 0)
        if n != 1:
            name = f"claim-{'duplicate' if n else 'missing'} {tag(claim)}"
            out.append((name, WitnessReport(f"written {n} times")))
    extra = WitnessReport("not a claim of the construction")
    out.extend((f"claim-extra {tag(claim)}", extra) for claim in counts)
    return out


def check_pair_artifacts(in_dir):
    """Re-verify a pair-construction dump from files alone.

    Returns a list of (check-name, ok) tuples, one per condition and pair,
    from the same condition functions the builder evaluates; ok is True or
    a failed WitnessReport that says why.  The pairs are
    read from the files, and they must be the construction's pairs, each
    once; otherwise only the failed claims are returned.
    """
    manifest, ctx, store = _open_dump(in_dir, "pair-construction")
    claims, pairs, witnesses, unused = [], {}, {}, []
    for name in _list(manifest["pairs"], "manifest 'pairs'"):
        plain = type(name) is str and os.path.basename(name) == name
        if not plain or name in ("", ".", ".."):
            raise ArtifactError(
                f"manifest pair file {name!r:.60} is not a file name in the dump"
            )
        payload = _load(os.path.join(in_dir, name))
        face, subset, ens, wit, table = _fields(
            payload, name, "face", "subset", "ensemble", "alt_witness", "parts"
        )
        f, j = subset_key(_subset(face, "face")), subset_key(_subset(subset, "subset"))
        claims.append((f, j))
        pairs[(f, j)] = ensemble_from_json(ens, store, ctx.w_obj)
        # a J outside I is a claim-extra line, and has no space to read into
        if set(j) <= set(ctx.i_set):
            (witnesses[(f, j)],), first = witnesses_from_json(
                table, [wit], store, ctx, ctx.space(j)
            )
            unused.append((name, first))
    mismatches = _claim_mismatches(
        pair_claims(ctx.i_set, ctx.e_set), claims, lambda c: f"F={c[0]} J={c[1]}"
    )
    if mismatches:
        return mismatches
    store.require_all_used()
    _require_all_parts_used(unused)
    checks = []
    for f, j in sorted(pairs):
        checks.extend(
            pair_checks(ctx, lambda g, k: pairs[(g, k)], f, j, witnesses[(f, j)])
        )
    return checks


def _read_q(path, store: MorphismStore, ctx: WedgeContext):
    """The ensemble, the (layout, witness) pairs and the boundary witness
    written in the ``q.json`` at path, and the first entry of its part
    table that no block names, or None; the parsed file is dropped when
    this returns."""
    ens, layouts, bdata, table = _fields(
        _load(path), "q.json", "ensemble", "layouts", "boundary_witness", "parts"
    )
    q_ens = ensemble_from_json(ens, store, ctx.w_obj)
    entries = [
        _fields(entry, "layout entry", "layout", "witness")
        for entry in _list(layouts, "layouts")
    ]
    layouts = [_layout(a) for a, _w in entries]
    (*wits, bwit), unused = witnesses_from_json(
        table, [w for _a, w in entries] + [bdata], store, ctx, ctx.full_space
    )
    return q_ens, list(zip(layouts, wits)), bwit, unused


def check_q_artifacts(in_dir):
    """Re-verify an almost-fissile dump: one check per layout defect and
    one for the boundary defect.  The layouts are read from the file, and
    they must be the layouts of E, each once; otherwise only the failed
    claims are returned."""
    _manifest, ctx, store = _open_dump(in_dir, "almost-fissile")
    q_ens, layout_witnesses, bwit, unused = _read_q(
        os.path.join(in_dir, "q.json"), store, ctx
    )
    mismatches = _claim_mismatches(
        LayoutLattice(ctx.e_set, bound=len(ctx.e_set)).layouts,
        [a for a, _ in layout_witnesses],
        lambda a: f"A={a}",
    )
    if mismatches:
        return mismatches
    store.require_all_used()
    _require_all_parts_used([("q.json", unused)])
    return list(q_checks(ctx, q_ens, layout_witnesses, bwit))
