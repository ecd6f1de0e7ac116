"""Serialization of construction artifacts and their independent re-check.

A morphism record names its domain by a label, whose grammar
:class:`fissile.wedge.WedgeContext` documents; nothing else in a dump is a
label.  The checker rebuilds each domain from the manifest sizes through
:meth:`~fissile.wedge.WedgeContext.obj`, the constructors the builder
calls, and derives every other object from what it reads: a block's wedge
is the wedge of the objects its parts' terms lie on, and a witness's space
is its claim's, the space at J for a pair (F, J) and the full space for q.
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
    one is checked as a bad value."""
    x = _object(x, what)
    for key in keys:
        if key not in x:
            raise ArtifactError(f"{what} lacks the field {key!r}")
    if len(x) != len(keys):
        extra = min(x.keys() - set(keys))
        raise ArtifactError(f"{what} has the field {extra!r:.60}, which is not read")
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


def witness_to_json(w: FiltrationWitness, store: MorphismStore):
    blocks = []
    for c, b in w.entries:
        blocks.append(
            {
                "coeff": c,
                "f": store.ref(b.f),
                "parts": [
                    {
                        "level": p.level,
                        "terms": [
                            {"pi": t.pi.sorted_items(), "w": store.ref(t.morphism)}
                            for t in p.terms
                        ],
                    }
                    for p in b.parts
                ],
            }
        )
    return {"level": w.level, "blocks": blocks}


def witness_from_json(data, store: MorphismStore, ctx: WedgeContext, space):
    """The witness written as data, claimed in the space.  Part j of a
    block is a nonempty list of terms on one object, the block's summand j,
    each valued in the space, whose actions are composed with it; the
    block's wedge is the context's wedge of those summands, and its f must
    map into it."""
    blocks, level = _fields(data, "witness", "blocks", "level")
    entries = []
    for b, brec in enumerate(_list(blocks, "blocks")):
        precs, fid, coeff = _fields(brec, "block", "parts", "f", "coeff")
        parts = []
        for j, prec in enumerate(_list(precs, "parts")):
            trecs, plevel = _fields(prec, "part", "terms", "level")
            terms = []
            for trec in _list(trecs, "terms"):
                w, pi = _fields(trec, "term", "w", "pi")
                # sets compare by identity, and every one comes from ctx
                if terms and store.domain(w) is not terms[0].morphism.domain:
                    raise ArtifactError(
                        f"block {b} part {j} has terms on "
                        f"{terms[0].morphism.domain.label!r} and on "
                        f"{store.domain(w).label!r}"
                    )
                morphism = store.morph(w, space.obj, f"block {b} part {j} term")
                terms.append(IdealTerm(_pi_from_json(pi), morphism))
            if not terms:
                raise ArtifactError(f"block {b} part {j} has no terms")
            parts.append(BlockPart(_int(plevel, "part level"), terms))
        if not parts:
            raise ArtifactError(f"block {b} has no parts")
        wedge_obj = ctx.wedge_of([p.terms[0].morphism.domain for p in parts])
        f = store.morph(fid, wedge_obj, f"block {b} decomposition")
        entries.append((_int(coeff, "block coeff"), Block(f, parts)))
    return FiltrationWitness(_int(level, "witness level"), entries)


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
        payload = {
            "face": f,
            "subset": j,
            "ensemble": ensemble_to_json(rec.ensemble, store),
            "alt_witness": witness_to_json(rec.alt_witness, store),
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
    payload = {
        "ensemble": ensemble_to_json(record.ensemble, store),
        "layouts": [
            {
                "layout": a,
                "witness": witness_to_json(record.layout_witnesses[a], store),
            }
            for a in sorted(record.layout_witnesses)
        ],
        "boundary_witness": witness_to_json(record.boundary_witness, store),
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


# the readers recurse on what they read; real dumps nest at most 13 deep
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
    claims, pairs, witnesses = [], {}, {}
    for name in _list(manifest["pairs"], "manifest 'pairs'"):
        plain = type(name) is str and os.path.basename(name) == name
        if not plain or name in ("", ".", ".."):
            raise ArtifactError(
                f"manifest pair file {name!r:.60} is not a file name in the dump"
            )
        payload = _load(os.path.join(in_dir, name))
        face, subset, ens, wit = _fields(
            payload, name, "face", "subset", "ensemble", "alt_witness"
        )
        f, j = subset_key(_subset(face, "face")), subset_key(_subset(subset, "subset"))
        claims.append((f, j))
        pairs[(f, j)] = ensemble_from_json(ens, store, ctx.w_obj)
        # a J outside I is a claim-extra line, and has no space to read into
        if set(j) <= set(ctx.i_set):
            witnesses[(f, j)] = witness_from_json(wit, store, ctx, ctx.space(j))
    mismatches = _claim_mismatches(
        pair_claims(ctx.i_set, ctx.e_set), claims, lambda c: f"F={c[0]} J={c[1]}"
    )
    if mismatches:
        return mismatches
    store.require_all_used()
    checks = []
    for f, j in sorted(pairs):
        checks.extend(
            pair_checks(ctx, lambda g, k: pairs[(g, k)], f, j, witnesses[(f, j)])
        )
    return checks


def _read_q(path, store: MorphismStore, ctx: WedgeContext):
    """The ensemble, the (layout, witness) pairs and the boundary witness
    written in the ``q.json`` at path; the parsed file is dropped when this
    returns."""
    ens, layouts, bdata = _fields(
        _load(path), "q.json", "ensemble", "layouts", "boundary_witness"
    )
    q_ens = ensemble_from_json(ens, store, ctx.w_obj)
    space = ctx.full_space
    layout_witnesses = []
    for entry in _list(layouts, "layouts"):
        layout, wit = _fields(entry, "layout entry", "layout", "witness")
        layout_witnesses.append(
            (_layout(layout), witness_from_json(wit, store, ctx, space))
        )
    return q_ens, layout_witnesses, witness_from_json(bdata, store, ctx, space)


def check_q_artifacts(in_dir):
    """Re-verify an almost-fissile dump: one check per layout defect and
    one for the boundary defect.  The layouts are read from the file, and
    they must be the layouts of E, each once; otherwise only the failed
    claims are returned."""
    _manifest, ctx, store = _open_dump(in_dir, "almost-fissile")
    q_ens, layout_witnesses, bwit = _read_q(os.path.join(in_dir, "q.json"), store, ctx)
    mismatches = _claim_mismatches(
        LayoutLattice(ctx.e_set, bound=len(ctx.e_set)).layouts,
        [a for a, _ in layout_witnesses],
        lambda a: f"A={a}",
    )
    if mismatches:
        return mismatches
    store.require_all_used()
    return list(q_checks(ctx, q_ens, layout_witnesses, bwit))
