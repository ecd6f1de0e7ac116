"""Serialization of construction artifacts and their independent re-check.

Artifacts reference simplicial objects through a small label grammar; the
checker rebuilds those objects deterministically from the manifest sizes,
each label once, revalidates every stored morphism table against them, and
re-verifies all claims from file contents alone, never trusting the
builder's bookkeeping.  The claims are evaluated by the condition functions
of :mod:`fissile.wedge` (``pair_checks`` and ``q_checks``), the same ones the
builder evaluates while it constructs, so builder and checker cannot drift
apart.
"""

import json
import os

from .canon import ckey_b64, jsonable, unjsonable
from .chained import IdealCertificate, subset_key
from .ensembles import Ensemble
from .layouts import layout_key
# ``wedge`` stays importable here: perfbench/spans.py wraps every binding of
# it.  Wedges themselves come from the context's registry.
from .simplicial import SMorphism, wedge  # noqa: F401
from .wedge import WedgeContext, pair_checks, q_checks
from .witnesses import Block, BlockPart, FiltrationWitness, IdealTerm


class ArtifactError(ValueError):
    pass


# -- object resolution --------------------------------------------------------


def _label_key(label):
    label = unjsonable(label)
    return label, json.dumps(jsonable(label), sort_keys=True)


class LabelResolver:
    """Rebuild simplicial objects and spaces from their labels.

    Each label is built once per resolver; a wedge label keeps its
    insertions alongside its object.  Wedges come from the context's
    registry, the same wedge table the builder uses.
    """

    def __init__(self, ctx: WedgeContext):
        self.ctx = ctx
        self._objs = {}
        self._insertions = {}
        self._spaces = {}

    def obj(self, label):
        label, key = _label_key(label)
        if key in self._objs:
            return self._objs[key]
        kind = label[0]
        ctx = self.ctx
        if kind == "conelayout":
            out = ctx.cone_layout(label[1])
        elif kind == "plusbase":
            out = ctx.plus_base_of(label[1])
        elif kind == "point":
            out = ctx.point_obj()
        elif kind in ("wedgept", "wedge1", "wedge"):
            if kind == "wedgept":
                parts = [ctx.point_obj()]
            elif kind == "wedge1":
                parts = [self.obj(label[1])]
            else:
                parts = [self.obj(sub) for sub in label[1]]
            out, self._insertions[key] = ctx.registry.wedge(parts, label=label)
        elif kind == "wedgecones":
            _iota, out, self._insertions[key] = ctx.iota(label[1])
        elif kind == "W":
            out = ctx.w_obj
        elif kind == "WL":
            out = ctx.full_space.obj if subset_key(label[1]) == ctx.i_set else ctx.sub_obj(label[1])
        elif kind == "Wx":
            out = ctx.proper_space().obj
        elif kind == "redcone":
            inner_label = unjsonable(label[1])
            if inner_label[0] in ("WL", "Wx", "W"):
                out = self.ctx.registry.reduced_space(self.space(inner_label))[1][0]
            else:
                out = self.ctx.registry.reduced_domain(self.obj(inner_label))[0]
        else:
            raise ArtifactError(f"unknown object label {label!r}")
        self._objs[key] = out
        return out

    def insertions(self, label):
        """The insertions of the parts of a wedge label."""
        self.obj(label)
        label, key = _label_key(label)
        if key not in self._insertions:
            raise ArtifactError(f"label {label!r} is not a wedge")
        return self._insertions[key]

    def space(self, label):
        label, key = _label_key(label)
        if key in self._spaces:
            return self._spaces[key]
        kind = label[0]
        if kind in ("WL", "W"):
            out = self.ctx.space(label[1]) if kind == "WL" else self.ctx.full_space
        elif kind == "Wx":
            out = self.ctx.proper_space()
        elif kind == "redcone":
            out = self.ctx.registry.reduced_space(self.space(label[1]))[0]
        else:
            raise ArtifactError(f"unknown space label {label!r}")
        self._spaces[key] = out
        return out


def morphism_from_nondegenerate(dom, cod, rows) -> SMorphism:
    """Rebuild a full morphism table from its nondegenerate rows."""
    assigned = {}
    for n, x, v in rows:
        assigned[(n, x)] = v
    maps = []
    for n in range(dom.bound + 1):
        level = {}
        for x in dom.level(n):
            ops, m, y = dom.eilenberg_zilber(n, x)
            if (m, y) not in assigned:
                raise ArtifactError("morphism table misses a nondegenerate simplex")
            v = assigned[(m, y)]
            mm = m
            for i in reversed(ops):
                v = cod.degen(mm, i, v)
                mm += 1
            level[x] = v
        maps.append(level)
    return SMorphism(dom, cod, maps)


# -- morphism registry ---------------------------------------------------------


class MorphismStore:
    def __init__(self):
        self.records = {}
        self.loaded = {}

    def ref(self, m: SMorphism) -> str:
        mid = ckey_b64(m)
        if mid not in self.records:
            rows = [
                [n, jsonable(x), jsonable(v)]
                for (n, x, v) in m.table_key()
            ]
            self.records[mid] = {
                "domain": jsonable(m.domain.label),
                "codomain": jsonable(m.codomain.label),
                "table": rows,
            }
        return mid

    def to_json(self):
        return {mid: rec for mid, rec in sorted(self.records.items())}

    @staticmethod
    def load(data, resolver: LabelResolver):
        store = MorphismStore()
        for mid, rec in data.items():
            dom = resolver.obj(rec["domain"])
            cod = resolver.obj(rec["codomain"])
            rows = [
                (n, unjsonable(x), unjsonable(v)) for n, x, v in rec["table"]
            ]
            m = morphism_from_nondegenerate(dom, cod, rows)
            if ckey_b64(m) != mid:
                raise ArtifactError("morphism id does not match its table")
            store.loaded[mid] = m
        return store

    def morph(self, mid):
        if mid not in self.loaded:
            raise ArtifactError(f"unknown morphism reference {mid}")
        return self.loaded[mid]


# -- ensembles and witnesses ----------------------------------------------------


def ensemble_to_json(s: Ensemble, store: MorphismStore):
    return [
        {"key": store.ref(m), "coeff": str(c)} for m, c in s.sorted_items()
    ]


def ensemble_from_json(data, store: MorphismStore) -> Ensemble:
    out = {}
    for entry in data:
        out[store.morph(entry["key"])] = int(entry["coeff"])
    return Ensemble(out)


def _pi_to_json(pi: Ensemble):
    return [[list(k), c] for k, c in pi.sorted_items()]


def _pi_from_json(data) -> Ensemble:
    return Ensemble({tuple(k): int(c) for k, c in data})


def witness_to_json(w: FiltrationWitness, store: MorphismStore):
    blocks = []
    for c, b in w.entries:
        blocks.append(
            {
                "coeff": c,
                "f": store.ref(b.f),
                "wedge": jsonable(b.wedge_obj.label),
                "space": jsonable(b.space.label),
                "parts": [
                    {
                        "level": p.level,
                        "domain": jsonable(p.domain.label),
                        "space": jsonable(p.space.label),
                        "terms": [
                            {
                                "pi": _pi_to_json(t.pi),
                                "cert_level": t.certificate.level,
                                "cert": [
                                    [list(l_key), list(j_key), c2]
                                    for l_key, j_key, c2 in t.certificate.combination
                                ],
                                "w": store.ref(t.morphism),
                            }
                            for t in p.terms
                        ],
                    }
                    for p in b.parts
                ],
            }
        )
    return {"level": w.level, "blocks": blocks}


def witness_from_json(data, store: MorphismStore, resolver: LabelResolver):
    entries = []
    for brec in data["blocks"]:
        wedge_obj = resolver.obj(brec["wedge"])
        insertions = resolver.insertions(brec["wedge"])
        space = resolver.space(brec["space"])
        parts = []
        for prec in brec["parts"]:
            terms = []
            for trec in prec["terms"]:
                cert = IdealCertificate(
                    level=int(trec["cert_level"]),
                    combination=tuple(
                        (tuple(l_key), tuple(j_key), int(c2))
                        for l_key, j_key, c2 in trec["cert"]
                    ),
                )
                terms.append(
                    IdealTerm(
                        pi=_pi_from_json(trec["pi"]),
                        certificate=cert,
                        morphism=store.morph(trec["w"]),
                    )
                )
            parts.append(
                BlockPart(
                    level=int(prec["level"]),
                    terms=terms,
                    domain=resolver.obj(prec["domain"]),
                    space=resolver.space(prec["space"]),
                )
            )
        entries.append(
            (
                int(brec["coeff"]),
                Block(
                    f=store.morph(brec["f"]),
                    wedge_obj=wedge_obj,
                    insertions=insertions,
                    parts=parts,
                    space=space,
                ),
            )
        )
    return FiltrationWitness(int(data["level"]), entries)


# -- writing -------------------------------------------------------------------


def _dump(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _slug(subset):
    return "-".join(str(x) for x in subset) if subset else "empty"


def write_pair_artifacts(result, out_dir):
    """Dump every constructed pair with its certificate to a directory."""
    os.makedirs(out_dir, exist_ok=True)
    ctx = result.ctx
    store = MorphismStore()
    pair_files = []
    for (f, j), rec in sorted(result.pairs.items()):
        name = f"pair_F{_slug(f)}_J{_slug(j)}.json"
        payload = {
            "face": list(f),
            "subset": list(j),
            "ensemble": ensemble_to_json(rec.ensemble, store),
            "alt_witness": witness_to_json(rec.alt_witness, store),
        }
        _dump(os.path.join(out_dir, name), payload)
        pair_files.append(name)
    _dump(
        os.path.join(out_dir, "manifest.json"),
        {
            "kind": "pair-construction",
            "i": list(ctx.i_set),
            "e": list(ctx.e_set),
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
                "layout": [list(g) for g in a],
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
            "i": list(ctx.i_set),
            "e": list(ctx.e_set),
            "bound": ctx.bound,
        },
    )
    _dump(os.path.join(out_dir, "morphisms.json"), store.to_json())


# -- checking -------------------------------------------------------------------


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _open_dump(in_dir, kind):
    """The manifest of a dump, the context rebuilt from its sizes, a label
    resolver over that context, and the loaded morphism store."""
    manifest = _load(os.path.join(in_dir, "manifest.json"))
    if manifest.get("kind") != kind:
        raise ArtifactError("manifest kind mismatch")
    ctx = WedgeContext(
        tuple(manifest["i"]), tuple(manifest["e"]), bound=manifest["bound"]
    )
    resolver = LabelResolver(ctx)
    store = MorphismStore.load(
        _load(os.path.join(in_dir, "morphisms.json")), resolver
    )
    return manifest, ctx, resolver, store


def check_pair_artifacts(in_dir):
    """Re-verify a pair-construction dump from files alone.

    Returns a list of (check-name, ok) tuples, one per condition and pair,
    from the same condition functions the builder evaluates.
    """
    manifest, ctx, resolver, store = _open_dump(in_dir, "pair-construction")
    pairs = {}
    witnesses = {}
    for name in manifest["pairs"]:
        payload = _load(os.path.join(in_dir, name))
        f = subset_key(payload["face"])
        j = subset_key(payload["subset"])
        pairs[(f, j)] = ensemble_from_json(payload["ensemble"], store)
        witnesses[(f, j)] = witness_from_json(
            payload["alt_witness"], store, resolver
        )
    checks = []
    for f, j in sorted(pairs):
        checks.extend(
            pair_checks(ctx, lambda g, k: pairs[(g, k)], f, j, witnesses[(f, j)])
        )
    return checks


def check_q_artifacts(in_dir):
    """Re-verify an almost-fissile dump: one check per layout defect and
    one for the boundary defect."""
    _manifest, ctx, resolver, store = _open_dump(in_dir, "almost-fissile")
    payload = _load(os.path.join(in_dir, "q.json"))
    q_ens = ensemble_from_json(payload["ensemble"], store)
    layout_witnesses = [
        (
            layout_key([tuple(g) for g in entry["layout"]]),
            witness_from_json(entry["witness"], store, resolver),
        )
        for entry in payload["layouts"]
    ]
    bwit = witness_from_json(payload["boundary_witness"], store, resolver)
    return list(q_checks(ctx, q_ens, layout_witnesses, bwit))
