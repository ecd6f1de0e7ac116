"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here, and every written file is checked to be one
line of compact sorted-key JSON with no float in it.

The pins are those of witness files with a part table: each pair file and
``q.json`` holds each distinct part once, in a top-level ``parts`` list in
first-use order, and a witness is its ``level``, its ``block_count`` and
its ``groups``, one ``{"f", "blocks"}`` per distinct id of f, each block
``[coeff, [part index, ...]]``.  Before they were pinned, every dump at
every pinned size was read back to the witnesses the dumps pinned before
gave, block for block as a multiset of (coeff, f, parts), to the same
evaluated values; ``morphisms.json`` and ``manifest.json`` are
byte-identical, and check-pj/check-q give the same check names and
verdicts."""

import hashlib
import json

import pytest

from collections import Counter

from fissile import artifacts
from fissile.artifacts import (
    MorphismStore,
    witnesses_from_json,
    write_pair_artifacts,
    write_q_artifacts,
)
from fissile.wedge import WedgeContext, construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "3eff91a86ae4e1276daed79e9b7f28a02a1b9020896c9c1047bbc81d99d104a0",
    ("pj", 3, 1): "06990a5246a39d835c2175e21b6fb5f937f64e724f9d6e19fb093d343c3dcccd",
    ("pj", 3, 2): "fd6de5c99e1fbc59b313132dc86209d071da6ff26b148de4e019ddb8996383fd",
    # the largest subset monoids
    ("pj", 4, 1): "ee71f5c037eced9d1659ff44db546a5020f92b7cdaf7e4e4826260764943b54b",
    ("pj", 5, 1): "a57908a930caa6aa53a56214f08bce7d5662d8c36fdb51f4fbb53bc67ab61585",
    ("q", 2, 1): "cc4ce9ccad03567a9f1533599811f259c7a9cddbaa49f3d270cf9582f6a79087",
    ("q", 2, 2): "67a3322d28d940ce198e03ef6af3334a581c3fc3f548e029e63c4f1906171f82",
    ("q", 4, 1): "374844590a579fbdd80d3e98b541305003678c6ee0c7e3e86d008507069376b4",
    ("q", 5, 1): "eb89e724bf3fa2aae93fa49e6eb92f39af73efffe125777f3ed4a87257858015",
}


def tree_digest(path):
    """sha256 over the file names and bytes of a dump, in name order."""
    h = hashlib.sha256()
    for child in sorted(path.iterdir()):
        h.update(child.name.encode() + b"\0" + child.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def pairs():
    # (3, 2), (4, 1) and (5, 1) lie beyond the default construction guard
    return {
        (i, e): construct_p(
            tuple(range(1, i + 1)), tuple(range(1, e + 1)), enforce_guard=False
        )
        for i, e in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1))
    }


@pytest.mark.parametrize("kind, i, e", sorted(DIGESTS))
def test_artifact_bytes_unchanged(kind, i, e, pairs, tmp_path):
    result = pairs[(i, e)]
    if kind == "pj":
        write_pair_artifacts(result, tmp_path)
    else:
        write_q_artifacts(result, construct_q(result), tmp_path)
    assert tree_digest(tmp_path) == DIGESTS[(kind, i, e)]


def _read_back(kind, result, path):
    """(builder's witness, its space, witness read back, its space) for
    every witness of the dump of this kind written to path, read by the
    checker's reader in a context of its own."""
    ctx = result.ctx
    if kind == "pj":
        write_pair_artifacts(result, path)
        claims = sorted(result.pairs.items())
        built = [(rec.alt_witness, ctx.space(j)) for (_f, j), rec in claims]
        names = json.loads((path / "manifest.json").read_text())["pairs"]
        files = [(path / name, (j,)) for name, ((_f, j), _rec) in zip(names, claims)]
    else:
        record = construct_q(result)
        write_q_artifacts(result, record, path)
        ws = [record.layout_witnesses[a] for a in sorted(record.layout_witnesses)]
        built = [(w, ctx.full_space) for w in ws + [record.boundary_witness]]
        files = [(path / "q.json", None)]
    ctx2 = WedgeContext(ctx.i_set, ctx.e_set)
    store = MorphismStore.load(json.loads((path / "morphisms.json").read_text()), ctx2)
    read = []
    for file, claim in files:
        data = json.loads(file.read_text())
        if claim is None:
            written = [e["witness"] for e in data["layouts"]] + [data["boundary_witness"]]
            space = ctx2.full_space
        else:
            written, space = [data["alt_witness"]], ctx2.space(*claim)
        ws, unused = witnesses_from_json(data["parts"], written, store, ctx2, space)
        assert unused is None
        read.extend((w, space) for w in ws)
    return [b + r for b, r in zip(built, read, strict=True)]


def _blocks(w):
    """The blocks of a witness as a multiset of (coeff, f, part keys); f
    compares by its table, a part key by level and (pi, w) terms."""
    return Counter((c, b.f, tuple(p.key for p in b.parts)) for c, b in w.entries)


@pytest.mark.parametrize("kind, i, e", [("pj", 2, 2), ("pj", 3, 2), ("q", 2, 2)])
def test_every_witness_reads_back_as_built(kind, i, e, pairs, tmp_path):
    # grouping reorders blocks and the part table shares parts; neither
    # changes a witness's blocks or its value
    witnesses = _read_back(kind, pairs[(i, e)], tmp_path)
    assert len(witnesses) == {("pj", 2, 2): 9, ("pj", 3, 2): 21, ("q", 2, 2): 6}[(kind, i, e)]
    for built, space, read, space2 in witnesses:
        assert read.level == built.level
        assert _blocks(read) == _blocks(built)
        assert read.value(space2) == built.value(space)


def _no_float(text):
    raise ValueError(f"float {text} in a written file")


def test_every_file_is_one_line_of_compact_sorted_json(pairs, tmp_path):
    result = pairs[(2, 1)]
    write_pair_artifacts(result, tmp_path / "pj")
    write_q_artifacts(result, construct_q(result), tmp_path / "q")
    paths = sorted(tmp_path.glob("*/*.json"))
    assert len(paths) == 8
    for path in paths:
        text = path.read_bytes().decode("ascii")
        assert text.index("\n") == len(text) - 1, path.name
        value = json.loads(text, parse_float=_no_float)
        compact = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert text == compact + "\n", path.name


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"b": {}, "a": [[], {}, ()], "c": [[[]]]},
        "",
        "caf\u00e9 \u2028 \U0001f600",
        "\x00\x1f\x7f \"quoted\" back\\slash\n\t",
        {"\u00e9": 1, "e": 2, "\x01": 3},
        [0, -1, -(2**70), 2**64, 2**64 + 1],
        [True, False, None, 1, 0],
        (1, ("a", (None, ())), [True]),
        {"z": {"y": [1, {"x": ()}]}, "a": None},
    ],
)
def test_writer_matches_stdlib_on_edge_cases(value, tmp_path):
    # escapes, big integers and tuples, which real dumps barely exercise
    path = tmp_path / "value.json"
    artifacts._dump(path, value)
    text = path.read_bytes().decode("ascii")
    assert text == json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
