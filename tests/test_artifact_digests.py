"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here, and the fast writer is checked against
the stdlib `json.dumps` it replaces.

The pins are those of the digest ids (``canon.morph_id``) and of records
without a codomain; each dump is the one pinned before, its ids mapped to
their digests and each record's codomain dropped."""

import hashlib
import json

import pytest

from fissile import artifacts
from fissile.artifacts import write_pair_artifacts, write_q_artifacts
from fissile.wedge import construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "6964f45bb0decbe9845b9c6884fc47f8718bbb8108ceb18e0ac4d6c6bc84b7b0",
    ("pj", 3, 1): "6e3a76a2a5c197c6f5686217a9c2547f68002a1cb9afb268b2c9611b3b304910",
    ("pj", 3, 2): "eb2889d646e9c9bcf309574dd544535c1afeb7e5b5992bbc58e0697cfc6ae906",
    # the largest ideal-chain certificate families
    ("pj", 4, 1): "c7dc79da4b9e5f53567e51ef5705fca27f0873d109110666c458a845dab5d57d",
    ("pj", 5, 1): "1869f694a382767de13a4e89be59ad4bf1fd275feead142bfe30b715fdb58b61",
    ("q", 2, 1): "4f1f67ba482eff169d6cfa2a339c328d2f9d5149049697df821df90c0008331a",
    ("q", 2, 2): "e6e1bbcd1d950cade1c6e155e5fcfc334236896a6f6eb6825e68fc9574c1d532",
    ("q", 4, 1): "85d2ccd8d29d8602370735b9d686764f786cdf582caa01d899c98dc6d6ab04fc",
    ("q", 5, 1): "0230e83415f21fa7be3c0e682e0d2f4ef6cf79444220b99e1f2f6dac5fbb9849",
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


def written_text(payload):
    chunks = []
    artifacts._json_chunks(payload, 0, chunks.append)
    return "".join(chunks)


def test_writer_matches_stdlib_on_every_payload(pairs, monkeypatch, tmp_path):
    payloads = []
    monkeypatch.setattr(artifacts, "_dump", lambda path, payload: payloads.append(payload))
    result = pairs[(2, 1)]
    write_pair_artifacts(result, tmp_path)
    write_q_artifacts(result, construct_q(result), tmp_path)
    assert len(payloads) == 8
    for payload in payloads:
        assert written_text(payload) == json.dumps(payload, sort_keys=True, indent=1)


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
def test_writer_matches_stdlib_on_edge_cases(value):
    assert written_text(value) == json.dumps(value, sort_keys=True, indent=1)


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": {1, 2}}, [object()], b"x"])
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        written_text(value)
