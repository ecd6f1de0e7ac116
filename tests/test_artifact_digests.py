"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here, and the fast writer is checked against
the stdlib `json.dumps` it replaces."""

import hashlib
import json

import pytest

from fissile import artifacts
from fissile.artifacts import write_pair_artifacts, write_q_artifacts
from fissile.wedge import construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "bb0a2fc72fb65ab642376ed12d62cf473add827d3275697875d8d545b01f5485",
    ("pj", 3, 1): "3eda5c68c43a2214e6beaadbfe928a2c4e34d1a3641bddb834a16fd8803e518e",
    ("pj", 3, 2): "d0e0dee4a31442a9a7b95dfe60a10f8a51698c6e52e7b858b6fe14ff58b21876",
    # the largest ideal-chain certificate families
    ("pj", 4, 1): "f144d68be8f145d73a68b0311bc65e01cb15ff6e3bcebb4f09b9c6ff6e4afec1",
    ("pj", 5, 1): "5d97fb46007aa9e6fb72ac2f59ccc18180fb35217cebb177117487bee1b4b17f",
    ("q", 2, 1): "c54b27ddd0dd5597d4614e1b43bf8e15aa4a8e4267ee0e53423b89f7fca5e7af",
    ("q", 2, 2): "b78b6a66a1220c65934b975177bc709afb31906db71e4bd9554a5a97eeaf22d9",
    ("q", 4, 1): "4455e8f541b2bb1198d52c322166a27d030ee13203f809313673628b86c60cd9",
    ("q", 5, 1): "1c9884c43f3717987a31178613d159bba460759a6567a659e76d88255b45e0e5",
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
