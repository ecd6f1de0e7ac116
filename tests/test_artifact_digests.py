"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here, and every written file is checked to be one
line of compact sorted-key JSON with no float in it.

The pins are those of the compact layout with no zero block written and
no ideal certificate on any term: each dump is the one pinned before
with the ``cert`` and ``cert_level`` fields deleted from every term, and
nothing else changed."""

import hashlib
import json

import pytest

from fissile import artifacts
from fissile.artifacts import write_pair_artifacts, write_q_artifacts
from fissile.wedge import construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "20ffec15b16640446659f3d6966cd1c3858848a0dab3125ab4d0f9fae44478b2",
    ("pj", 3, 1): "f16944a0aacb9f2c2da37eabe2cb927272a40b02d0ca15974ba4e2cb64a6783a",
    ("pj", 3, 2): "cb09accc5387e5b192e4815fc175b407444a2b8af3fbe57ad98b91fe8f738e6f",
    # the largest subset monoids
    ("pj", 4, 1): "32b7d53f0c41a759288a7b908419cd53f497a1cf5676cc7d1319e0ede72a3e38",
    ("pj", 5, 1): "af292c3cdb99540cac61bff9f9adf25137877fb5ba6e5bf82c37c22887401200",
    ("q", 2, 1): "ccfbab3214facc6f46d93ba7a0d7c0c3bd82d27d3669b9fed66b7385b7f28b45",
    ("q", 2, 2): "78ee4f5159ba7c6890621949000baada422f1728f6b4e08ef47d1d75667250b4",
    ("q", 4, 1): "5106f382e1950960a7b89832403253e9f34a8f552ad22c779eb122f77a8456ed",
    ("q", 5, 1): "2d8b56a61cf5c8e8c6a84ccaf4b96532635252b544f9c11ad228a50421215358",
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
