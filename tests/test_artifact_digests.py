"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here, and every written file is checked to be one
line of compact sorted-key JSON with no float in it.

The pins are those of the compact layout with no zero block written; each
dump is the one pinned before less exactly the blocks that are zero on
their own, and the morphism records only they used; that moves the pins
at (2, 2) and (3, 2), and none at |E| = 1, where no block is zero."""

import hashlib
import json

import pytest

from fissile import artifacts
from fissile.artifacts import write_pair_artifacts, write_q_artifacts
from fissile.wedge import construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "3388550b5b298310eb64e2d37759da010c6abd830e911c38d2f8f0368dd711a8",
    ("pj", 3, 1): "e84914fe661d208ca0cb136e98d196ccb5525bc70fcd9c520acee1fdad066a76",
    ("pj", 3, 2): "927200779a96d2e39137c52f941e18db6975c715039ece65e71c3be266917bb7",
    # the largest ideal-chain certificate families
    ("pj", 4, 1): "0fe35c02d4c99174861ab7e62cb5aca5bb5f2374645d4c878dd2e54caeb6a5df",
    ("pj", 5, 1): "743f1ea0dad5e4fa7bc142b459bfba6624c087d5ccb2f6a352178fc04b6042d6",
    ("q", 2, 1): "a55334fbbd263900e509602cb8fa85e5b54f241b26f0532cd7af2c767ebe29c3",
    ("q", 2, 2): "550cf9f64f5b9189c99989fd5346ed3dacd6c2704f7439da3c832142cfdd1c62",
    ("q", 4, 1): "351740179f0de31608d50f48cb87b1324df7acbae95fdec2d6db4f7ca6d0cdb5",
    ("q", 5, 1): "85c5f67128696afbee0c786c199d0de65be9c14b9665c10dec944da73ccaadc3",
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
