"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here, and every written file is checked to be one
line of compact sorted-key JSON with no float in it.

The pins are those of the layout that writes each fact once: each dump is
the one pinned before with every part's ``domain`` and ``space`` dropped
(its block's wedge summand and its block's space), every table row
``[n, x, value]`` cut to its value (n and x follow from the record's
domain), and the wedge labels ``("wedgept",)`` and ``("wedge1", x)``
written ``("wedge", (("point",),))`` and ``("wedge", (x,))``; nothing else
changed."""

import hashlib
import json

import pytest

from fissile import artifacts
from fissile.artifacts import write_pair_artifacts, write_q_artifacts
from fissile.wedge import construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "b973637f3c9dc7609422004c46fdfa2cc122043505a09b7ead337e64aa00100e",
    ("pj", 3, 1): "01eabb93b5e379a27df729f261a3f103c6cf06799972a18495a60fcc7318f658",
    ("pj", 3, 2): "9e01b7cfc566e6da9dbfe2f58e261aa795796aac463d0bca014ddaf4397a2066",
    # the largest subset monoids
    ("pj", 4, 1): "a6a1c961d77437d254721df8ee7f2e3f9a9439e1bb9695882b0fa2b894ae8714",
    ("pj", 5, 1): "77910d2f6ba3d43413a8d38e2a282f6f4d5055befd20025ed70c012674bb02a6",
    ("q", 2, 1): "6bcfa448f89135c9fc330b03e0c12b2d75cbc50ee3541bedfa7f68648efa4f9a",
    ("q", 2, 2): "ae39082471afa4b98f75ac5fefdb004ec7ebfa9606f30df0ade8bd33ed38a740",
    ("q", 4, 1): "74329ff22cb09f511c7134603cfe3963729858671a3e8efc9309428feab9ef61",
    ("q", 5, 1): "767ef0a030d528045067b382d2c6469879395a19269bf7ce79ccfa84333126b9",
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
