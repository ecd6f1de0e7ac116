"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here, and every written file is checked to be one
line of compact sorted-key JSON with no float in it.

The pins are those of blocks written as their ``coeff``, ``f`` and
``parts`` alone: each dump is the one pinned before with every block's
``space`` and ``wedge`` dropped (the space is its claim's, and the wedge is
the wedge of the objects its parts' terms lie on, which f maps into);
``morphisms.json`` and ``manifest.json`` are byte-identical, and
check-pj/check-q give the same check names and verdicts at every pinned
size; nothing else changed."""

import hashlib
import json

import pytest

from fissile import artifacts
from fissile.artifacts import write_pair_artifacts, write_q_artifacts
from fissile.wedge import construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "795f74ff2453388374e40308542b0c7a476eae3b28fe52c40d8dfe9e1b240b3a",
    ("pj", 3, 1): "6a4b07798f02905033154148509968cc5f219246efec8640dca790b93c439b46",
    ("pj", 3, 2): "626f8df46409c711b848d8149748808e00152fdd01cde2bcf342820499565a16",
    # the largest subset monoids
    ("pj", 4, 1): "017019a34a646adf6f809051c4f98be01a13b71a0fe59806eebf860a79835490",
    ("pj", 5, 1): "b883a5a5aded0af9e41b2d8eea25656e94303b5f2ddcca1d12a647ea4419a65f",
    ("q", 2, 1): "bf2c3a365e84eccb2654d2ebd7c4bc7a045b53b26a114b7425a04f1393e14c7a",
    ("q", 2, 2): "caff700aa142aaa291dcdc1797918894e7a673710f52938a61be7b64d60aa1f1",
    ("q", 4, 1): "a5242256274ef5c6182ae0f271d0804681c6ff808559eb362713963048bb2107",
    ("q", 5, 1): "68e6c9a232efa9d28ba3dab5605827e56bcdb3790660efd8ecc1c28a7aa9fee6",
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
