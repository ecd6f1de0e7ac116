"""Byte identity of the written artifacts: the sha256 of every file of a
dump, pinned per workload size.  A change to any encoding, key order or
witness layout shows here."""

import hashlib

import pytest

from fissile.artifacts import write_pair_artifacts, write_q_artifacts
from fissile.wedge import construct_p, construct_q

DIGESTS = {
    ("pj", 2, 2): "bb0a2fc72fb65ab642376ed12d62cf473add827d3275697875d8d545b01f5485",
    ("q", 2, 1): "c54b27ddd0dd5597d4614e1b43bf8e15aa4a8e4267ee0e53423b89f7fca5e7af",
    ("q", 2, 2): "b78b6a66a1220c65934b975177bc709afb31906db71e4bd9554a5a97eeaf22d9",
}


def tree_digest(path):
    """sha256 over the file names and bytes of a dump, in name order."""
    h = hashlib.sha256()
    for child in sorted(path.iterdir()):
        h.update(child.name.encode() + b"\0" + child.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def pairs():
    return {
        (i, e): construct_p(tuple(range(1, i + 1)), tuple(range(1, e + 1)))
        for i, e in ((2, 1), (2, 2))
    }


@pytest.mark.parametrize("kind, i, e", sorted(DIGESTS))
def test_artifact_bytes_unchanged(kind, i, e, pairs, tmp_path):
    result = pairs[(i, e)]
    if kind == "pj":
        write_pair_artifacts(result, tmp_path)
    else:
        write_q_artifacts(result, construct_q(result), tmp_path)
    assert tree_digest(tmp_path) == DIGESTS[(kind, i, e)]
