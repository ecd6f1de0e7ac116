"""The fuzz gate: every written field is load-bearing.

Each case sets one JSON path of a real dump to another value, or deletes
it, and runs the checker on the result.  A mutation whose JSON text equals
the original is skipped.  Every other one must end in exit 1 with a
``fail`` line, never in a traceback, unless an entry of ``ALLOWED`` below
matches it: a field that no check rests on, while the claim the file makes
still holds.  The first gate draws its paths from every file of a dump;
the second draws them from the witness encoding alone, the part table and
each witness's count and groups, one path of each shape in turn, so that
every kind of entry there, down to a single part index, is mutated.  A
third operator adds a key that nothing reads to one JSON object of a dump;
each such case must end in a ``fail`` line, with no allowance.  The
mutations are drawn from fixed seeds, so each run makes the same ones
(after Zeller et al., *The Fuzzing Book*, "Mutation-Based Fuzzing")."""

import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fissile.cli import main

MUTATIONS_PER_DUMP = 200
# rounds of the witness gate, each one mutation of every path shape
WITNESS_ROUNDS = 8
KEYS_ADDED_PER_DUMP = 40
DELETE = object()
VALUES = [None, "str", -1, [], {}, 10**6, True, DELETE]
# (kind, |E|, seed); every dump has |I| = 2
DUMPS = [("q", 1, 101), ("pj", 1, 102), ("q", 2, 103), ("pj", 2, 104)]


def _children(x):
    """The (key, value) pairs of a JSON object or list; none of a scalar."""
    return x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()


def _paths(x, prefix=()):
    """The path of every value under x, x itself excluded."""
    for key, child in _children(x):
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _objects(x, prefix=()):
    """The path of every JSON object under x, x itself included."""
    if isinstance(x, dict):
        yield prefix
    for key, child in _children(x):
        yield from _objects(child, prefix + (key,))


def _shape(files, name, path):
    """The shape of a path into the witness encoding of a file: the path
    from the ``parts`` table or the ``groups`` it runs through, each list
    index written as "#", or a witness's own field; None for any other."""
    for anchor in ("parts", "groups"):
        if anchor in path:
            return tuple("#" if type(k) is int else k for k in path[path.index(anchor) :])
    parent = _get(files[name], path[:-1])
    if isinstance(parent, dict) and "groups" in parent:
        return ("witness", path[-1])
    return None


def _get(x, path):
    for key in path:
        x = x[key]
    return x


def _mutated(data, path, value):
    """A copy of data with the value at path set to value, or deleted."""
    data = json.loads(json.dumps(data))
    parent = _get(data, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def _in_level_0_pi(files, name, path):
    """Whether path runs through terms/N/pi of a part written at level 0."""
    for i in range(len(path) - 2):
        if path[i] == "terms" and path[i + 2] == "pi":
            part = _get(files[name], path[:i])
            return isinstance(part, dict) and part.get("level") == 0
    return False


# Mutations that may pass, each a predicate on (original files, file name,
# path), with the reason the claim still holds.
ALLOWED = {
    # an empty witness holds at any level, so a witness with no blocks, and
    # so no groups, passes with any level that reaches the one it is checked
    # at; q(2,1)'s layout witnesses are empty
    "level of a witness with no blocks": lambda files, name, path: (
        path[-1] == "level"
        and isinstance(_get(files[name], path[:-1]), dict)
        and _get(files[name], path[:-1]).get("groups") == []
    ),
    # the level-0 ideal is the whole monoid ring, so the pi of a level-0
    # part is checked only for its keys and through the witness's value,
    # which the checker evaluates; a changed pi whose value is unchanged
    # (the constant part's morphism is fixed by every monoid element, so
    # only the sum of its pi counts) still makes a witness of the claim
    "pi of a level-0 part": _in_level_0_pi,
}


def _check(kind, in_dir):
    """Exit code and report lines of the checker, in-process; an exception
    the command lets escape is reported as the traceback it would print."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([f"check-{kind}", "--in", str(in_dir)])
    except Exception as exc:  # noqa: BLE001 - the gate reports it
        return None, [f"Traceback: {type(exc).__name__}: {exc}"]
    return rc, [json.loads(line) for line in out.getvalue().splitlines()]


def _check_mutated(kind, in_dir, name, original, mutated):
    """``_check`` of the dump with the file ``name`` replaced by mutated;
    the original is written back after."""
    (in_dir / name).write_text(json.dumps(mutated))
    try:
        return _check(kind, in_dir)
    finally:
        (in_dir / name).write_text(json.dumps(original))


def _failed(rc, lines):
    return rc == 1 and any(line["verdict"] == "fail" for line in lines)


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for kind, e, _seed in DUMPS:
        out = str(root / f"{kind}{e}")
        argv = [f"construct-{kind}", "--i", "2", "--e", str(e), "--out", out]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0
    return root


@pytest.mark.optimized
@pytest.mark.parametrize("kind, e, seed", DUMPS, ids=[f"{k}-2x{e}" for k, e, _ in DUMPS])
def test_every_one_field_mutation_fails(dumps, tmp_path, kind, e, seed):
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / f"{kind}{e}", in_dir)
    names = sorted(p.name for p in in_dir.glob("*.json"))
    files = {name: json.loads((in_dir / name).read_text()) for name in names}
    paths = {name: list(_paths(files[name])) for name in names}
    rng = random.Random(seed)
    run, wrong = 0, []
    while run < MUTATIONS_PER_DUMP:
        name = rng.choice(names)
        path = rng.choice(paths[name])
        value = rng.choice(VALUES)
        mutated = _mutated(files[name], path, value)
        if json.dumps(mutated) == json.dumps(files[name]):
            continue
        run += 1
        rc, lines = _check_mutated(kind, in_dir, name, files[name], mutated)
        shown = "deleted" if value is DELETE else json.dumps(value)
        case = f"{name} {list(path)} = {shown}"
        if _failed(rc, lines):
            continue
        if rc != 0 or not any(match(files, name, path) for match in ALLOWED.values()):
            wrong.append(f"{case}: exit {rc}, {lines}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.optimized
@pytest.mark.parametrize("kind, e, seed", DUMPS, ids=[f"{k}-2x{e}" for k, e, _ in DUMPS])
def test_every_witness_field_mutation_fails(dumps, tmp_path, kind, e, seed):
    # part table entries, terms and pi, groups, their f and blocks, each
    # block's coeff and index list, and each part index, drawn shape by
    # shape; a deleted group whose blocks cancel fails on the block count
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / f"{kind}{e}", in_dir)
    names = sorted(p.name for p in in_dir.glob("*.json"))
    files = {name: json.loads((in_dir / name).read_text()) for name in names}
    by_shape = {}
    for name in names:
        for path in _paths(files[name]):
            shape = _shape(files, name, path)
            if shape is not None:
                by_shape.setdefault(shape, []).append((name, path))
    index = ("groups", "#", "blocks", "#", "#", "#")
    assert {("parts", "#"), ("groups", "#", "f"), index} <= set(by_shape)
    rng = random.Random(seed)
    wrong = []
    for shape in sorted(by_shape) * WITNESS_ROUNDS:
        while True:
            name, path = rng.choice(by_shape[shape])
            value = rng.choice(VALUES)
            mutated = _mutated(files[name], path, value)
            if json.dumps(mutated) != json.dumps(files[name]):
                break
        rc, lines = _check_mutated(kind, in_dir, name, files[name], mutated)
        if _failed(rc, lines):
            continue
        if rc != 0 or not any(match(files, name, path) for match in ALLOWED.values()):
            shown = "deleted" if value is DELETE else json.dumps(value)
            wrong.append(f"{name} {list(path)} = {shown}: exit {rc}, {lines}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.optimized
@pytest.mark.parametrize("kind, e, seed", DUMPS, ids=[f"{k}-2x{e}" for k, e, _ in DUMPS])
def test_every_added_key_fails(dumps, tmp_path, kind, e, seed):
    # every object is read as exactly its fields, and the key of a morphism
    # record is the digest of its table, so no key can be added unseen
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / f"{kind}{e}", in_dir)
    names = sorted(p.name for p in in_dir.glob("*.json"))
    files = {name: json.loads((in_dir / name).read_text()) for name in names}
    objects = {name: list(_objects(files[name])) for name in names}
    rng = random.Random(seed)
    wrong = []
    for _ in range(KEYS_ADDED_PER_DUMP):
        name = rng.choice(names)
        path = rng.choice(objects[name])
        value = rng.choice([v for v in VALUES if v is not DELETE])
        mutated = json.loads(json.dumps(files[name]))
        _get(mutated, path)["unread"] = value
        rc, lines = _check_mutated(kind, in_dir, name, files[name], mutated)
        if not _failed(rc, lines):
            wrong.append(f"{name} {list(path)} + unread = {json.dumps(value)}: exit {rc}, {lines}")
    assert not wrong, "\n".join(wrong)
