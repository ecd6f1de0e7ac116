import base64
import functools
import inspect
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import fissile
from fissile import cli, suites, wedge
from fissile.artifacts import MAX_DEPTH, ArtifactError, MorphismStore, resolve
from fissile.canon import ckey, jsonable, morph_id
from fissile.cli import main, parse_word
from fissile.wedge import WedgeContext
from fissile.witnesses import FiltrationWitness


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_parse_word():
    assert parse_word("x1 x2 x1^-1 x2^-1") == ((1, 1), (2, 1), (1, -1), (2, -1))
    assert parse_word("x1 x1^-1") == ()


def test_verify_suite_passes_and_reports():
    rc, out, err = run_cli(["verify", "identities", "--max-a", "2", "--max-i", "2"])
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(r["verdict"] == "pass" for r in lines)
    assert all(set(r) >= {"suite", "case", "verdict", "ms"} for r in lines)
    assert "passed" in err


def test_verify_unknown_suite_usage():
    rc, _out, err = run_cli(["verify", "nonsense"])
    assert rc == 2
    assert "unknown suite" in err


def test_word_parse_error_exit():
    rc, _out, err = run_cli(["check-brunnian", "--word", "y3 x1", "--alphabet", "2"])
    assert rc == 2
    assert "position 0" in err


@pytest.mark.parametrize("word", ["x01 x1^-1", "x007^-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["magnus", "--degree", "2"],
        ["lcs", "--max-degree", "2"],
        ["check-brunnian", "--alphabet", "9"],
    ],
    ids=lambda c: c[0],
)
def test_word_letters_are_canonical_decimal(word, command):
    # a leading zero is a parse error, so "x01 x1^-1" is not read as the empty word
    rc, out, err = run_cli([command[0], "--word", word, *command[1:]])
    assert rc == 2 and not out
    assert "cannot parse token" in err and "position 0" in err


def test_check_brunnian_verdicts():
    rc, out, _err = run_cli(
        ["check-brunnian", "--word", "x1 x2 x1^-1 x2^-1", "--alphabet", "2"]
    )
    assert rc == 0
    assert json.loads(out)["brunnian"] is True
    rc, out, _err = run_cli(["check-brunnian", "--word", "x1", "--alphabet", "2"])
    assert json.loads(out)["brunnian"] is False


@pytest.mark.parametrize(
    "word, alphabet, letter",
    [("x1", "0", "x1"), ("x1 x3^-1", "2", "x3"), ("x0", "1", "x0")],
)
def test_check_brunnian_rejects_letters_outside_alphabet(word, alphabet, letter):
    rc, out, err = run_cli(["check-brunnian", "--word", word, "--alphabet", alphabet])
    assert rc == 2
    assert not out
    assert f"letter {letter} " in err


@pytest.mark.optimized
def test_check_brunnian_alphabet_is_a_non_negative_int():
    # a negative size exits with usage, as every other size does; 0 is valid
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["check-brunnian", "--word", "", "--alphabet", "-1"])
    assert exc.value.code == 2
    assert "usage:" in err.getvalue()
    assert "'-1' is not a non-negative integer" in err.getvalue()
    rc, out, _err = run_cli(["check-brunnian", "--word", "", "--alphabet", "0"])
    assert rc == 0 and json.loads(out)["case"]["alphabet"] == 0


def test_verify_beyond_ground_bound_skips():
    rc, out, err = run_cli(["verify", "nabla", "--max-e", "5", "--cases", "1"])
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["verdict"] for r in lines[:-1]] == ["pass"] * 8
    assert lines[-1]["verdict"] == "skipped-guard"
    assert "size 5" in lines[-1]["case"]["guard"]
    assert "1 skipped" in err


def test_lcs_and_magnus_commands():
    rc, out, _err = run_cli(["lcs", "--word", "x1", "--max-degree", "4"])
    assert rc == 0 and json.loads(out)["depth"] == 1
    rc, out, _err = run_cli(
        ["lcs", "--word", "x1 x2 x1^-1 x2^-1", "--max-degree", "4"]
    )
    assert json.loads(out)["depth"] == 2
    rc, out, _err = run_cli(["magnus", "--word", "x1 x2 x1^-1 x2^-1", "--degree", "2"])
    payload = json.loads(out)
    terms = {tuple(t["monomial"]): t["coeff"] for t in payload["terms"]}
    assert terms == {(): 1, (1, 2): 1, (2, 1): -1}


def test_construct_and_check_round_trip(tmp_path):
    pj = str(tmp_path / "pj")
    rc, out, _err = run_cli(["construct-pj", "--i", "1", "--e", "1", "--out", pj])
    assert rc == 0
    assert json.loads(out)["verdict"] == "pass"
    rc, out, _err = run_cli(["check-pj", "--in", pj])
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(r["verdict"] == "pass" for r in lines)

    qd = str(tmp_path / "q")
    rc, out, _err = run_cli(["construct-q", "--i", "1", "--e", "1", "--out", qd])
    assert rc == 0
    rc, out, _err = run_cli(["check-q", "--in", qd])
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(r["verdict"] == "pass" for r in lines)


def test_construct_guard_skips(tmp_path):
    rc, out, _err = run_cli(
        ["construct-pj", "--i", "5", "--e", "5", "--out", str(tmp_path / "x")]
    )
    assert rc == 0
    assert json.loads(out)["verdict"] == "skipped-guard"


@pytest.mark.parametrize(
    "env, i, e",
    [
        ({"FISSILE_MAX_CONSTRUCT_I": "1"}, 3, 1),
        ({"FISSILE_MAX_CONSTRUCT_I": "1"}, 2, 1),
        ({"FISSILE_MAX_CONSTRUCT_E": "0"}, 3, 1),
        ({"FISSILE_MAX_CONSTRUCT_I": "2"}, 3, 2),
    ],
    ids=repr,
)
def test_construct_guard_tighter_than_the_defaults_skips(monkeypatch, env, i, e):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    rc, out, _err = run_cli(["construct-q", "--i", str(i), "--e", str(e)])
    assert rc == 0
    assert json.loads(out)["verdict"] == "skipped-guard"


def test_construct_guard_admits_three_by_one_above_two_by_one(monkeypatch):
    monkeypatch.setenv("FISSILE_MAX_CONSTRUCT_I", "2")
    monkeypatch.setenv("FISSILE_MAX_CONSTRUCT_E", "1")
    wedge.construction_guard((1, 2, 3), (1,))


def _cli_in_capped_child(argv, optimize):
    """Exit code, report lines and stderr of the command line in a child
    process, with ``-O`` when optimize, whose address space is capped at
    1 GB, so a build far past the guards fails fast instead of filling the
    machine."""
    src = os.path.dirname(os.path.dirname(fissile.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "fissile.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap,
    )
    return proc.returncode, [json.loads(x) for x in proc.stdout.splitlines()], proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_check_refuses_a_manifest_past_the_guard_before_building(tmp_path, optimize):
    # a q(1,1) dump whose manifest names 16 indices: the checker would build
    # the wedge of 2^16 suspensions, so the guard refuses it first, as a
    # failure, since a check that verified nothing must not pass
    in_dir = tmp_path / "q"
    assert run_cli(["construct-q", "--i", "1", "--e", "1", "--out", str(in_dir)])[0] == 0
    manifest = json.loads((in_dir / "manifest.json").read_text())
    manifest["i"] = list(range(1, 17))
    (in_dir / "manifest.json").write_text(json.dumps(manifest))
    rc, reports, err = _cli_in_capped_child(["check-q", "--in", str(in_dir)], optimize)
    assert rc == 1
    (report,) = reports
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == (
        "artifact-structure (construction sizes |I|=16, |E|=1 exceed the configured guard)"
    )
    assert "Traceback" not in err


@pytest.mark.optimized
def test_check_applies_the_construction_guard(tmp_path, monkeypatch):
    # a (3, 2) dump fails past the default guards and passes within raised ones
    in_dir = str(tmp_path / "pj")
    monkeypatch.setenv("FISSILE_MAX_CONSTRUCT_I", "3")
    assert run_cli(["construct-pj", "--i", "3", "--e", "2", "--out", in_dir])[0] == 0
    rc, out, _err = run_cli(["check-pj", "--in", in_dir])
    reports = [json.loads(line) for line in out.splitlines()]
    assert rc == 0 and len(reports) == 63
    assert all(r["verdict"] == "pass" for r in reports)
    monkeypatch.delenv("FISSILE_MAX_CONSTRUCT_I")
    rc, out, _err = run_cli(["check-pj", "--in", in_dir])
    assert rc == 1
    (report,) = map(json.loads, out.splitlines())
    assert report["verdict"] == "fail"
    assert "|I|=3, |E|=2 exceed the configured guard" in report["case"]["check"]


@pytest.mark.parametrize("value", ["two", "2.5", ""])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("FISSILE_MAX_CONSTRUCT_I", ["construct-q", "--i", "1", "--e", "1"]),
        ("FISSILE_MAX_CONSTRUCT_E", ["construct-q", "--i", "1", "--e", "1"]),
        ("FISSILE_MAX_GROUND", ["verify", "nabla", "--max-e", "2", "--cases", "1"]),
    ],
)
def test_guard_variable_without_an_integer_exits_with_usage(
    monkeypatch, name, argv, value
):
    monkeypatch.setenv(name, value)
    rc, out, err = run_cli(argv)
    assert rc == 2
    assert not out
    assert f"{name}={value!r} is not an integer" in err


def test_check_detects_corruption(tmp_path):
    pj = str(tmp_path / "pj")
    run_cli(["construct-pj", "--i", "1", "--e", "1", "--out", pj])
    import os

    target = next(
        os.path.join(pj, n) for n in os.listdir(pj) if n.startswith("pair_")
    )
    payload = json.loads(open(target).read())
    payload["ensemble"][0]["coeff"] = "7"
    open(target, "w").write(json.dumps(payload))
    rc, out, _err = run_cli(["check-pj", "--in", pj])
    assert rc == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(r["verdict"] == "fail" for r in lines)


def test_check_reports_structural_corruption(tmp_path):
    pj = str(tmp_path / "pj")
    run_cli(["construct-pj", "--i", "1", "--e", "1", "--out", pj])
    import os

    morphs = os.path.join(pj, "morphisms.json")
    data = json.loads(open(morphs).read())
    some_id = next(iter(data))
    data[some_id]["table"][0] = ["bogus", "value"]
    open(morphs, "w").write(json.dumps(data))
    rc, out, _err = run_cli(["check-pj", "--in", pj])
    assert rc == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(r["verdict"] == "fail" for r in lines)


MALFORMED_LABELS = [
    {"kind": "W"}, ["WL", [{"x": 1}]], [], "W", ["WL"], ["redcone"], ["wedge", 3],
    ["redcone", "WL"],
]


@pytest.mark.optimized
@pytest.mark.parametrize("label", MALFORMED_LABELS, ids=json.dumps)
def test_malformed_label_is_an_artifact_error(label):
    ctx = WedgeContext((1,), (1,))
    with pytest.raises(ArtifactError):
        resolve(ctx, label)


@pytest.mark.optimized
@pytest.mark.parametrize(
    "label", [("WL", (7, 8)), ("Wx", (7, 8)), ("WL", (1, 5)), ("W", (1, 2))]
)
def test_label_of_another_index_set_is_rejected(label):
    # no label names a wedge at l or the full wedge: a space is its claim's,
    # so ("WL", l) names nothing, for l within I or not, nor does ("W", I)
    ctx = WedgeContext((1, 2), (1,))
    for wl in (label, ("WL", (2, 1)), ("WL", (2,))):
        with pytest.raises(TypeError):
            ctx.obj(wl)
        with pytest.raises(ArtifactError):
            resolve(ctx, wl)
    # the context's own index set and its subsets name spaces in any order
    assert ctx.space((2, 1)) is ctx.full_space and ctx.full_space.obj is ctx.w_obj


def _put_on_blocks(node, key, value):
    """Put ``key: value`` on every witness block under node."""
    for block in list(_blocks(node)):
        block[key] = value


def _blocks(node):
    """Every witness block under node."""
    if isinstance(node, dict):
        if "parts" in node and "f" in node:
            yield node
        for child in node.values():
            yield from _blocks(child)
    elif isinstance(node, list):
        for child in node:
            yield from _blocks(child)


@pytest.mark.parametrize("kind", ["pj", "q"])
@pytest.mark.parametrize(
    "label", [["point"], ["plusbase", [1]]], ids=["point", "plusbase"]
)
def test_check_rejects_block_wedge_that_is_no_wedge(tmp_path, kind, label):
    # a block's wedge is derived from its parts, so a written one, a wedge
    # or not, is a field the checker does not read
    out = tmp_path / kind
    run_cli([f"construct-{kind}", "--i", "2", "--e", "1", "--out", str(out)])
    files = [out / "q.json"] if kind == "q" else sorted(out.glob("pair_*.json"))
    path = next(p for p in files if any(_blocks(json.loads(p.read_text()))))
    data = json.loads(path.read_text())
    next(_blocks(data))["wedge"] = label
    path.write_text(json.dumps(data))
    rc, out_text, err = run_cli([f"check-{kind}", "--in", str(out)])
    assert rc == 1
    (line,) = out_text.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == (
        "artifact-structure (block has the field 'wedge', which is not read)"
    )
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    """q(2,1), pj(2,1), pj(2,2) and q(2,2) dumps, built once for this module."""
    root = tmp_path_factory.mktemp("dumps")
    for kind, e in (("q", 1), ("pj", 1), ("pj", 2), ("q", 2)):
        argv = [f"construct-{kind}", "--i", "2", "--e", str(e)]
        assert run_cli(argv + ["--out", str(root / f"{kind}{e}")])[0] == 0
    return root


@pytest.mark.parametrize("kind, e", [("q", 1), ("pj", 2), ("q", 2)])
@pytest.mark.parametrize("shift", [-1, 1])
def test_check_rejects_bound_other_than_e_plus_one(dumps, tmp_path, kind, e, shift):
    # the checker truncates at |E| + 1, as the builder does; re-verifying the
    # claims in a truncation named by the manifest would check another claim
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / f"{kind}{e}", in_dir)
    manifest = json.loads((in_dir / "manifest.json").read_text())
    assert manifest["bound"] == e + 1
    manifest["bound"] = e + 1 + shift
    (in_dir / "manifest.json").write_text(json.dumps(manifest))
    rc, out, err = run_cli([f"check-{kind}", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert f"manifest bound {e + 1 + shift} " in report["case"]["check"]
    assert "Traceback" not in err


MALFORMED_MANIFESTS = [
    *({field: value} for field in ("i", "e") for value in ([[]], None, 7)),
    {"e": [True]},
    {"i": []},
    {"e": [1, 1]},
    {"i": [1, 2.0]},
    [1],
]


@pytest.mark.parametrize("kind", ["q", "pj"])
@pytest.mark.parametrize("change", MALFORMED_MANIFESTS, ids=json.dumps)
def test_check_rejects_malformed_manifest(dumps, tmp_path, kind, change):
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / f"{kind}1", in_dir)
    manifest = json.loads((in_dir / "manifest.json").read_text())
    manifest = {**manifest, **change} if isinstance(change, dict) else change
    (in_dir / "manifest.json").write_text(json.dumps(manifest))
    rc, out, err = run_cli([f"check-{kind}", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith("artifact-structure (manifest")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("extra", 1), ("pairs", ["q.json"])])
def test_check_q_rejects_a_manifest_field_it_does_not_read(dumps, tmp_path, field, value):
    # a q manifest holds exactly kind, i, e and bound; a pair manifest's
    # pairs list, or any other key, is a fail line that names it
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q1", in_dir)
    manifest = json.loads((in_dir / "manifest.json").read_text())
    manifest[field] = value
    (in_dir / "manifest.json").write_text(json.dumps(manifest))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == (
        f"artifact-structure (manifest has the field {field!r}, which is not read)"
    )
    assert "Traceback" not in err


def _first_term(data):
    return next(_blocks(data))["parts"][0]["terms"][0]


def _set(get, key, was, value):
    """An edit of q.json that writes value at get(data)[key], which holds was."""

    def edit(data):
        node = get(data)
        assert node[key] == was
        node[key] = value

    return edit


def _pi_entry(was):
    return lambda data: next(e for e in _first_term(data)["pi"] if e[0] == was)


# each of these reads as the same value in Python, so only a strict reader
# sees it; the field its ArtifactError names comes second
LOOSE_WITNESS_VALUES = [
    (_set(lambda d: next(_blocks(d)), "coeff", 1, True), "block coeff"),
    (_set(_pi_entry([1, 2]), 1, 1, True), "pi coefficient"),
    (_set(lambda d: next(_blocks(d))["parts"][0], "level", 2, 2.0), "part level"),
    (_set(lambda d: next(_blocks(d))["parts"][0], "level", 2, "2"), "part level"),
    (_set(_pi_entry([]), 0, [], {}), "pi key"),
    (_set(_pi_entry([]), 0, [], ""), "pi key"),
    (_set(lambda d: d["ensemble"][0], "coeff", "1", " 1"), "ensemble coeff"),
]


@pytest.mark.parametrize(
    "edit, field", LOOSE_WITNESS_VALUES, ids=[f for _, f in LOOSE_WITNESS_VALUES]
)
def test_check_q_reads_witness_records_strictly(dumps, tmp_path, edit, field):
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q1", in_dir)
    data = json.loads((in_dir / "q.json").read_text())
    edit(data)
    (in_dir / "q.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith(f"artifact-structure ({field} ")
    assert "Traceback" not in err


def _put(get, key, value):
    """An edit that writes value at get(data)[key]."""

    def edit(data):
        get(data)[key] = value
        return data

    return edit


def _first_record(data):
    return next(iter(data.values()))


def _first_record_a_list(data):
    data[next(iter(data))] = []
    return data


def _first_part(data):
    return next(_blocks(data))["parts"][0]


PAIR = "pair_F1_Jempty.json"

# a value of the wrong JSON type where each reader expects a container, or
# a string reference, each of which used to end in a TypeError traceback:
# (dump, file, edit, the field its ArtifactError names)
WRONG_CONTAINERS = [
    ("q1", "q.json", _put(lambda d: d, "boundary_witness", -1), "witness"),
    ("q1", "q.json", _put(lambda d: d["boundary_witness"], "blocks", "str"), "blocks"),
    ("q1", "q.json", _put(lambda d: d["boundary_witness"]["blocks"], 0, None), "block"),
    ("q1", "q.json", _put(lambda d: next(_blocks(d)), "parts", -1), "parts"),
    ("q1", "q.json", _put(lambda d: next(_blocks(d))["parts"], 0, "str"), "part"),
    ("q1", "q.json", _put(_first_part, "terms", True), "terms"),
    ("q1", "q.json", _put(lambda d: _first_part(d)["terms"], 0, -1), "term"),
    ("q1", "q.json", _put(lambda d: d, "ensemble", -1), "ensemble"),
    ("q1", "q.json", _put(lambda d: d["ensemble"], 0, "str"), "ensemble entry"),
    ("q1", "q.json", _put(lambda d: d["ensemble"][0], "key", {}), "unknown morphism"),
    ("q1", "q.json", _put(_first_term, "pi", True), "pi"),
    ("q1", "q.json", _put(lambda d: _first_term(d)["pi"], 0, -1), "pi entry"),
    ("q1", "q.json", _put(lambda d: d, "layouts", None), "layouts"),
    ("q1", "q.json", _put(lambda d: d["layouts"], 0, []), "layout entry"),
    ("q1", "q.json", _put(lambda d: d["layouts"][0], "layout", 7), "layout"),
    ("q1", "q.json", lambda d: [], "q.json"),
    ("pj1", PAIR, lambda d: None, PAIR),
    ("pj1", "manifest.json", _put(lambda d: d["pairs"], 0, 7), "manifest pair file"),
    ("pj1", "manifest.json", _put(lambda d: d, "pairs", "str"), "manifest 'pairs'"),
    ("pj1", "morphisms.json", lambda d: [], "morphisms.json"),
    ("q1", "morphisms.json", _first_record_a_list, "morphism record"),
    ("pj1", "morphisms.json", _put(_first_record, "table", True), "morphism table"),
    ("pj1", "morphisms.json", _put(lambda d: _first_record(d)["table"], 0, {}),
     "morphism table entry"),
]


@pytest.mark.optimized
@pytest.mark.parametrize(
    "dump, name, edit, field", WRONG_CONTAINERS, ids=[c[3] for c in WRONG_CONTAINERS]
)
def test_check_rejects_a_wrong_container(dumps, tmp_path, dump, name, edit, field):
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    path = in_dir / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith(f"artifact-structure ({field} ")
    assert "Traceback" not in err


def _repeat_first_ensemble_key(data):
    data["ensemble"].insert(1, dict(data["ensemble"][0]))


def _repeat_first_pi_entry(data):
    pi = _first_term(data)["pi"]
    pi.insert(0, list(next(e for e in pi if e[0] == [1, 2])))


@pytest.mark.parametrize(
    "edits, field",
    [
        ([_repeat_first_ensemble_key], "ensemble key"),
        ([_repeat_first_pi_entry], "pi key"),
        ([_repeat_first_pi_entry, _repeat_first_ensemble_key], "ensemble key"),
    ],
    ids=["ensemble", "pi", "both"],
)
def test_check_q_rejects_a_repeated_key(dumps, tmp_path, edits, field):
    # read as one entry each, the last one winning, the dump used to pass
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q1", in_dir)
    data = json.loads((in_dir / "q.json").read_text())
    for edit in edits:
        edit(data)
    (in_dir / "q.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    check = report["case"]["check"]
    assert check.startswith(f"artifact-structure ({field} ") and "repeated" in check
    assert "Traceback" not in err


def _witness_levels_checked(dumps, tmp_path, dump, get):
    """The check-q exit code, the failed check names and stderr after the
    level of the witness at get(q.json) is set to 10**6."""
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    data = json.loads((in_dir / "q.json").read_text())
    get(data)["level"] = 10**6
    (in_dir / "q.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    reports = [json.loads(line) for line in out.strip().splitlines()]
    return rc, [r["case"]["check"] for r in reports if r["verdict"] == "fail"], err


@pytest.mark.optimized
@pytest.mark.parametrize(
    "dump, get, check",
    [
        ("q1", lambda d: d["boundary_witness"], "boundary-witness"),
        (
            "q2",
            lambda d: d["layouts"][2]["witness"],
            "layout-defect-witness A=((1,), (2,))",
        ),
    ],
    ids=["boundary", "layout"],
)
def test_check_q_rejects_a_witness_level_no_block_reaches(
    dumps, tmp_path, dump, get, check
):
    # every block's rank must reach its witness's level
    rc, failed, err = _witness_levels_checked(dumps, tmp_path, dump, get)
    assert rc == 1 and failed == [check]
    assert "Traceback" not in err


@pytest.mark.optimized
def test_check_q_passes_a_witness_without_blocks_at_any_level(dumps, tmp_path):
    rc, failed, _err = _witness_levels_checked(
        dumps, tmp_path, "q1", lambda d: d["layouts"][0]["witness"]
    )
    assert rc == 0 and not failed


def _one_in_summand_domain_as(value):
    """An edit of the domain label of the record of the first block's first
    term, the block's first summand."""

    def edit(in_dir):
        data = json.loads((in_dir / "q.json").read_text())
        term = next(_blocks(data))["parts"][0]["terms"][0]
        morphisms = json.loads((in_dir / "morphisms.json").read_text())
        rec = morphisms[term["w"]]
        assert rec["domain"] == ["plusbase", [1]]
        rec["domain"] = ["plusbase", [value]]
        (in_dir / "morphisms.json").write_text(json.dumps(morphisms))

    return edit


def _true_in_record_domain(in_dir):
    data = json.loads((in_dir / "morphisms.json").read_text())
    rec = next(r for r in data.values() if _one_as_true(r["domain"]))
    rec["domain"] = _one_as_true(rec["domain"])
    (in_dir / "morphisms.json").write_text(json.dumps(data))


LABEL_EDITS = [
    (_one_in_summand_domain_as(True), "True"),
    (_one_in_summand_domain_as(1.0), "1.0"),
    (_one_in_summand_domain_as(None), "None"),
    (_true_in_record_domain, "True"),
]


@pytest.mark.optimized
@pytest.mark.parametrize(
    "edit, shown",
    LABEL_EDITS,
    ids=["domain-true", "domain-float", "domain-null", "record-domain-true"],
)
def test_check_q_rejects_a_label_atom_other_than_a_str_or_int(
    dumps, tmp_path, edit, shown
):
    # true and 1.0 equal 1 in Python, so such a label named the object of its 1
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q1", in_dir)
    edit(in_dir)
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith("artifact-structure (malformed label ")
    assert shown in report["case"]["check"]
    assert "Traceback" not in err


def test_check_pj_rejects_a_term_on_another_domain(dumps, tmp_path):
    # every term of every pair file, its morphism swapped for each stored
    # morphism on another domain than the term's part; every part here has
    # one term, so the swap moves the part to another summand
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "pj1", in_dir)
    morphisms = json.loads((in_dir / "morphisms.json").read_text())
    cases = 0
    for path in sorted(in_dir.glob("pair_*.json")):
        original = path.read_text()
        data = json.loads(original)
        for b, block in enumerate(_blocks(data)):
            for j, part in enumerate(block["parts"]):
                summand = morphisms[part["terms"][0]["w"]]["domain"]
                assert len(part["terms"]) == 1
                for term in part["terms"]:
                    was = term["w"]
                    assert morphisms[was]["domain"] == summand
                    for mid, rec in morphisms.items():
                        if rec["domain"] == summand:
                            continue
                        term["w"] = mid
                        path.write_text(json.dumps(data))
                        rc, out, err = run_cli(["check-pj", "--in", str(in_dir)])
                        assert rc == 1 and "Traceback" not in err
                        (line,) = out.strip().splitlines()
                        report = json.loads(line)
                        assert report["verdict"] == "fail"
                        # the term no longer lands in the pair's space, f no
                        # longer maps into the wedge of the new summands, or
                        # it does (a constant f maps into every wedge) and
                        # the swapped-out record is left unused
                        assert re.match(
                            rf"artifact-structure \((block {b} (part {j} term|"
                            r"decomposition) is not a morphism into |morphism "
                            r"record \S+ is used by no reference\))",
                            report["case"]["check"],
                        )
                        cases += 1
                    term["w"] = was
        path.write_text(original)
    assert cases == 44


@pytest.mark.optimized
@pytest.mark.parametrize(
    "parts",
    [lambda ps: ps[:1], lambda ps: ps[::-1], lambda ps: ps + ps[:1]],
    ids=["first", "reversed", "one-more-summand"],
)
def test_check_rejects_block_wedge_of_other_summands(dumps, tmp_path, parts):
    # a two-part block with its first part alone, its parts in the other
    # order, or its first part once more: a block's wedge is the wedge of
    # its parts' summands, in order, and its f must map into it
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q2", in_dir)
    data = json.loads((in_dir / "q.json").read_text())
    witnesses = [
        (f"layout-defect-witness A={_tuples(e['layout'])}", e["witness"])
        for e in data["layouts"]
    ]
    witnesses.append(("boundary-witness", data["boundary_witness"]))
    name, b, block = next(
        (name, b, blk)
        for name, w in witnesses
        for b, blk in enumerate(w["blocks"])
        if len(blk["parts"]) == 2
    )
    morphisms = json.loads((in_dir / "morphisms.json").read_text())
    summands = [_tuples(morphisms[p["terms"][0]["w"]]["domain"]) for p in block["parts"]]
    assert summands[0] != summands[1]
    block["parts"] = parts(block["parts"])
    (in_dir / "q.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    reports = [json.loads(line) for line in out.strip().splitlines()]
    failed = [r for r in reports if r["verdict"] == "fail"]
    if len(block["parts"]) == 3:
        # f maps into the wider wedge too, missing its last summand, so the
        # block's value is scaled by the sum of that part's coefficients
        assert len(reports) == 7
        assert [(r["case"]["check"], r["diagnostic"]) for r in failed] == [
            (name, "sum mismatch")
        ]
        return
    wedge_label = ("wedge", tuple(parts(summands)))
    assert len(reports) == 1
    assert failed[0]["case"]["check"].startswith(
        f"artifact-structure (block {b} decomposition is not a morphism into "
        f"{wedge_label!r}: "
    )


def _no_terms(block, other):
    block["parts"][0]["terms"] = []
    return "block {b} part 0 has no terms"


def _terms_on_two_objects(block, other):
    block["parts"][0]["terms"].append(dict(block["parts"][0]["terms"][0], w=other))
    return "block {b} part 0 has terms on {d0!r} and on {d1!r}"


def _no_parts(block, other):
    block["parts"] = []
    return "block {b} has no parts"


@pytest.mark.optimized
@pytest.mark.parametrize(
    "edit",
    [_no_terms, _terms_on_two_objects, _no_parts],
    ids=["no-terms", "two-objects", "no-parts"],
)
def test_check_rejects_a_part_on_no_one_summand(dumps, tmp_path, edit):
    # a block's wedge is read from its parts, each the summand its terms lie
    # on: a part with no terms, or with terms on two objects, names no one
    # summand, and a block with no parts no wedge
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q2", in_dir)
    data = json.loads((in_dir / "q.json").read_text())
    morphisms = json.loads((in_dir / "morphisms.json").read_text())
    witnesses = [e["witness"] for e in data["layouts"]] + [data["boundary_witness"]]
    b, block = next((b, blk) for w in witnesses for b, blk in enumerate(w["blocks"]))
    d0 = _summands(morphisms, block)[0]
    other = next(mid for mid, rec in sorted(morphisms.items()) if rec["domain"] != d0)
    d0, d1 = _tuples(d0), _tuples(morphisms[other]["domain"])
    message = edit(block, other).format(b=b, d0=d0, d1=d1)
    (in_dir / "q.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == f"artifact-structure ({message})"


@pytest.mark.optimized
@pytest.mark.parametrize(
    "name",
    ["../b/pair_F1_J1.json", "b/pair_F1_J1.json", "./pair_F1_J1.json", ".", "..", ""],
)
def test_check_pj_reads_pair_files_only_from_its_dump(dumps, tmp_path, name):
    # a pair file moved out of the dump, to a sibling directory or into a
    # subdirectory, and named there by the manifest: the claims of a dump
    # are its own files, so a name that is not a plain file name in the
    # dump directory is refused, whatever it points at
    in_dir = tmp_path / "a"
    shutil.copytree(dumps / "pj1", in_dir)
    for where in (tmp_path / "b", in_dir / "b"):
        where.mkdir()
        shutil.copy(in_dir / "pair_F1_J1.json", where / "pair_F1_J1.json")
    (in_dir / "pair_F1_J1.json").unlink()
    manifest = json.loads((in_dir / "manifest.json").read_text())
    pairs = manifest["pairs"]
    pairs[pairs.index("pair_F1_J1.json")] = name
    (in_dir / "manifest.json").write_text(json.dumps(manifest))
    rc, out, err = run_cli(["check-pj", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == (
        f"artifact-structure (manifest pair file {name!r} is not a file name in the dump)"
    )


def test_check_pj_builds_no_space_for_a_subset_outside_i(dumps, tmp_path, monkeypatch):
    # a pair file whose J lies outside I is a claim-extra line; its witness
    # has no space to be read in, so none is built for it
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "pj1", in_dir)
    path = in_dir / "pair_F1_Jempty.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), subset=[3])))
    space, asked = WedgeContext.space, []

    def recording(self, l_key):
        asked.append(tuple(l_key))
        return space(self, l_key)

    monkeypatch.setattr(WedgeContext, "space", recording)
    rc, out, err = run_cli(["check-pj", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert sorted(r["case"]["check"] for r in reports) == [
        "claim-extra F=(1,) J=(3,)",
        "claim-missing F=(1,) J=()",
    ]
    assert asked and (3,) not in asked


@pytest.mark.optimized
def test_check_rejects_a_block_decomposition_outside_its_wedge(dumps, tmp_path):
    # a block whose f is a stored morphism on its domain into W or a wedge
    # at l, whose values are not simplices of the block's wedge
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q1", in_dir)
    ctx = WedgeContext((1, 2), (1,))
    codomains = _codomains(in_dir, ctx)
    morphisms = json.loads((in_dir / "morphisms.json").read_text())
    data = json.loads((in_dir / "q.json").read_text())
    witnesses = [e["witness"] for e in data["layouts"]] + [data["boundary_witness"]]
    b, block, mid = next(
        (b, block, mid)
        for w in witnesses
        for b, block in enumerate(w["blocks"])
        for mid, rec in morphisms.items()
        if codomains[mid].label[0] == "WL"
        and rec["domain"] == morphisms[block["f"]]["domain"]
    )
    block["f"] = mid
    (in_dir / "q.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith(
        f"artifact-structure (block {b} decomposition is not a morphism into "
        f"{_wedge(ctx, morphisms, block).label!r}: "
    )


def _deep_block_wedge(data):
    next(_blocks(data))["wedge"] = "DEEP"


def _deep_table_value(data):
    next(iter(data.values()))["table"][0] = "DEEP"


@pytest.mark.optimized
@pytest.mark.parametrize("depth", [900, 100_000])
@pytest.mark.parametrize(
    "name, place",
    [("q.json", _deep_block_wedge), ("morphisms.json", _deep_table_value)],
    ids=["block-wedge", "table-value"],
)
def test_check_rejects_a_file_nested_too_deep(dumps, tmp_path, name, place, depth):
    # 900 lists deep overflowed the recursive readers, 100,000 the JSON parser
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q1", in_dir)
    data = json.loads((in_dir / name).read_text())
    place(data)
    deep = "[" * depth + '"point"' + "]" * depth
    (in_dir / name).write_text(json.dumps(data).replace('"DEEP"', deep))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == (
        f"artifact-structure ({name} nests more than {MAX_DEPTH} deep)"
    )


def _first_half(data):
    return data[: len(data) // 2]


def _leading_ff(data):
    return b"\xff" + data


@pytest.mark.optimized
@pytest.mark.parametrize(
    "dump, name, spoil, error",
    [
        ("q1", "q.json", _first_half, r"JSON: .+ \(char \d+\)"),
        ("q1", "morphisms.json", _first_half, r"JSON: .+ \(char \d+\)"),
        ("pj1", "pair_F1_J1.json", _first_half, r"JSON: .+ \(char \d+\)"),
        ("q1", "q.json", _leading_ff, r"UTF-8: invalid start byte \(byte 0\)"),
    ],
    ids=["q-truncated", "morphisms-truncated", "pair-truncated", "leading-0xff"],
)
def test_check_names_a_file_that_is_not_json(dumps, tmp_path, dump, name, spoil, error):
    # every file is one line, so the offset, not a line number, says where
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    (in_dir / name).write_bytes(spoil((in_dir / name).read_bytes()))
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    expected = rf"artifact-structure \({re.escape(name)} is not {error}\)"
    assert re.fullmatch(expected, report["case"]["check"])


@pytest.mark.parametrize("dump, lines", [("pj2", 27), ("q2", 7)])
def test_check_passes_a_dump_in_the_old_indented_layout(dumps, tmp_path, dump, lines):
    # every dump was written with indent=1 before files became one line
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    for path in in_dir.iterdir():
        value = json.loads(path.read_text())
        path.write_text(json.dumps(value, sort_keys=True, indent=1) + "\n")
    rc, out, _err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == lines
    assert all(r["verdict"] == "pass" for r in reports)


def _missing(*tags):
    return [f"claim-missing {t}" for t in tags]


# (dump, file, edit in place, the failed claims the checker must name)
INCOMPLETE_DUMPS = {
    "pj22-without-face-12": (
        "pj2",
        "manifest.json",
        lambda m: m.update(pairs=[n for n in m["pairs"] if "_F1-2_" not in n]),
        _missing("F=(1, 2) J=()", "F=(1, 2) J=(1,)", "F=(1, 2) J=(2,)"),
    ),
    "pj21-one-pair": (
        "pj1",
        "manifest.json",
        lambda m: m.update(pairs=["pair_F1_Jempty.json"]),
        _missing("F=(1,) J=(1,)", "F=(1,) J=(2,)"),
    ),
    "pj21-no-pairs": (
        "pj1",
        "manifest.json",
        lambda m: m.update(pairs=[]),
        _missing("F=(1,) J=()", "F=(1,) J=(1,)", "F=(1,) J=(2,)"),
    ),
    "pj21-pair-twice": (
        "pj1",
        "manifest.json",
        lambda m: m["pairs"].append("pair_F1_Jempty.json"),
        ["claim-duplicate F=(1,) J=()"],
    ),
    "pj21-other-ground": (
        "pj1",
        "manifest.json",
        lambda m: m.update(e=[1000000]),
        _missing("F=(1000000,) J=()", "F=(1000000,) J=(1,)", "F=(1000000,) J=(2,)")
        + ["claim-extra F=(1,) J=()", "claim-extra F=(1,) J=(1,)"]
        + ["claim-extra F=(1,) J=(2,)"],
    ),
    "q22-one-layout": (
        "q2",
        "q.json",
        lambda q: q.update(layouts=q["layouts"][:1]),
        _missing("A=((1,),)", "A=((2,),)", "A=((1, 2),)", "A=((1,), (2,))"),
    ),
    "q22-layout-twice": (
        "q2",
        "q.json",
        lambda q: q["layouts"].append(q["layouts"][0]),
        ["claim-duplicate A=()"],
    ),
}


@pytest.mark.optimized
@pytest.mark.parametrize("case", INCOMPLETE_DUMPS)
def test_check_rejects_incomplete_dump(dumps, tmp_path, case):
    # the claims come from the files and must be the construction's, each
    # once; a mismatch is reported claim by claim, and no condition runs
    dump, name, edit, expected = INCOMPLETE_DUMPS[case]
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    data = json.loads((in_dir / name).read_text())
    edit(data)
    (in_dir / name).write_text(json.dumps(data))
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert sorted(r["case"]["check"] for r in reports) == sorted(expected)
    assert all(r["verdict"] == "fail" for r in reports)
    assert "Traceback" not in err


@pytest.mark.parametrize("dump, lines", [("pj1", 9), ("q2", 7)])
def test_check_complete_dump_passes_every_claim(dumps, dump, lines):
    rc, out, _err = run_cli([f"check-{dump[:-1]}", "--in", str(dumps / dump)])
    assert rc == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == lines
    assert all(r["verdict"] == "pass" for r in reports)


@pytest.mark.parametrize("kind", ["pj", "q"])
def test_check_rejects_block_space_of_another_index_set(tmp_path, kind):
    # each witness is checked in its claim's space, so a block's space, of
    # this index set or another, is a field the checker does not read
    out = tmp_path / kind
    run_cli([f"construct-{kind}", "--i", "2", "--e", "1", "--out", str(out)])
    files = [out / "q.json"] if kind == "q" else sorted(out.glob("pair_*.json"))
    for path in files:
        data = json.loads(path.read_text())
        _put_on_blocks(data, "space", ["WL", [1, 3]])
        path.write_text(json.dumps(data))
    rc, out_text, _err = run_cli([f"check-{kind}", "--in", str(out)])
    assert rc == 1
    lines = [json.loads(line) for line in out_text.strip().splitlines()]
    assert len(lines) == 1 and lines[0]["verdict"] == "fail"
    assert lines[0]["case"]["check"] == (
        "artifact-structure (block has the field 'space', which is not read)"
    )


def test_check_pj_rejects_the_space_of_another_claim(dumps, tmp_path):
    # every block of the pair (F, J) = ((1,), (1,)) given the space at
    # (1, 2), as a dump of the layout that wrote a space per block would:
    # the pair's witness is checked in the space at J alone, so the dump
    # fails, where that layout passed every check
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "pj1", in_dir)
    path = in_dir / "pair_F1_J1.json"
    data = json.loads(path.read_text())
    assert any(_blocks(data))
    _put_on_blocks(data, "space", ["WL", [1, 2]])
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(["check-pj", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == (
        "artifact-structure (block has the field 'space', which is not read)"
    )


def test_check_reports_unhashable_label(tmp_path):
    pj = tmp_path / "pj"
    run_cli(["construct-pj", "--i", "1", "--e", "1", "--out", str(pj)])
    data = json.loads((pj / "morphisms.json").read_text())
    data[next(iter(data))]["domain"] = {"kind": ["W"]}
    (pj / "morphisms.json").write_text(json.dumps(data))
    rc, out, _err = run_cli(["check-pj", "--in", str(pj)])
    assert rc == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 1 and lines[0]["verdict"] == "fail"
    assert "malformed label" in lines[0]["case"]["check"]


def test_no_command_usage():
    rc, _out, _err = run_cli([])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["construct-pj", "--i", "0", "--e", "1", "--out", "unused"],
        ["construct-q", "--i", "1", "--e", "0"],
        ["magnus", "--word", "x1", "--degree", "0"],
        ["lcs", "--word", "x1", "--max-degree", "0"],
    ],
)
def test_zero_sizes_exit_with_usage(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a positive integer" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "simplicial", "--bound", "-1"],
        ["verify", "retractions", "--bound", "-2"],
        ["verify", "nabla", "--max-e", "-2"],
        ["verify", "identities", "--max-a", "-1"],
        ["verify", "identities", "--max-i", "-1"],
        ["verify", "nabla", "--max-e", "1", "--cases", "0"],
    ],
)
def test_bad_verify_sizes_exit_with_usage(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in err.getvalue()
    assert "integer" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--max-a", "2", "--max-i", "0"],
        ["verify", "simplicial", "--max-e", "1", "--max-a", "1", "--bound", "0"],
    ],
)
def test_zero_verify_sizes_still_run(argv):
    rc, out, _err = run_cli(argv)
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(r["verdict"] == "pass" for r in lines)


@pytest.mark.parametrize(
    "argv, usage, refused",
    [
        (
            ["verify", "identities", "--max-a", "1", "--max-i", "0",
             "--seed", "4", "--cases", "7", "--max-e", "9"],
            "usage: fissile verify identities [--max-a N] [--max-i N]",
            "--max-e, --cases, --seed",
        ),
        (
            ["verify", "retractions", "--max-e", "1", "--seed", "3"],
            "usage: fissile verify retractions [--max-e N] [--bound N]",
            "--seed",
        ),
        (
            ["verify", "nabla", "--max-e", "1", "--bound", "2", "--max-a", "1"],
            "usage: fissile verify nabla [--max-e N] [--cases N] [--seed N]",
            "--max-a, --bound",
        ),
        (
            ["verify", "brunnian", "--max-e", "2"],
            "usage: fissile verify brunnian [--max-i N] [--cases N] [--seed N]",
            "--max-e",
        ),
    ],
)
def test_verify_refuses_an_option_its_suite_does_not_take(argv, usage, refused):
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert err.splitlines() == [
        usage,
        f"fissile verify: error: the {argv[1]} suite takes no {refused}",
    ]


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_verify_options_are_the_suite_parameters(name, monkeypatch):
    # a suite takes no catch-all, so each option is either one of its
    # parameters, passed on as given, or refused before the suite runs
    suite = suites.SUITES[name]
    params = inspect.signature(suite).parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    values = {"max_a": 1, "max_i": 0, "max_e": 1, "cases": 2, "seed": 5, "bound": 0}
    taken = [opt for opt in cli.VERIFY_OPTIONS if opt in params]
    calls = []
    # the stand-in has the suite's signature, through __wrapped__
    monkeypatch.setitem(
        suites.SUITES, name, functools.wraps(suite)(lambda **kw: calls.append(kw) or iter(()))
    )

    def flag(opt):
        return "--" + opt.replace("_", "-")

    argv = ["verify", name]
    for opt in taken:
        argv += [flag(opt), str(values[opt])]
    assert run_cli(argv)[0] == 0
    assert calls == [{opt: values[opt] for opt in taken}]
    for opt in set(cli.VERIFY_OPTIONS) - set(taken):
        rc, _out, err = run_cli(["verify", name, flag(opt), str(values[opt])])
        assert rc == 2 and err.endswith(f"takes no {flag(opt)}\n")
    assert len(calls) == 1


@pytest.mark.parametrize("forged", [["str", 2], [1, 2, 99]], ids=repr)
def test_check_pj_rejects_a_pi_key_outside_the_monoid(dumps, tmp_path, forged):
    # a key with an int outside I names no monoid element, so the pi holding
    # it lies in no ideal, whatever the part's level; an element that is no
    # int fails the strict read before any check
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "pj1", in_dir)
    target = in_dir / "pair_F1_J2.json"
    payload = json.loads(target.read_text())
    forged_at = []
    for b, block in enumerate(payload["alt_witness"]["blocks"]):
        for j, part in enumerate(block["parts"]):
            for term in part["terms"]:
                for entry in term["pi"]:
                    if entry[0] == [2]:
                        entry[0] = forged
                        forged_at.append((b, j, part["level"]))
    assert forged_at
    target.write_text(json.dumps(payload))
    rc, out, err = run_cli(["check-pj", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    lines = [json.loads(line) for line in out.strip().splitlines()]
    failed = [
        (r["case"]["check"], r["diagnostic"]) for r in lines if r["verdict"] == "fail"
    ]
    if all(type(x) is int for x in forged):
        b, j, level = forged_at[0]
        diagnostic = f"block {b} part {j}: pi is not in the level-{level} ideal"
        assert failed == [("alternating-sum-witness F=(1,) J=(2,)", diagnostic)]
    else:
        message = "pi key 'str' is not an int"
        assert failed == [(f"artifact-structure ({message})", message)]


# each pair condition made to fail at (1, 1): the function replaced, its
# replacement, and the diagnostic the failure reports
FAILED_CONDITIONS = {
    "constant-restriction": (
        "constant_restriction_holds",
        lambda *args: False,
        "the restriction to the based subdivision is not constant",
    ),
    "multiplicative-restriction": (
        "multiplicative_restriction_holds",
        lambda *args: False,
        "the restrictions to the layouts [(), ((1,),)] are not their glued products",
    ),
    # a compaction that loses every block leaves the alternating sum with an
    # empty witness
    "alternating-sum-witness": (
        "compact_witness",
        lambda w: FiltrationWitness(w.level, []),
        "sum mismatch",
    ),
}


@pytest.mark.optimized
@pytest.mark.parametrize("condition", FAILED_CONDITIONS)
def test_construct_reports_failed_condition(monkeypatch, tmp_path, condition):
    name, replacement, diagnostic = FAILED_CONDITIONS[condition]
    monkeypatch.setattr(wedge, name, replacement)
    rc, out, _err = run_cli(
        ["construct-pj", "--i", "1", "--e", "1", "--out", str(tmp_path / "pj")]
    )
    assert rc == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["error"] == f"{condition} F=(1,) J=() failed: {diagnostic}"


@pytest.mark.optimized
def test_check_pj_rejects_table_breaking_faces(tmp_path):
    # a table that commutes with degeneracies but not with faces, stored
    # under the id recomputed from its rows
    pj = tmp_path / "pj"
    run_cli(["construct-pj", "--i", "1", "--e", "1", "--out", str(pj)])
    manifest = json.loads((pj / "manifest.json").read_text())
    ctx = WedgeContext(manifest["i"], manifest["e"])
    data = json.loads((pj / "morphisms.json").read_text())

    codomains = _codomains(pj, ctx)

    def break_faces(rec, cod):
        table = rec["table"]
        for i, n in enumerate(_dimensions(resolve(ctx, rec["domain"]))):
            v = _tuples(table[i])
            for y in cod.level(n) if n else ():
                if any(cod.face(n, i, y) != cod.face(n, i, v) for i in range(n + 1)):
                    table[i] = jsonable(y)
                    return True
        return False

    old_id = next(mid for mid in sorted(data) if break_faces(data[mid], codomains[mid]))
    dom = resolve(ctx, data[old_id]["domain"])
    new_id = _table_id(data[old_id]["table"], dom)
    data[new_id] = data.pop(old_id)
    (pj / "morphisms.json").write_text(json.dumps(data))
    for path in pj.glob("pair_*.json"):
        path.write_text(path.read_text().replace(old_id, new_id))

    rc, out, _err = run_cli(["check-pj", "--in", str(pj)])
    assert rc == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(r["verdict"] == "fail" for r in lines)


def _codomains(in_dir, ctx):
    """The codomain that each morphism id of a dump is read into at its
    first use: W(I) for an ensemble key, the wedge of its parts' summands
    for a block's f, and the object of the claim's space for a term's w,
    the space at J in a pair file and the full space in ``q.json``."""
    morphisms = json.loads((in_dir / "morphisms.json").read_text())
    out = {}
    for path in sorted(in_dir.glob("*.json")):
        if path.name in ("manifest.json", "morphisms.json"):
            continue
        data = json.loads(path.read_text())
        for entry in data["ensemble"]:
            out.setdefault(entry["key"], ctx.w_obj)
        space = _claim_space(ctx, data)
        for block in _blocks(data):
            out.setdefault(block["f"], _wedge(ctx, morphisms, block))
            for part in block["parts"]:
                for term in part["terms"]:
                    out.setdefault(term["w"], space.obj)
    return out


def _claim_space(ctx, data):
    """The space of the claim of a pair file or of ``q.json``, as read."""
    return ctx.space(tuple(data["subset"])) if "subset" in data else ctx.full_space


def _wedge(ctx, morphisms, block):
    """The wedge a block's f is read into: the context's wedge of the
    domains of its parts' terms."""
    return ctx.wedge_of([resolve(ctx, d) for d in _summands(morphisms, block)])


def _tuples(x):
    """x as read from JSON with each list made a tuple."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def _summands(morphisms, block):
    """The domain labels, as written, of the summands of a block's wedge:
    those of each part's first term."""
    return [morphisms[p["terms"][0]["w"]]["domain"] for p in block["parts"]]


def _dimensions(dom):
    """The dimension of each value of a table on dom, in table order."""
    return [n for n, xs in dom.key_levels() for _x in xs]


def _table_id(table, dom):
    """The id of a written table on dom: the digest of its (n, x, value)
    rows, n and x from the domain."""
    keys = [(n, x) for n, xs in dom.key_levels() for x in xs]
    return morph_id(["morphism", [[n, x, v] for (n, x), v in zip(keys, table)]])


def _one_as_true(x):
    """x with its first integer 1 written as true, or None if it holds none."""
    if x == 1 and type(x) is int:
        return True
    if isinstance(x, list):
        for i, v in enumerate(x):
            w = _one_as_true(v)
            if w is not None:
                return x[:i] + [w] + x[i + 1 :]
    return None


def test_check_pj_rejects_one_written_as_true_in_a_table(tmp_path):
    # equal in Python, so only the strict read of the written values sees it
    pj = tmp_path / "pj"
    run_cli(["construct-pj", "--i", "1", "--e", "1", "--out", str(pj)])
    data = json.loads((pj / "morphisms.json").read_text())
    table = next(rec["table"] for rec in data.values() if any(map(_one_as_true, rec["table"])))
    i = next(i for i, v in enumerate(table) if _one_as_true(v))
    table[i] = _one_as_true(table[i])
    (pj / "morphisms.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-pj", "--in", str(pj)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    check = json.loads(line)["case"]["check"]
    assert check.startswith("artifact-structure (morphism table entry on ")
    assert "holds True" in check
    assert "Traceback" not in err


def _has_one(x):
    return type(x) is int and x == 1 or isinstance(x, list) and any(map(_has_one, x))


def _ones_as(x, atom):
    """x with every int 1 in it written as atom."""
    if type(x) is int and x == 1:
        return atom
    return [_ones_as(v, atom) for v in x] if isinstance(x, list) else x


def _ones_in_a_value_as(atom):
    """Every 1 in the first value that holds one written as atom: equal in
    Python, so a table read through dicts or interned before its atoms are
    checked takes it for the value written with 1."""

    def edit(table, dom, cod):
        i = next((i for i, v in enumerate(table) if _has_one(v)), None)
        return None if i is None else table[:i] + [_ones_as(table[i], atom)] + table[i + 1 :]

    return edit


def _repeated_value(table, dom, cod):
    return table[:1] + table


def _swapped_values(table, dom, cod):
    # two distinct values of one dimension, each now at the other's simplex
    ns = _dimensions(dom)
    i = next(
        (i for i in range(len(table) - 1) if ns[i] == ns[i + 1] and table[i] != table[i + 1]),
        None,
    )
    return None if i is None else table[:i] + [table[i + 1], table[i]] + table[i + 2 :]


def _missing_value(table, dom, cod):
    return table[:-1]


def _degenerate_value(table, dom, cod):
    # one more value, the degenerate edge at the first vertex's value, as
    # if for the degenerate edge at the first vertex
    return table + [jsonable(cod.degen(0, 0, _tuples(table[0])))]


# a table other than one value per nondegenerate simplex of its domain, a
# table whose values in their domain's order break faces, or one holding an
# atom other than a str, an int or null, stored under its recomputed id;
# each with a pattern of the line it must give
COUNT = r"morphism table on .+ holds \d+ values, not one per each of its \d+ nondeg"
ATOM = r"morphism table entry on .+ holds (True|1\.0), not a str, an int or null"
TABLE_FORGERIES = {
    "value-with-true": (_ones_in_a_value_as(True), ATOM),
    "value-with-float": (_ones_in_a_value_as(1.0), ATOM),
    "repeated-row": (_repeated_value, COUNT),
    "swapped-rows": (_swapped_values, r".+ is not a morphism into .+ commute with faces"),
    "missing-row": (_missing_value, COUNT),
    "degenerate-row": (_degenerate_value, COUNT),
}


def _forge_a_table(in_dir, forge):
    """Forge the table of the first morphism record, in id order, that
    forge changes, and store the record under the id recomputed from the
    forged table, every reference to it rewritten.  A table of another
    length has no (n, x, value) rows to digest, and the reader refuses it
    before it reads the id, so it keeps its id."""
    manifest = json.loads((in_dir / "manifest.json").read_text())
    ctx = WedgeContext(tuple(manifest["i"]), tuple(manifest["e"]))
    data = json.loads((in_dir / "morphisms.json").read_text())
    codomains = _codomains(in_dir, ctx)
    for old_id in sorted(data):
        rec = data[old_id]
        dom, cod = resolve(ctx, rec["domain"]), codomains[old_id]
        table = forge(rec["table"], dom, cod)
        if table is not None:
            break
    new_id = _table_id(table, dom) if len(table) == len(rec["table"]) else old_id
    assert new_id == old_id or new_id not in data
    data[new_id] = dict(data.pop(old_id), table=table)
    (in_dir / "morphisms.json").write_text(json.dumps(data))
    for path in in_dir.glob("*.json"):
        if path.name not in ("manifest.json", "morphisms.json"):
            path.write_text(path.read_text().replace(old_id, new_id))


@pytest.mark.optimized
@pytest.mark.parametrize("dump", ["q1", "pj1"])
@pytest.mark.parametrize(
    "forge, message", TABLE_FORGERIES.values(), ids=list(TABLE_FORGERIES)
)
def test_check_reads_each_table_strictly(dumps, tmp_path, dump, forge, message):
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    _forge_a_table(in_dir, forge)
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert re.match(rf"artifact-structure \({message}", report["case"]["check"])
    assert "Traceback" not in err


@pytest.mark.optimized
@pytest.mark.parametrize("dump", ["q1", "pj1"])
def test_check_rejects_tables_written_as_rows(dumps, tmp_path, dump):
    # the [n, x, value] rows of a dump written before tables were their
    # values: one entry per simplex still, each read as a value, so the
    # rebuilt key is no longer the one the id digests
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    manifest = json.loads((in_dir / "manifest.json").read_text())
    ctx = WedgeContext(tuple(manifest["i"]), tuple(manifest["e"]))
    data = json.loads((in_dir / "morphisms.json").read_text())
    for rec in data.values():
        dom = resolve(ctx, rec["domain"])
        keys = [(n, jsonable(x)) for n, xs in dom.key_levels() for x in xs]
        rec["table"] = [[n, x, v] for (n, x), v in zip(keys, rec["table"])]
    (in_dir / "morphisms.json").write_text(json.dumps(data))
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"] == (
        "artifact-structure (morphism id does not match its table)"
    )


def _rewrite_references(in_dir, ids):
    """Rewrite every reference to a morphism id in the dump's witness and
    ensemble files by the map ids."""
    for path in in_dir.glob("*.json"):
        if path.name not in ("manifest.json", "morphisms.json"):
            text = path.read_text()
            for old, new in ids.items():
                text = text.replace(json.dumps(old), json.dumps(new))
            path.write_text(text)


def _record_with_codomain(data, in_dir, dumps):
    rec = data[min(data)]
    rec["codomain"] = rec["domain"]


def _record_with_note(data, in_dir, dumps):
    data[min(data)]["note"] = "unused"


def _record_without_table(data, in_dir, dumps):
    del data[min(data)]["table"]


def _old_style_ids(data, in_dir, dumps):
    # the base64 of the whole key, as ids were written before digests
    ids = {
        mid: base64.b64encode(ckey(["morphism", rec["table"]])).decode()
        for mid, rec in data.items()
    }
    data.update({ids[mid]: data.pop(mid) for mid in list(data)})
    _rewrite_references(in_dir, ids)


def _ids_of_two_tables_swapped(data, in_dir, dumps):
    # each well-formed digest names the other table
    a, b = sorted(data)[:2]
    data[a], data[b] = data[b], data[a]


def _record_no_reference_uses(data, in_dir, dumps):
    # a record of the pair dump of the same sizes, whose table no use reads
    extra = json.loads((dumps / "pj1" / "morphisms.json").read_text())
    mid = min(extra.keys() - data.keys())
    data[mid] = extra[mid]


# a morphisms.json edit and the start of the artifact-structure message
# it must give
RECORD_TAMPERS = {
    "record-with-codomain": (_record_with_codomain, "morphism record "),
    "record-with-another-field": (_record_with_note, "morphism record "),
    "record-without-table": (_record_without_table, "morphism record "),
    "old-style-ids": (_old_style_ids, "morphism id does not match its table"),
    "ids-of-two-tables-swapped": (
        _ids_of_two_tables_swapped,
        "morphism id does not match its table",
    ),
    "record-no-reference-uses": (_record_no_reference_uses, "morphism record "),
}


@pytest.mark.optimized
@pytest.mark.parametrize("case", RECORD_TAMPERS)
def test_check_rejects_a_record_out_of_form(dumps, tmp_path, case):
    # a record is its domain and its table under the digest of that table,
    # and some reference uses it, so the table is validated somewhere
    edit, message = RECORD_TAMPERS[case]
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / "q1", in_dir)
    data = json.loads((in_dir / "morphisms.json").read_text())
    edit(data, in_dir, dumps)
    (in_dir / "morphisms.json").write_text(json.dumps(data))
    rc, out, err = run_cli(["check-q", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith(f"artifact-structure ({message}")


def _loaded_store(in_dir):
    manifest = json.loads((in_dir / "manifest.json").read_text())
    ctx = WedgeContext(tuple(manifest["i"]), tuple(manifest["e"]))
    data = json.loads((in_dir / "morphisms.json").read_text())
    return ctx, data, MorphismStore.load(data, ctx)


def _lands_in(store, mid, cod):
    try:
        store.morph(mid, cod, "probe")
    except ArtifactError:
        return False
    return True


@pytest.mark.optimized
@pytest.mark.parametrize("dump", ["pj1", "pj2"])
def test_check_rejects_a_term_outside_its_part_space(dumps, tmp_path, dump):
    # a term's w swapped for a stored morphism on the same domain that lands
    # in the object of some use, but not in the object of the pair's space,
    # the space at J, whose actions are composed with it
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    ctx, data, store = _loaded_store(in_dir)
    codomains = _codomains(in_dir, ctx)
    for path in sorted(in_dir.glob("pair_*.json")):
        payload = json.loads(path.read_text())
        found = next(
            (
                (b, j, term, mid)
                for b, block in enumerate(payload["alt_witness"]["blocks"])
                for j, part in enumerate(block["parts"])
                for term in part["terms"]
                for mid, rec in sorted(data.items())
                if rec["domain"] == _summands(data, block)[j]
                and _lands_in(store, mid, codomains[mid])
                and not _lands_in(store, mid, _claim_space(ctx, payload).obj)
            ),
            None,
        )
        if found:
            break
    b, j, term, mid = found
    term["w"] = mid
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(["check-pj", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith(
        f"artifact-structure (block {b} part {j} term is not a morphism into "
    )


@pytest.mark.optimized
@pytest.mark.parametrize("dump", ["q1", "pj1"])
def test_check_rejects_an_ensemble_key_outside_w(dumps, tmp_path, dump):
    # an ensemble key swapped for a stored morphism that is no map into W(I)
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    ctx, data, store = _loaded_store(in_dir)
    mid = next(m for m in sorted(data) if not _lands_in(store, m, ctx.w_obj))
    path = next(p for p in sorted(in_dir.glob("*.json")) if "ensemble" in p.read_text())
    payload = json.loads(path.read_text())
    payload["ensemble"][0]["key"] = mid
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert report["case"]["check"].startswith(
        f"artifact-structure (ensemble key is not a morphism into {ctx.w_obj.label!r}: "
    )


# a field deleted from each kind of object the checker reads: (dump, file,
# the object, the field, the name the line gives the object)
MISSING_FIELDS = [
    ("q1", "q.json", lambda d: d["boundary_witness"], "level", "witness"),
    ("q1", "q.json", lambda d: next(_blocks(d)), "coeff", "block"),
    ("q1", "q.json", _first_part, "level", "part"),
    ("q1", "q.json", _first_term, "w", "term"),
    ("q1", "q.json", lambda d: d["ensemble"][0], "key", "ensemble entry"),
    ("q1", "q.json", lambda d: d["layouts"][0], "witness", "layout entry"),
    ("q1", "q.json", lambda d: d, "boundary_witness", "q.json"),
    ("pj1", PAIR, lambda d: d, "face", PAIR),
]


@pytest.mark.optimized
@pytest.mark.parametrize(
    "dump, name, get, field, what",
    MISSING_FIELDS,
    ids=[f"{c[4]}-{c[3]}" for c in MISSING_FIELDS],
)
def test_check_names_a_missing_field(dumps, tmp_path, dump, name, get, field, what):
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    path = in_dir / name
    data = json.loads(path.read_text())
    del get(data)[field]
    path.write_text(json.dumps(data))
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    message = f"{what} lacks the field {field!r}"
    assert report["case"]["check"] == f"artifact-structure ({message})"
    assert report["diagnostic"] == message


# a field the checker does not read, put on one object: (dump, file, edit,
# the name the line gives the object, the field); the first is the
# certificate entry [L, J, c] that terms once carried
EXTRA_FIELDS = [
    ("q1", "q.json", _put(_first_term, "cert", [[[1, 2], [1, 2], 1]]), "term", "cert"),
    ("pj1", PAIR, _put(lambda d: next(_blocks(d)), "rank", 0), "block", "rank"),
    # the domain and space a part held before it took its block's
    ("q1", "q.json", _put(_first_part, "domain", ["plusbase", [1]]), "part", "domain"),
    ("q1", "q.json", _put(_first_part, "space", ["WL", [1, 2]]), "part", "space"),
]


@pytest.mark.optimized
@pytest.mark.parametrize(
    "dump, name, edit, what, field",
    EXTRA_FIELDS,
    ids=[f"{c[3]}-{c[4]}" for c in EXTRA_FIELDS],
)
def test_check_rejects_a_field_it_does_not_read(
    dumps, tmp_path, dump, name, edit, what, field
):
    in_dir = tmp_path / "dump"
    shutil.copytree(dumps / dump, in_dir)
    path = in_dir / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    rc, out, err = run_cli([f"check-{dump[:-1]}", "--in", str(in_dir)])
    assert rc == 1 and "Traceback" not in err
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    message = f"{what} has the field {field!r}, which is not read"
    assert report["case"]["check"] == f"artifact-structure ({message})"
    assert report["diagnostic"] == message


@pytest.mark.optimized
def test_check_q_rejects_a_written_zero_block(monkeypatch, tmp_path):
    # zero blocks kept and the builder's checks passed: every witness still
    # sums to its defect, but a written block that is zero on its own fails
    # its witness's line, and the line says which block
    monkeypatch.setattr(wedge, "drop_zero_blocks", lambda w, space, scope: w)
    monkeypatch.setattr(wedge, "_require_all", lambda checks: None)
    q = tmp_path / "q"
    assert run_cli(["construct-q", "--i", "2", "--e", "2", "--out", str(q)])[0] == 0
    rc, out, err = run_cli(["check-q", "--in", str(q)])
    assert rc == 1 and "Traceback" not in err
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 7
    failed = [r for r in reports if r["verdict"] == "fail"]
    assert any(
        r["case"]["check"].startswith("layout-defect-witness ") for r in failed
    )
    for r in failed:
        assert r["case"]["check"].startswith(("layout-defect-witness ", "boundary-"))
        assert re.fullmatch(r"block \d+ is zero", r["diagnostic"])
    assert all("diagnostic" not in r for r in reports if r["verdict"] == "pass")


def test_check_lets_a_fault_of_the_program_escape(monkeypatch, tmp_path):
    # only what a bad dump raises is a fail line; a KeyError of the program
    # is not read as a corrupt dump
    def faulty(in_dir):
        raise KeyError("a fault of the program")

    monkeypatch.setitem(cli.CHECKERS, "check-q", faulty)
    with pytest.raises(KeyError):
        run_cli(["check-q", "--in", str(tmp_path)])


def test_check_q_rejects_swapped_layout_witnesses(tmp_path):
    qd = tmp_path / "q"
    rc, _out, _err = run_cli(["construct-q", "--i", "2", "--e", "2", "--out", str(qd)])
    assert rc == 0
    payload = json.loads((qd / "q.json").read_text())
    by_layout = {json.dumps(e["layout"]): e for e in payload["layouts"]}
    full, empty = by_layout["[[1], [2]]"], by_layout["[[1]]"]
    assert full["witness"]["blocks"] and not empty["witness"]["blocks"]
    full["witness"], empty["witness"] = empty["witness"], full["witness"]
    (qd / "q.json").write_text(json.dumps(payload))

    rc, out, _err = run_cli(["check-q", "--in", str(qd)])
    assert rc == 1
    verdicts = {
        r["case"]["check"]: r["verdict"]
        for r in map(json.loads, out.strip().splitlines())
    }
    assert verdicts["layout-defect-witness A=((1,), (2,))"] == "fail"
    assert verdicts["layout-defect-witness A=((1,),)"] == "fail"
    assert verdicts["boundary-witness"] == "pass"


def test_check_q_rejects_augmentation_other_than_one(tmp_path):
    qd = tmp_path / "q"
    rc, _out, _err = run_cli(["construct-q", "--i", "1", "--e", "1", "--out", str(qd)])
    assert rc == 0
    payload = json.loads((qd / "q.json").read_text())
    for entry in payload["ensemble"]:
        entry["coeff"] = str(2 * int(entry["coeff"]))
    (qd / "q.json").write_text(json.dumps(payload))

    rc, out, err = run_cli(["check-q", "--in", str(qd)])
    assert rc == 1
    verdicts = {
        r["case"]["check"]: r["verdict"]
        for r in map(json.loads, out.strip().splitlines())
    }
    assert verdicts["augmentation I=(1,) E=(1,)"] == "fail"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["construct-pj", "construct-q"])
@pytest.mark.parametrize("below_file", [False, True])
def test_construct_reports_unwritable_out(tmp_path, command, below_file):
    # an existing file as --out, or a directory below one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = str(blocker / "x" if below_file else blocker)
    rc, out, err = run_cli([command, "--i", "1", "--e", "1", "--out", out_dir])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert out_dir in report["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["construct-pj", "construct-q"])
def test_construct_rejects_unwritable_out_before_constructing(
    tmp_path, monkeypatch, command
):
    def construct_p(*args, **kwargs):
        pytest.fail("constructed although --out cannot be written")

    monkeypatch.setattr(cli, "construct_p", construct_p)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc, out, err = run_cli([command, "--i", "2", "--e", "2", "--out", str(blocker)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert report["verdict"] == "fail"
    assert str(blocker) in report["error"]
    assert "Traceback" not in err


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["construct-pj", "construct-q"])
def test_construct_reports_memory_error(tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "construct_p", _out_of_memory)
    rc, out, err = run_cli([command, "--i", "1", "--e", "1", "--out", str(tmp_path / "d")])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert (report["verdict"], report["error"]) == ("fail", "memory")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check-pj", "check-q"])
def test_check_reports_memory_error(tmp_path, monkeypatch, command):
    monkeypatch.setitem(cli.CHECKERS, command, _out_of_memory)
    rc, out, err = run_cli([command, "--in", str(tmp_path)])
    assert rc == 1
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert (report["verdict"], report["error"]) == ("fail", "memory")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["check-brunnian", "--word", "x1 x2 x1^-1 x2^-1", "--alphabet", "2"],
            {
                "brunnian": True,
                "case": {"alphabet": 2, "word": "x1 x2 x1^-1 x2^-1"},
                "suite": "check-brunnian",
                "verdict": "pass",
            },
        ),
        (
            ["check-brunnian", "--word", "x1", "--alphabet", "2"],
            {
                "brunnian": False,
                "case": {"alphabet": 2, "word": "x1"},
                "suite": "check-brunnian",
                "verdict": "pass",
            },
        ),
        (
            ["magnus", "--word", "x1 x2 x1^-1 x2^-1", "--degree", "2"],
            {
                "case": {"degree": 2, "word": "x1 x2 x1^-1 x2^-1"},
                "suite": "magnus",
                "terms": [
                    {"coeff": 1, "monomial": []},
                    {"coeff": 1, "monomial": [1, 2]},
                    {"coeff": -1, "monomial": [2, 1]},
                ],
                "verdict": "pass",
            },
        ),
        (
            ["lcs", "--word", "x1 x2 x1^-1 x2^-1", "--max-degree", "3"],
            {
                "at_least": None,
                "case": {"max_degree": 3, "word": "x1 x2 x1^-1 x2^-1"},
                "depth": 2,
                "suite": "lcs",
                "verdict": "pass",
            },
        ),
        (
            ["lcs", "--word", "x1 x2 x1^-1 x2^-1", "--max-degree", "1"],
            {
                "at_least": 2,
                "case": {"max_degree": 1, "word": "x1 x2 x1^-1 x2^-1"},
                "depth": None,
                "suite": "lcs",
                "verdict": "pass",
            },
        ),
    ],
)
def test_word_command_report_lines(argv, expected):
    rc, out, err = run_cli(argv)
    assert rc == 0
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert isinstance(report.pop("ms"), int)
    assert report == expected
    assert err == "1 passed, 0 failed, 0 skipped\n"


def test_check_applies_the_construction_guard_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_check_applies_the_construction_guard")


def test_malformed_label_is_an_artifact_error_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_malformed_label_is_an_artifact_error")


def test_check_rejects_a_wrong_container_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_check_rejects_a_wrong_container")


def test_witness_level_and_label_checks_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_check_q_rejects_a_witness_level_no_block_reaches",
        f"{__file__}::test_check_q_passes_a_witness_without_blocks_at_any_level",
        f"{__file__}::test_check_q_rejects_a_label_atom_other_than_a_str_or_int",
    )


def test_block_and_depth_checks_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_check_rejects_a_block_decomposition_outside_its_wedge",
        f"{__file__}::test_check_rejects_a_file_nested_too_deep",
        f"{__file__}::test_check_rejects_a_part_on_no_one_summand",
        f"{__file__}::test_check_pj_reads_pair_files_only_from_its_dump",
    )


def test_check_names_a_file_that_is_not_json_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_check_names_a_file_that_is_not_json")


def test_check_rejects_incomplete_dump_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_check_rejects_incomplete_dump")


def test_part_space_missing_field_and_zero_block_checks_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_check_rejects_block_wedge_of_other_summands",
        f"{__file__}::test_check_rejects_tables_written_as_rows",
        f"{__file__}::test_check_names_a_missing_field",
        f"{__file__}::test_check_q_rejects_a_written_zero_block",
    )


def test_extra_field_rejected_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_check_rejects_a_field_it_does_not_read")


def test_failed_condition_reported_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_construct_reports_failed_condition")


def test_table_breaking_faces_rejected_under_optimize(run_optimized):
    # the simplicial checks raise, so they hold without assert statements
    run_optimized(f"{__file__}::test_check_pj_rejects_table_breaking_faces")


def test_alphabet_and_full_wedge_label_checks_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_check_brunnian_alphabet_is_a_non_negative_int",
        f"{__file__}::test_label_of_another_index_set_is_rejected",
    )


def test_check_reads_each_table_strictly_under_optimize(run_optimized):
    run_optimized(f"{__file__}::test_check_reads_each_table_strictly")
