import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import fissile
from fissile import wedge
from fissile.artifacts import LabelResolver
from fissile.canon import ckey_b64, jsonable, unjsonable
from fissile.cli import main, parse_word
from fissile.wedge import WedgeContext


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
    row = data[some_id]["table"][0]
    row[2] = ["bogus", "value"]
    open(morphs, "w").write(json.dumps(data))
    rc, out, _err = run_cli(["check-pj", "--in", pj])
    assert rc == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(r["verdict"] == "fail" for r in lines)


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


def test_construct_reports_failed_condition(monkeypatch, tmp_path):
    monkeypatch.setattr(wedge, "constant_restriction_holds", lambda *args: False)
    rc, out, _err = run_cli(
        ["construct-pj", "--i", "1", "--e", "1", "--out", str(tmp_path / "pj")]
    )
    assert rc == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["error"].startswith("constant-restriction F=(1,) J=()")


def test_check_pj_rejects_table_breaking_faces(tmp_path):
    # a table that commutes with degeneracies but not with faces, stored
    # under the id recomputed from its rows
    pj = tmp_path / "pj"
    run_cli(["construct-pj", "--i", "1", "--e", "1", "--out", str(pj)])
    manifest = json.loads((pj / "manifest.json").read_text())
    resolver = LabelResolver(
        WedgeContext(manifest["i"], manifest["e"], bound=manifest["bound"])
    )
    data = json.loads((pj / "morphisms.json").read_text())

    def break_faces(rec):
        cod = resolver.obj(rec["codomain"])
        for row in rec["table"]:
            n, v = row[0], unjsonable(row[2])
            for y in cod.level(n) if n else ():
                if any(cod.face(n, i, y) != cod.face(n, i, v) for i in range(n + 1)):
                    row[2] = jsonable(y)
                    return True
        return False

    old_id = next(mid for mid in sorted(data) if break_faces(data[mid]))
    new_id = ckey_b64(["morphism", data[old_id]["table"]])
    data[new_id] = data.pop(old_id)
    (pj / "morphisms.json").write_text(json.dumps(data))
    for path in pj.glob("pair_*.json"):
        path.write_text(path.read_text().replace(old_id, new_id))

    rc, out, _err = run_cli(["check-pj", "--in", str(pj)])
    assert rc == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(r["verdict"] == "fail" for r in lines)


def test_table_breaking_faces_rejected_under_optimize():
    # the simplicial checks raise, so they hold without assert statements
    src = os.path.dirname(os.path.dirname(fissile.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    test_id = f"{__file__}::test_check_pj_rejects_table_breaking_faces"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", test_id],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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
