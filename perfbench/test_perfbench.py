"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import calculus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join((HERE, SRC)))


def _python(code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=ENV, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def test_changed_coefficient_in_a_pair_file_is_a_failed_verdict(tmp_path):
    art = str(tmp_path)
    worker.build("pj", (1, 2), (1,), art)
    verdicts = worker.check("pj", art)
    assert verdicts and all(ok for _, ok in verdicts)
    name = sorted(f for f in os.listdir(art) if f.startswith("pair_"))[-1]
    path = os.path.join(art, name)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    entry = payload["ensemble"][0]
    entry["coeff"] = str(int(entry["coeff"]) + 1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    verdicts = worker.check("pj", art)
    assert verdicts and not all(ok for _, ok in verdicts)


def _iteration(ok=True, digest="d", build_s=1.0):
    return {
        "inputs": 0, "setup_s": [0.1, 0.2], "build_s": build_s, "check_s": 0.5,
        "wall_build_s": build_s, "wall_check_s": 0.5,
        "peak_rss_mb": 30.0, "artifact_bytes": 10, "digest": digest, "ok": ok,
        "verdicts": [("build", True), ("alternating-sum-witness", ok)],
        "case_ms": [1500.0] if ok else [],
    }


def test_a_failed_iteration_is_counted_and_never_timed():
    metrics, verdicts, _ = run.summarize([_iteration(build_s=1.0), _iteration(ok=False, build_s=9.0)])
    assert [ok for _, ok in verdicts].count(False) == 1
    assert metrics["build_s"]["value"] == 1.0
    assert metrics["case_p50_ms"]["value"] == 1500.0
    assert metrics["pass_ratio"]["value"] == 4 / 5


def test_the_run_reports_a_failure_and_exits_nonzero(monkeypatch):
    monkeypatch.setattr(run, "run_iteration", lambda *a: _iteration(ok=False))
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(["--workload", "pj-3x2", "--seconds", "0"])
    report = json.loads(out.getvalue().splitlines()[-1])
    assert status == 1
    assert report["correct"] is False
    assert (report["attempted"], report["failed"]) == (2, 1)


def test_artifacts_that_differ_between_iterations_fail_the_gate():
    verdicts = run.gate([_iteration(digest="a"), _iteration(digest="b")])
    assert [ok for name, ok in verdicts if "digest" in name] == [False]
    verdicts = run.gate([_iteration(digest="a"), _iteration(digest="a")])
    assert [ok for name, ok in verdicts if "digest" in name] == [True]


def test_two_processes_write_byte_identical_artifacts(tmp_path):
    code = (
        "import sys, worker; worker.build(sys.argv[1], (1, 2), (1,), sys.argv[2]);"
        "print(worker.digest(sys.argv[2])[1])"
    )
    for kind in ("pj", "q"):
        first = _python(code, kind, str(tmp_path / f"{kind}-a"))
        second = _python(code, kind, str(tmp_path / f"{kind}-b"))
        assert first == second


def test_tracer_wraps_every_binding_and_counts_calls():
    code = """
import json, sys
import fissile.artifacts, fissile.wedge, fissile.witnesses
from spans import Tracer
orig = fissile.simplicial.wedge
tracer = Tracer()
tracer.install(("fissile",))
bindings = [fissile.simplicial.wedge, fissile.witnesses.wedge, fissile.wedge.wedge,
            fissile.artifacts.wedge]
assert all(b is bindings[0] and b is not orig for b in bindings)
fissile.wedge.construct_p((1, 2), (1, 2))
print(json.dumps(tracer.counts()))
"""
    counts, parts = json.loads(_python(code))
    metrics = spans.merge([(counts, parts)])
    assert metrics["simplicial.wedge.calls"] > 0
    assert 0 < metrics["simplicial.wedge.distinct"] <= metrics["simplicial.wedge.calls"]
    assert metrics["witnesses.wedge_witness.calls"] > 0
    assert 0 <= metrics["witnesses.wedge_witness.self_s"] <= metrics["witnesses.wedge_witness.s"]
    assert metrics["wedge.compact_witness.blocks_out"] <= metrics["wedge.compact_witness.blocks_in"]
    assert metrics["posets.lift_limit.calls"] == 0


def test_calculus_inputs_follow_the_seed_and_every_case_checks():
    def outputs(seed):
        lines = []
        for kind, args in calculus.make_batch(seed, 0, 60):
            out = calculus.run_case(kind, args)
            ok = calculus.check_case(kind, args, out)
            assert ok is True, kind
            lines.append(json.dumps(calculus.report_line(kind, out, ok)))
        return lines

    assert outputs(3) == outputs(3)
    assert outputs(3) != outputs(4)


def test_steady_seconds_scale_wall_time_by_the_probe_speed():
    clock = speed.Clock()
    clock.ends = [1.0, 1.5, 2.0, 5.0]
    clock.durations = [2 * speed.REFERENCE_S] * 3 + [speed.REFERENCE_S]
    wall = 1.0 - 6 * speed.REFERENCE_S
    assert abs(clock.raw_seconds(1.0, 2.0) - wall) < 1e-12
    assert abs(clock.seconds(1.0, 2.0) - wall / 2) < 1e-12
    # Far from every probe, the nearest one gives the speed.
    assert abs(clock.seconds(9.0, 10.0) - 1.0) < 1e-12
    assert speed.Clock().seconds(1.0, 2.0) == 1.0


def test_clock_ticks_while_it_runs_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = speed.Clock().start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    finally:
        clock.stop()
    assert len(clock.durations) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < clock.seconds(t0, t0 + 0.3)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(100)))[0] == 89
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0


def test_tail_is_the_median_of_the_tails_of_the_iterations():
    iterations = [_iteration(), _iteration(), _iteration()]
    iterations[0]["case_ms"] = iterations[1]["case_ms"] = [float(i) for i in range(100)]
    iterations[2]["case_ms"] = [1000.0] * 100
    metrics, _, _ = run.summarize(iterations)
    assert metrics["case_tail_ms"]["value"] == 89.0


def test_benchmark_json_lists_what_the_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        spans.metric_names() + list(run.TRACE_OVERHEAD)
    )
