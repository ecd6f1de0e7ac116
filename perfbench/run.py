"""Benchmark of the fissile package, run from the root of a checkout.

    python3 perfbench/run.py [--workload pj-3x2|q-2x2|calculus|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Every process of an iteration is a fresh single-threaded Python process
(``worker.py``), because every ``fissile`` invocation pays its cold cost: a
construct workload builds in one process and re-checks the files in
others.  Iterations run one after another for about ``--seconds``; the
end-to-end metrics are medians over them, with every time in steady
seconds (``speed.py``).  With ``--trace 1`` the run
makes one untraced and one traced iteration on the same inputs and reports
the per-layer metrics of the traced one; the spans are kept under
``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every output check passed, 1 when one failed, 2 when the benchmark itself
could not run (no result line is printed then).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("pj-3x2", "q-2x2", "calculus")
END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("check_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("artifact_bytes", "bytes"),
    ("pass_ratio", "ratio"),
)
TRACE_OVERHEAD = (
    ("trace.build_s", "s"),
    ("trace.untraced_build_s", "s"),
    ("trace.overhead_s", "s"),
)
# Re-check processes per construct iteration.  check_q_artifacts at (2,2)
# takes about 0.5 s, too short for one sample to be steady.
CHECK_PROCESSES = {"pj-3x2": 1, "q-2x2": 5, "calculus": 0}
# A run, with every process it starts, ends within 180 seconds.
RUN_LIMIT_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is reported."""


def run_process(mode, workload, seed, index, trace, work_dir, deadline):
    """One worker process; returns its result record."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed),
           str(index), str(int(trace)), work_dir]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} {mode} process ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    path = os.path.join(work_dir, f"result-{mode}.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise HarnessError(f"{workload} {mode} process exited with status {proc.returncode}")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(path)
    if trace:
        os.replace(os.path.join(work_dir, f"spans-{mode}.tsv.gz"),
                   os.path.join(OUT, f"spans-{workload}-seed{seed}-{mode}.tsv.gz"))
    return result


def run_iteration(workload, seed, index, trace, checks, deadline):
    """A build process, then ``checks`` re-check processes on its artifacts."""
    work_dir = os.path.join(OUT, f"{workload}-{seed}-{index}-{int(trace)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        built = run_process("build", workload, seed, index, trace, work_dir, deadline)
        rechecks = []
        if all(ok for _, ok in built["verdicts"]):
            rechecks = [run_process("check", workload, seed, index, trace, work_dir, deadline)
                        for _ in range(checks)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    procs = [built] + rechecks
    it = {
        "inputs": index if workload == "calculus" else 0,
        "setup_s": [p["setup_s"] for p in procs],
        "verdicts": [tuple(v) for p in procs for v in p["verdicts"]],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
        "layers": [(p["layers"], p["wedge_parts"]) for p in procs if "layers" in p],
    }
    for key in ("build_s", "wall_build_s", "check_s", "wall_check_s", "artifact_bytes",
                "digest", "case_ms"):
        if key in built:
            it[key] = built[key]
    if rechecks:
        for key in ("check_s", "wall_check_s"):
            it[key] = statistics.median(p[key] for p in rechecks)
    it["ok"] = all(ok for _, ok in it["verdicts"]) and "check_s" in it
    if it["ok"] and "case_ms" not in it:
        it["case_ms"] = [(it["build_s"] + it["check_s"]) * 1e3]
    return it


def tail(values):
    """The highest sample with at least ten samples beyond it, with a label.

    With ten samples or fewer no such sample exists, and the median stands
    in, so that a tail is never read off a handful of samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), f"median of {n} cases (fewer than 11)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.2f} of {n} cases"


def gate(iterations):
    """All verdicts of the run, plus one per group of iterations that had the
    same inputs: their artifacts must be byte-identical."""
    verdicts = [v for it in iterations for v in it["verdicts"]]
    digests = {}
    for it in iterations:
        if "digest" in it:
            digests.setdefault(it["inputs"], []).append(it["digest"])
    for inputs, seen in sorted(digests.items()):
        if len(seen) > 1:
            verdicts.append((f"artifact digest repeats for inputs {inputs}", len(set(seen)) == 1))
    return verdicts


def summarize(iterations):
    """End-to-end metrics, verdicts and notes of an untraced run.

    Only iterations whose every verdict passed are timed."""
    verdicts = gate(iterations)
    failed = sum(not ok for _, ok in verdicts)
    passed = [it for it in iterations if it["ok"]]
    case_ms = [ms for it in iterations for ms in it.get("case_ms", ())]
    values = {
        "setup_s": statistics.median(s for it in iterations for s in it["setup_s"]),
        "pass_ratio": (len(verdicts) - failed) / len(verdicts),
    }
    notes = [f"fail_ratio {failed}/{len(verdicts)} verdicts"]
    if passed:
        for key in ("build_s", "check_s", "peak_rss_mb"):
            values[key] = statistics.median(it[key] for it in passed)
        values["artifact_bytes"] = statistics.median_low(it["artifact_bytes"] for it in passed)
        values["cases_per_s"] = statistics.median(
            len(it["case_ms"]) / (it["build_s"] + it["check_s"]) for it in passed
        )
    if case_ms:
        values["case_p50_ms"] = statistics.median(case_ms)
        # A tail per iteration, then their median: a pooled tail would move
        # with any ten slow cases of the whole run.
        tails = [tail(it["case_ms"]) for it in iterations if it.get("case_ms")]
        values["case_tail_ms"] = statistics.median(value for value, _ in tails)
        labels = ", ".join(sorted({label for _, label in tails}))
        notes.append(f"case_tail_ms is the median over {len(tails)} iterations of each one's {labels}")
    notes.append("build_s per iteration " + " ".join(f"{it['build_s']:.3f}" for it in passed))
    if passed:
        notes.append("unscaled wall time, medians: " + ", ".join(
            f"{key} {statistics.median(it['wall_' + key] for it in passed):.4f} s"
            for key in ("build_s", "check_s")))
    notes.append(f"{len(iterations)} iterations, artifact sha256 "
                 + ", ".join(sorted({it.get('digest', 'none') for it in iterations})))
    units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in END_TO_END if k in values}
    return metrics, verdicts, notes


def summarize_trace(untraced, traced):
    """Per-layer metrics of the traced iteration and the tracing overhead."""
    from spans import merge, metric_names

    units = dict(metric_names() + list(TRACE_OVERHEAD))
    values = merge(traced["layers"])
    if "build_s" in traced and "build_s" in untraced:
        values["trace.build_s"] = traced["build_s"]
        values["trace.untraced_build_s"] = untraced["build_s"]
        values["trace.overhead_s"] = traced["build_s"] - untraced["build_s"]
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    verdicts = gate([untraced, traced])
    notes = [f"fail_ratio {sum(not ok for _, ok in verdicts)}/{len(verdicts)} verdicts"]
    if traced.get("wall_build_s"):
        # Spans are in wall seconds, so they are compared with the wall build time.
        share = values["witnesses.wedge_witness.s"] / traced["wall_build_s"]
        notes.append(f"witnesses.wedge_witness spans cover {100 * share:.1f}% of the wall build time")
    return metrics, verdicts, notes


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    checks = CHECK_PROCESSES[workload]
    if trace:
        untraced = run_iteration(workload, seed, 0, False, min(checks, 1), deadline)
        traced = run_iteration(workload, seed, 0, True, min(checks, 1), deadline)
        return summarize_trace(untraced, traced)
    # Start another iteration while it should end nearer to ``seconds``
    # than stopping now would, and well before the run's deadline.
    iterations = []
    start = time.monotonic()
    while True:
        iterations.append(run_iteration(workload, seed, len(iterations), False, checks, deadline))
        now = time.monotonic()
        mean = (now - start) / len(iterations)
        if now - start + mean / 2 >= seconds or now + 1.5 * mean > deadline:
            return summarize(iterations)


def machine():
    return (f"machine: {platform.python_implementation()} {platform.python_version()}, "
            f"nproc {os.cpu_count()}, {platform.system()} {platform.machine()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("run without -O: the package's self-verification rests on assert",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "fissile")):
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    print(machine())
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            metrics, verdicts, notes = run_workload(workload, args.seed, args.seconds, args.trace)
        except HarnessError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 2
        failed = [name for name, ok in verdicts if not ok]
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']} {m['unit']}")
        for note in notes:
            print(f"{workload} {note}")
        for name in failed[:20]:
            print(f"{workload} FAILED {name}")
        print(json.dumps({"correct": not failed, "attempted": len(verdicts),
                          "failed": len(failed), "metrics": metrics}), flush=True)
        if failed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
