"""One process of a benchmark iteration.

Usage: worker.py MODE WORKLOAD SEED INDEX TRACE DIR

MODE ``build`` of a construct workload constructs, self-verifies and writes
the artifacts to DIR/artifacts.  MODE ``check`` re-checks them from the
files alone, in a process of its own as a user of ``check-*`` would.  The
``calculus`` workload has a single ``build`` process per batch: it computes
each case (build) and checks its identity (check), timing every case.

Set-up is the import of the package plus the generation of the inputs.
Every time is taken in steady seconds (``speed.py``): wall time scaled to
a fixed speed of the core, measured by a probe that runs every 20 ms in
the same process.  The wall times, less the probes, are reported beside
them as ``wall_*``.  With TRACE 1 the public functions of every module are wrapped after
set-up.  The process writes DIR/result-MODE.json with its timings, the
verdicts of the output gate, its peak resident memory and, for a build,
the artifact size and digest; a traced process adds its per-layer counts
and writes its spans to DIR/spans-MODE.tsv.gz.
"""

from time import perf_counter

START = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from speed import Clock  # noqa: E402

# name -> (kind, index set, ground set); sizes are fixed, the seed is unused.
CONSTRUCT = {
    "q-2x2": ("q", (1, 2), (1, 2)),
    "pj-3x2": ("pj", (1, 2, 3), (1, 2)),
}
# Cases in one calculus batch, about five seconds of work.
CALCULUS_BATCH = 2000


def build(kind, i_set, e_set, art_dir):
    """Construct, self-verify and write the artifacts of one construction."""
    from fissile.artifacts import write_pair_artifacts, write_q_artifacts
    from fissile.wedge import construct_p, construct_q

    if kind == "q":
        result = construct_p(i_set, e_set)
        write_q_artifacts(result, construct_q(result), art_dir)
    else:
        write_pair_artifacts(construct_p(i_set, e_set, enforce_guard=False), art_dir)


def check(kind, art_dir):
    """Re-check artifacts from files; one (name, ok) verdict per check.

    A check that raises, or a checker that returns no checks, is a failed
    verdict, never a traceback.
    """
    from fissile.artifacts import check_pair_artifacts, check_q_artifacts

    checker = check_q_artifacts if kind == "q" else check_pair_artifacts
    try:
        checks = checker(art_dir)
    except Exception as exc:  # noqa: BLE001 - any error is a failed verdict
        return [(f"check raised {type(exc).__name__}: {exc}", False)]
    if not checks:
        return [("checker returned no checks", False)]
    return [(str(name), ok is True) for name, ok in checks]


def digest(art_dir):
    """Total bytes and a sha256 over the sorted artifact files."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(art_dir)):
        with open(os.path.join(art_dir, name), "rb") as fh:
            data = fh.read()
        total += len(data)
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return total, h.hexdigest()


def run_construct(mode, workload, art_dir, trace):
    kind, i_set, e_set = CONSTRUCT[workload]
    import fissile.artifacts  # noqa: F401
    import fissile.wedge  # noqa: F401

    out = {"setup_s": [(START, perf_counter())]}
    tracer = _start_trace(trace)
    t0 = perf_counter()
    if mode == "check":
        out["verdicts"] = check(kind, art_dir)
        out["check_s"] = [(t0, perf_counter())]
        return out, tracer
    try:
        build(kind, i_set, e_set, art_dir)
    except Exception as exc:  # noqa: BLE001 - a failed build is a verdict
        out["verdicts"] = [(f"build raised {type(exc).__name__}: {exc}", False)]
        return out, tracer
    out["build_s"] = [(t0, perf_counter())]
    out["verdicts"] = [("build", True)]
    out["artifact_bytes"], out["digest"] = digest(art_dir)
    return out, tracer


def run_calculus(seed, index, art_dir, trace):
    import calculus

    cases = calculus.make_batch(seed, index, CALCULUS_BATCH)
    out = {"setup_s": [(START, perf_counter())]}
    tracer = _start_trace(trace)
    build_s, check_s, case_ms = [], [], []
    verdicts, lines = [], []
    for n, (kind, args) in enumerate(cases):
        name = f"case {n} {kind}"
        t0 = perf_counter()
        try:
            res = calculus.run_case(kind, args)
            t1 = perf_counter()
            ok = calculus.check_case(kind, args, res) is True
            t2 = perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed case is a verdict
            verdicts.append((f"{name} raised {type(exc).__name__}: {exc}", False))
            continue
        build_s.append((t0, t1))
        check_s.append((t1, t2))
        verdicts.append((name, ok))
        if ok:
            case_ms.append((t0, t2))
            lines.append(calculus.report_line(kind, res, ok))
    t0 = perf_counter()
    with open(os.path.join(art_dir, "cases.jsonl"), "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    build_s.append((t0, perf_counter()))
    out.update(build_s=build_s, check_s=check_s, verdicts=verdicts, case_ms=case_ms)
    out["artifact_bytes"], out["digest"] = digest(art_dir)
    return out, tracer


def _start_trace(trace):
    if not trace:
        return None
    from spans import Tracer

    tracer = Tracer()
    tracer.install(("fissile", "calculus"))
    return tracer


def to_seconds(out, clock):
    """Turn the recorded ``perf_counter`` intervals into steady seconds.

    ``setup_s``, ``build_s`` and ``check_s`` become sums, with their wall
    times as ``wall_*``; ``case_ms`` becomes one value per case.
    """
    for key in ("setup_s", "build_s", "check_s"):
        if key in out:
            spans = out[key]
            out[key] = sum(clock.seconds(t0, t1) for t0, t1 in spans)
            out["wall_" + key] = sum(clock.raw_seconds(t0, t1) for t0, t1 in spans)
    if "case_ms" in out:
        out["case_ms"] = [clock.seconds(t0, t1) * 1e3 for t0, t1 in out["case_ms"]]


def main(argv):
    mode, workload, seed, index, trace, work_dir = argv
    art_dir = os.path.join(work_dir, "artifacts")
    os.makedirs(art_dir, exist_ok=True)
    clock = Clock().start()
    try:
        if workload in CONSTRUCT and mode in ("build", "check"):
            out, tracer = run_construct(mode, workload, art_dir, trace == "1")
        elif workload == "calculus" and mode == "build":
            out, tracer = run_calculus(int(seed), int(index), art_dir, trace == "1")
        else:
            raise SystemExit(f"no {mode!r} process for workload {workload!r}")
    finally:
        clock.stop()
    to_seconds(out, clock)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"], out["wedge_parts"] = tracer.counts()
        tracer.write(os.path.join(work_dir, f"spans-{mode}.tsv.gz"))
    with open(os.path.join(work_dir, f"result-{mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
