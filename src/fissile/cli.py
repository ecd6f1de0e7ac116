"""Command line driver: verification suites, the main construction with its
file checker, and the word calculus.

One JSON line per case goes to stdout; a human summary goes to stderr.
Exit codes: 0 all passed, 1 some case failed, 2 usage, parse or guard setting error.
"""

import argparse
import json
import os
import re
import sys
import time
from functools import partial

from .artifacts import (
    ArtifactError,
    check_pair_artifacts,
    check_q_artifacts,
    read_manifest,
    write_pair_artifacts,
    write_q_artifacts,
)
from .layouts import GuardExceeded, GuardSettingError
from .simplicial import SimplicialError
from .wedge import VerificationError, construction_guard, construct_p, construct_q
from .witnesses import WitnessReport

# a letter is x and its index in canonical decimal: x0, x1, x12, never x01
WORD_TOKEN = re.compile(r"^x(0|[1-9][0-9]*)(\^-1)?$")


class WordSyntaxError(ValueError):
    pass


def parse_word(text, alphabet=None):
    """The reduced word of a text such as "x1 x2^-1"; with an alphabet size
    n, every letter must be one of x1..xn."""
    from .brunnian import reduce_word

    letters = []
    for pos, token in enumerate(text.split()):
        m = WORD_TOKEN.match(token)
        if not m:
            raise WordSyntaxError(
                f"cannot parse token {token!r} at position {pos}"
            )
        letter = int(m.group(1))
        if alphabet is not None and not 1 <= letter <= alphabet:
            raise WordSyntaxError(
                f"letter x{letter} at position {pos} is outside the alphabet "
                f"of size {alphabet}"
            )
        letters.append((letter, -1 if m.group(2) else 1))
    return reduce_word(letters)


def positive_int(text):
    """Argument type for sizes and degrees: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def non_negative_int(text):
    """Argument type for sizes that may be 0: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _emit(report):
    print(json.dumps(report, sort_keys=True), file=sys.stdout, flush=True)


def _summary(reports):
    passed = sum(1 for r in reports if r["verdict"] == "pass")
    failed = sum(1 for r in reports if r["verdict"] == "fail")
    skipped = sum(1 for r in reports if r["verdict"] == "skipped-guard")
    print(
        f"{passed} passed, {failed} failed, {skipped} skipped",
        file=sys.stderr,
    )
    return failed


# The options of ``verify``, each passed to a suite that names it as a
# parameter.
VERIFY_OPTIONS = ("max_a", "max_i", "max_e", "cases", "seed", "bound")


def _flag(name):
    return "--" + name.replace("_", "-")


def cmd_verify(args):
    from inspect import signature

    from .suites import SUITE_NAMES, SUITES

    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    suite = SUITES[args.suite]
    takes = [name for name in VERIFY_OPTIONS if name in signature(suite).parameters]
    kwargs = {
        name: getattr(args, name)
        for name in VERIFY_OPTIONS
        if getattr(args, name) is not None
    }
    refused = [name for name in kwargs if name not in takes]
    if refused:
        options = "".join(f" [{_flag(name)} N]" for name in takes)
        print(
            f"usage: fissile verify {args.suite}{options}\n"
            f"fissile verify: error: the {args.suite} suite takes no "
            f"{', '.join(map(_flag, refused))}",
            file=sys.stderr,
        )
        return 2
    reports = []
    gen = suite(**kwargs)
    while True:
        t0 = time.monotonic()
        try:
            case, ok = next(gen)
            verdict = "pass" if ok else "fail"
        except StopIteration:
            break
        except GuardExceeded as exc:
            case, verdict = {"guard": str(exc)}, "skipped-guard"
        report = {
            "suite": args.suite,
            "case": case,
            "verdict": verdict,
            "ms": int((time.monotonic() - t0) * 1000),
        }
        reports.append(report)
        _emit(report)
    return 1 if _summary(reports) else 0


def _finish_q(result, out):
    record = construct_q(result)
    if out:
        write_q_artifacts(result, record, out)


def _guarded_check(kind, checker, in_dir):
    """The checks of ``checker`` on a dump of this kind, after its manifest
    sizes pass the construction guards: GuardExceeded before any build."""
    manifest = read_manifest(in_dir, kind)
    construction_guard(manifest["i"], manifest["e"])
    return checker(in_dir)


# What each construct command does with the built pair table, and which
# checker each check command runs.
FINISH = {"construct-pj": write_pair_artifacts, "construct-q": _finish_q}
CHECKERS = {
    "check-pj": partial(_guarded_check, "pair-construction", check_pair_artifacts),
    "check-q": partial(_guarded_check, "almost-fissile", check_q_artifacts),
}


def cmd_construct(args):
    report = {
        "suite": args.command,
        "case": {"i": args.i, "e": args.e, "out": args.out},
    }
    t0 = time.monotonic()
    try:
        if args.out:
            # fail on an unwritable --out before building what cannot be written
            os.makedirs(args.out, exist_ok=True)
        result = construct_p(tuple(range(1, args.i + 1)), tuple(range(1, args.e + 1)))
        FINISH[args.command](result, args.out)
        report["verdict"] = "pass"
        if args.out:
            report["artifacts"] = [args.out]
    except GuardExceeded:
        report["verdict"] = "skipped-guard"
    except (VerificationError, OSError, MemoryError) as exc:
        # an unwritable --out raises an OSError whose message names the path
        report["verdict"] = "fail"
        report["error"] = "memory" if isinstance(exc, MemoryError) else str(exc)
    report["ms"] = int((time.monotonic() - t0) * 1000)
    _emit(report)
    return 1 if _summary([report]) else 0


def cmd_check(args):
    """Run an artifact checker; structural corruption counts as failure.
    Every fail line carries the diagnostic of its check's report.  Only
    the errors that a bad dump raises are caught, so a fault of the program
    still ends in a traceback."""
    t0 = time.monotonic()
    error = {}
    try:
        checks = CHECKERS[args.command](args.in_dir)
    except (ArtifactError, SimplicialError, GuardExceeded, OSError) as exc:
        # a dump past the guards fails: a check that verified nothing must
        # not pass
        checks = [(f"artifact-structure ({exc})", WitnessReport(str(exc)))]
    except MemoryError:
        checks = [("artifact-check", WitnessReport("out of memory"))]
        error = {"error": "memory"}
    reports = []
    for name, ok in checks:
        reports.append(
            {
                "suite": args.command,
                "case": {"check": name, "in": args.in_dir},
                "verdict": "pass" if ok else "fail",
                **error,
                "ms": int((time.monotonic() - t0) * 1000),
            }
        )
        if not ok:
            reports[-1]["diagnostic"] = ok.diagnostic
        _emit(reports[-1])
    return 1 if _summary(reports) else 0


def _one_report(suite, case, t0, **fields):
    """Emit the single passing report line of a word command."""
    report = {"suite": suite, "case": case, **fields, "verdict": "pass"}
    report["ms"] = int((time.monotonic() - t0) * 1000)
    _emit(report)
    _summary([report])
    return 0


def cmd_check_brunnian(args):
    from .brunnian import is_brunnian

    t0 = time.monotonic()
    word = parse_word(args.word, args.alphabet)
    alphabet = tuple(range(1, args.alphabet + 1))
    return _one_report(
        "check-brunnian",
        {"word": args.word, "alphabet": args.alphabet},
        t0,
        brunnian=is_brunnian(word, alphabet),
    )


def cmd_magnus(args):
    from .brunnian import magnus

    t0 = time.monotonic()
    word = parse_word(args.word)
    series = magnus(word, args.degree)
    terms = [
        {"monomial": list(mon), "coeff": c}
        for mon, c in sorted(series.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return _one_report(
        "magnus", {"word": args.word, "degree": args.degree}, t0, terms=terms
    )


def cmd_lcs(args):
    from .brunnian import lcs_degree

    t0 = time.monotonic()
    word = parse_word(args.word)
    depth = lcs_degree(word, args.max_degree)
    return _one_report(
        "lcs",
        {"word": args.word, "max_degree": args.max_degree},
        t0,
        depth=depth,
        at_least=args.max_degree + 1 if depth is None and word else None,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fissile",
        description="exact combinatorial calculus with independently checkable results",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--max-a", dest="max_a", type=positive_int, default=None)
    p.add_argument("--max-i", dest="max_i", type=non_negative_int, default=None)
    p.add_argument("--max-e", dest="max_e", type=positive_int, default=None)
    p.add_argument("--cases", type=positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bound", type=non_negative_int, default=None)
    p.set_defaults(func=cmd_verify)

    for name, help_text, out_required in (
        ("construct-pj", "build the pair table and dump it", True),
        ("construct-q", "build the alternating combination", False),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--i", type=positive_int, required=True)
        p.add_argument("--e", type=positive_int, required=True)
        p.add_argument("--out", required=out_required, default=None)
        p.set_defaults(func=cmd_construct)

    for name, help_text in (
        ("check-pj", "re-verify a pair dump from files"),
        ("check-q", "re-verify an alternating-combination dump"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="in_dir", required=True)
        p.set_defaults(func=cmd_check)

    p = sub.add_parser("check-brunnian", help="test vanishing under deletions")
    p.add_argument("--word", required=True)
    p.add_argument("--alphabet", type=non_negative_int, required=True)
    p.set_defaults(func=cmd_check_brunnian)

    p = sub.add_parser("magnus", help="truncated power-series expansion")
    p.add_argument("--word", required=True)
    p.add_argument("--degree", type=positive_int, required=True)
    p.set_defaults(func=cmd_magnus)

    p = sub.add_parser("lcs", help="lower-central depth via the expansion")
    p.add_argument("--word", required=True)
    p.add_argument(
        "--max-degree", dest="max_degree", type=positive_int, required=True
    )
    p.set_defaults(func=cmd_lcs)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except WordSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GuardSettingError as exc:
        print(f"guard setting error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
