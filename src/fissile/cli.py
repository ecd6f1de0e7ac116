"""Command line driver: verification suites, the main construction with its
file checker, and the word calculus.

One JSON line per case goes to stdout; a human summary goes to stderr.
Exit codes: 0 all passed, 1 some case failed, 2 usage or parse error.
"""

import argparse
import json
import re
import sys
import time

from .artifacts import (
    ArtifactError,
    check_pair_artifacts,
    check_q_artifacts,
    write_pair_artifacts,
    write_q_artifacts,
)
from .brunnian import is_brunnian, lcs_degree, magnus, reduce_word
from .layouts import GuardExceeded
from .simplicial import SimplicialError
from .suites import SUITES, SUITE_NAMES
from .wedge import VerificationError, construct_p, construct_q

WORD_TOKEN = re.compile(r"^x(\d+)(\^-1)?$")


class WordSyntaxError(ValueError):
    pass


def parse_word(text, alphabet=None):
    """The reduced word of a text such as "x1 x2^-1"; with an alphabet size
    n, every letter must be one of x1..xn."""
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


def cmd_verify(args):
    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    for name in ("max_a", "max_i", "max_e", "cases", "seed", "bound"):
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    reports = []
    gen = SUITES[args.suite](**kwargs)
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


# What each construct command does with the built pair table, and which
# checker each check command runs.
FINISH = {"construct-pj": write_pair_artifacts, "construct-q": _finish_q}
CHECKERS = {"check-pj": check_pair_artifacts, "check-q": check_q_artifacts}


def cmd_construct(args):
    report = {
        "suite": args.command,
        "case": {"i": args.i, "e": args.e, "out": args.out},
    }
    t0 = time.monotonic()
    try:
        result = construct_p(tuple(range(1, args.i + 1)), tuple(range(1, args.e + 1)))
        FINISH[args.command](result, args.out)
        report["verdict"] = "pass"
        if args.out:
            report["artifacts"] = [args.out]
    except GuardExceeded:
        report["verdict"] = "skipped-guard"
    except VerificationError as exc:
        report["verdict"] = "fail"
        report["error"] = str(exc)
    report["ms"] = int((time.monotonic() - t0) * 1000)
    _emit(report)
    return 1 if _summary([report]) else 0


def cmd_check(args):
    """Run an artifact checker; structural corruption counts as failure."""
    t0 = time.monotonic()
    try:
        checks = CHECKERS[args.command](args.in_dir)
    except (
        ArtifactError, SimplicialError, AssertionError, KeyError, OSError, ValueError
    ) as exc:
        checks = [(f"artifact-structure ({exc})", False)]
    reports = []
    for name, ok in checks:
        reports.append(
            {
                "suite": args.command,
                "case": {"check": name, "in": args.in_dir},
                "verdict": "pass" if ok else "fail",
                "ms": int((time.monotonic() - t0) * 1000),
            }
        )
        _emit(reports[-1])
    return 1 if _summary(reports) else 0


def cmd_check_brunnian(args):
    t0 = time.monotonic()
    word = parse_word(args.word, args.alphabet)
    alphabet = tuple(range(1, args.alphabet + 1))
    verdict_value = is_brunnian(word, alphabet)
    report = {
        "suite": "check-brunnian",
        "case": {"word": args.word, "alphabet": args.alphabet},
        "brunnian": verdict_value,
        "verdict": "pass",
        "ms": int((time.monotonic() - t0) * 1000),
    }
    _emit(report)
    _summary([report])
    return 0


def cmd_magnus(args):
    t0 = time.monotonic()
    word = parse_word(args.word)
    series = magnus(word, args.degree)
    terms = [
        {"monomial": list(mon), "coeff": c}
        for mon, c in sorted(series.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    report = {
        "suite": "magnus",
        "case": {"word": args.word, "degree": args.degree},
        "terms": terms,
        "verdict": "pass",
        "ms": int((time.monotonic() - t0) * 1000),
    }
    _emit(report)
    _summary([report])
    return 0


def cmd_lcs(args):
    t0 = time.monotonic()
    word = parse_word(args.word)
    depth = lcs_degree(word, args.max_degree)
    report = {
        "suite": "lcs",
        "case": {"word": args.word, "max_degree": args.max_degree},
        "depth": depth,
        "at_least": args.max_degree + 1 if depth is None and word else None,
        "verdict": "pass",
        "ms": int((time.monotonic() - t0) * 1000),
    }
    _emit(report)
    _summary([report])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fissile",
        description="exact combinatorial calculus with checkable certificates",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--max-a", dest="max_a", type=int, default=None)
    p.add_argument("--max-i", dest="max_i", type=int, default=None)
    p.add_argument("--max-e", dest="max_e", type=int, default=None)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)
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
    p.add_argument("--alphabet", type=int, required=True)
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


if __name__ == "__main__":
    sys.exit(main())
