"""Command-line surface.

Every command reads UTF-8 JSON, writes a single JSON report to stdout and a
short human-readable summary to stderr.  Exit codes: 0 all checks pass,
1 mathematical failure (the report still carries certificates and a
reproducing instance), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    CommutationError,
    DegreeBoundError,
    EigenvalueConditionError,
    FiberConditionError,
    NonIntegralError,
    NotInCommutantError,
    ParseError,
    RetryExhaustedError,
    ValidationError,
)
from .hecke import HeckeData, make_presentation, require_valid, validate
from .higgs import HiggsPair, check_commutation, check_fiber_condition, reconstruct
from .linalg import mat_mul
from .poly import format_unipoly, parse_fraction
from .projline import evaluate_endo, validate_twisted_endo
from .serialize import (
    hecke_from_json,
    hecke_to_json,
    instance_from_json,
    instance_parts_from_json,
    instance_to_json,
    spectral_curve_to_json,
    spectral_data_from_json,
    spectral_data_to_json,
)
from .spectral import (
    backward_correspondence,
    curve_of,
    eigenvalue_condition,
    fiber_points,
    forward_on_curve,
    is_integral,
)

_MATH_ERRORS = (
    CommutationError,
    FiberConditionError,
    NonIntegralError,
    EigenvalueConditionError,
    DegreeBoundError,
    NotInCommutantError,
    RetryExhaustedError,
)

_SAMPLE_POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past CPython's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nesting too deep") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be a JSON object")
    return doc


def _failure(report: dict, exc: Exception, doc: dict):
    """Finish `report` as a mathematical failure (exit 1) that carries the
    reproducing document, plus the eigenvalue witnesses or the integrality
    certificate the error holds."""
    report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, EigenvalueConditionError):
        report["error"]["witnesses"] = list(exc.witnesses)
    elif isinstance(exc, NonIntegralError):
        report["error"]["certificate"] = exc.certificate
    report["instance"] = doc
    return report, 1


def _fiber_table(data: HeckeData, fibers: list) -> dict:
    table = {}
    for p, points in zip(data.points, fibers):
        rows = []
        for point in points:
            rows.append(
                {
                    "minimal": format_unipoly(point.minimal, "t"),
                    "multiplicity": point.multiplicity,
                    "degree": point.minimal.degree,
                }
            )
        table[str(p.x)] = rows
    return table


def cmd_check(doc: dict, sign: int):
    hecke, bundle, first, second, _ = instance_parts_from_json(doc)
    verdicts = {}
    details = {}
    problems = validate(hecke)
    verdicts["hecke_valid"] = not problems
    if problems:
        details["hecke"] = problems
    v1 = validate_twisted_endo(first)
    v2 = validate_twisted_endo(second)
    verdicts["theta_bounds"] = not v1
    verdicts["theta_prime_bounds"] = not v2
    if v1 or v2:
        details["bounds"] = [v.describe() for v in v1 + v2]
    structural = all(verdicts.values())
    if structural:
        pair = HiggsPair(bundle, first, second)
        verdicts["commutation"] = check_commutation(pair)
        fiber_ok, fiber_verdicts = check_fiber_condition(pair, hecke)
        verdicts["fiber"] = fiber_ok
        details["fiber"] = [
            {"x": str(v.point.x), "ok": v.ok} for v in fiber_verdicts
        ]
        verdicts["eigenvalue"], eig_reports = eigenvalue_condition(pair, fiber_verdicts, sign)
        details["eigenvalue"] = [
            {"x": str(r.x), "minimal": r.minimal, "ok": r.ok, "note": r.note}
            for r in eig_reports
        ]
        # the second fiber map at x0 preserves every generalized eigenspace of
        # the first, with commuting restrictions, exactly when the two commute:
        # those eigenspaces span the fiber, and Galois conjugation carries the
        # condition from one root of a fiber factor to all of them.  Evaluation
        # is a ring map, so this is the commutator vanishing at x0
        fibers = ((evaluate_endo(first, x), evaluate_endo(second, x)) for x in _SAMPLE_POINTS)
        verdicts["eigenspace_invariance"] = verdicts["commutation"] or all(
            mat_mul(a, b) == mat_mul(b, a) for a, b in fibers
        )
        details["invariance_samples"] = [str(x) for x in _SAMPLE_POINTS]
    ok = all(verdicts.values())
    report = {
        "command": "check",
        "version": __version__,
        "sign": sign,
        "verdicts": verdicts,
        "details": details,
    }
    if not ok:
        report["instance"] = doc
    return report, 0 if ok else 1


def cmd_reconstruct(doc: dict, sign: int):
    hecke, pair, _ = instance_from_json(doc)
    report = {"command": "reconstruct", "version": __version__, "sign": sign}
    try:
        field = reconstruct(pair, hecke)
    except CommutationError as exc:
        report["error"] = {"kind": "commutation", "message": str(exc)}
        report["instance"] = doc
        return report, 1
    except FiberConditionError as exc:
        report["error"] = {
            "kind": "fiber",
            "message": str(exc),
            "points": [str(x) for x in exc.points],
        }
        report["instance"] = doc
        return report, 1
    report["certificate"] = field.certificate
    return report, 0


def cmd_spectral(doc: dict, sign: int):
    hecke, pair, _ = instance_from_json(doc)
    require_valid(hecke)
    report = {"command": "spectral", "version": __version__, "sign": sign}
    curve = curve_of(pair.first)
    report["char_coefficients"] = [format_unipoly(s) for s in curve.char_coefficients]
    report["curve"] = spectral_curve_to_json(curve)
    integral, certificate = is_integral(curve)
    report["integral"] = integral
    report["certificate"] = certificate
    fibers = [fiber_points(curve, p.x) for p in hecke.points]
    report["fibers"] = _fiber_table(hecke, fibers)
    if not integral:
        report["instance"] = doc
        return report, 1
    try:
        field = reconstruct(pair, hecke)
        spectral = forward_on_curve(field, curve, fibers, sign)
    except _MATH_ERRORS as exc:
        return _failure(report, exc, doc)
    report["spectral"] = spectral_data_to_json(spectral)
    # an integral spectral curve certifies stability
    report["stability"] = "Stable"
    return report, 0


def cmd_build(doc: dict, sign: int):
    hecke = hecke_from_json(doc["hecke"]) if "hecke" in doc else None
    if hecke is None:
        raise ParseError("build needs a 'hecke' section")
    if "spectral" not in doc:
        raise ParseError("build needs a 'spectral' section")
    spectral = spectral_data_from_json(doc["spectral"])
    report = {"command": "build", "version": __version__, "sign": sign}
    try:
        field = backward_correspondence(spectral, hecke, sign)
    except _MATH_ERRORS as exc:
        return _failure(report, exc, doc)
    report["instance"] = instance_to_json(field.hecke, field.pair, spectral)
    report["certificate"] = field.certificate
    return report, 0


def cmd_hecke_make(c: int, d: int, length: int, pool, seed: int):
    report = {"command": "hecke-make", "version": __version__, "seed": seed}
    try:
        data = make_presentation(c, d, length, pool, seed)
    except RetryExhaustedError as exc:
        report["error"] = {"kind": "retry-exhausted", "message": str(exc)}
        return report, 1
    report["hecke"] = hecke_to_json(data)
    # make_presentation returns only once splitting_type(data) == (c, d)
    report["splitting"] = [c, d]
    return report, 0


# -- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError, so that `main` prints it as an
    input report; subparsers inherit the class.  `--help` prints and exits 0
    through argparse."""

    def error(self, message):
        raise ParseError(message)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """An integer argument in the README grammar: an optional sign and ASCII
    digits only, so `int`'s Unicode digits, underscores and whitespace are
    usage errors."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer in ASCII digits: {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # past CPython's int-string digit limit
        raise argparse.ArgumentTypeError(f"integer of {len(text)} digits is too long") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heckehiggs",
        description="exact checks and spectral correspondence for twisted Higgs pairs",
    )
    parser.add_argument("--sign", type=_integer, choices=[1, -1], default=1,
                        help="marked-point eigenvalue convention (default +1)")
    parser.add_argument("--seed", type=_integer, default=0, help="seed for hecke-make")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit the timing field for byte-reproducible reports")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("check", "reconstruct", "spectral"):
        p = sub.add_parser(name)
        p.add_argument("document", help="instance document path, or - for stdin")

    p = sub.add_parser("build")
    p.add_argument("document", help="document with 'hecke' and 'spectral' sections")

    p = sub.add_parser("hecke-make")
    p.add_argument("c", type=_integer)
    p.add_argument("d", type=_integer)
    p.add_argument("length", type=_integer)
    p.add_argument("--pool", default="0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
                   help="comma-separated rational candidates for marked points")

    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = None
    try:
        args = _PARSER.parse_args(argv)
        start = time.monotonic()
        if args.command == "check":
            report, code = cmd_check(_load_document(args.document), args.sign)
        elif args.command == "reconstruct":
            report, code = cmd_reconstruct(_load_document(args.document), args.sign)
        elif args.command == "spectral":
            report, code = cmd_spectral(_load_document(args.document), args.sign)
        elif args.command == "build":
            report, code = cmd_build(_load_document(args.document), args.sign)
        elif args.command == "hecke-make":
            pool = [parse_fraction(v) for v in args.pool.split(",") if v.strip()]
            report, code = cmd_hecke_make(args.c, args.d, args.length, pool, args.seed)
        else:  # pragma: no cover
            raise ParseError(f"unknown command {args.command!r}")
    except (ParseError, ValidationError, OSError) as exc:
        report = {
            "command": args.command if args else None,
            "version": __version__,
            "error": {"kind": "input", "message": str(exc)},
        }
        print(json.dumps(report, indent=2))
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as exc:
        report = {
            "command": args.command,
            "version": __version__,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(report, indent=2))
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    if not args.no_timing:
        report["timing_ms"] = round((time.monotonic() - start) * 1000, 3)
    print(json.dumps(report, indent=2))
    summary = "ok" if code == 0 else "FAILED"
    print(f"{args.command}: {summary}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
