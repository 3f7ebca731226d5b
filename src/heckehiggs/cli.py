"""Command-line surface.

Every command reads UTF-8 JSON, writes a single JSON report to stdout and a
short human-readable summary to stderr.  Exit codes: 0 all checks pass,
1 mathematical failure (the report still carries certificates and a
reproducing instance), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    CommutationError,
    DegreeBoundError,
    EigenvalueConditionError,
    FiberConditionError,
    InfeasibleBudgetError,
    NonIntegralError,
    NotInCommutantError,
    ParseError,
    RetryExhaustedError,
    UnsupportedRankError,
    ValidationError,
)
from .hecke import HeckeData, HeckePoint, make_presentation, validate
from .higgs import (
    HiggsPair,
    check_commutation,
    check_fiber_condition,
    decompose,
    random_valid_instance,
    reconstruct,
)
from .linalg import mat_identity, mat_mul, solve_right
from .poly import UniPoly, format_unipoly, parse_fraction
from .projline import SplitBundle, TwistedEndo, validate_twisted_endo
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
    EigenvalueVerdict,
    backward_correspondence,
    backward_on_curve,
    curve_of,
    eigenspace_invariance,
    eigenvalue_condition,
    fiber_points,
    forward_on_curve,
    invariant_line_search,
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
    InfeasibleBudgetError,
    UnsupportedRankError,
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
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be a JSON object")
    return doc


def _failure(report: dict, exc: Exception, doc: dict):
    """Finish `report` as a mathematical failure (exit 1) that carries the
    reproducing document."""
    report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, EigenvalueConditionError):
        report["error"]["witnesses"] = list(exc.witnesses)
    report["instance"] = doc
    return report, 1


def _fiber_table(data: HeckeData, fibers: list) -> dict:
    table = {}
    for p, points in zip(data.points, fibers):
        rows = []
        for point in points:
            rows.append(
                {
                    "minimal": format_unipoly(point.field.minimal, "t"),
                    "multiplicity": point.multiplicity,
                    "degree": point.field.degree,
                }
            )
        table[str(p.x)] = rows
    return table


def _eigenvalue_rows(pair, curve, hecke, fiber_verdicts, sign):
    """The rows of `eigenvalue_condition`, in marked-point order.

    Where the fiber equation second(x_i) = lambda_i * first(x_i) holds,
    second - lambda_i * y = lambda_i * (first - y) is nilpotent on the
    generalized eigenspace of each fiber point y.  So there a row is ok for
    sign +1, and for sign -1 exactly when y = 0 (minimal polynomial t);
    `eigenvalue_condition` runs only at the points where the equation fails.
    """
    rows = []
    for p, verdict in zip(hecke.points, fiber_verdicts):
        if not verdict.ok:
            single = HeckeData(hecke.a, hecke.b, [p])
            rows += eigenvalue_condition(pair, curve, single, sign)[1]
            continue
        for point in fiber_points(curve, p.x):
            minimal = format_unipoly(point.field.minimal, "t")
            ok = sign == 1 or minimal == "t"
            rows.append(EigenvalueVerdict(p.x, minimal, point.multiplicity, ok))
    return rows


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
            {"x": str(v.x), "ok": v.ok} for v in fiber_verdicts
        ]
        curve = curve_of(pair.first)
        eig_reports = _eigenvalue_rows(pair, curve, hecke, fiber_verdicts, sign)
        verdicts["eigenvalue"] = all(r.ok for r in eig_reports)
        details["eigenvalue"] = [
            {"x": str(r.x), "minimal": r.minimal, "ok": r.ok, "note": r.note}
            for r in eig_reports
        ]
        # commutation is exact over Q[x], so the fiber maps commute at every
        # x0, and commuting maps preserve each other's generalized
        # eigenspaces with commuting restrictions
        verdicts["eigenspace_invariance"] = verdicts["commutation"] or all(
            eigenspace_invariance(pair, curve, x) for x in _SAMPLE_POINTS
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


# -- selftest ---------------------------------------------------------------


def _random_hecke(rng: random.Random):
    length = rng.choice([0, 1, 1, 2])
    a = rng.randint(1, 2)
    b = rng.randint(max(a, length, 1), 3)
    xs = rng.sample([Fraction(v) for v in range(-3, 4)], length)
    points = []
    for x in xs:
        lam = Fraction(0)
        while lam == 0:
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        points.append((x, lam))
    return HeckeData(a, b, [HeckePoint(x, lam) for x, lam in points])


def _random_bundle(rng: random.Random, length: int) -> SplitBundle:
    r = rng.choice([2, 2, 3])
    if length > 1 or rng.random() < 0.7:
        return SplitBundle([0] * r)
    top = rng.randint(0, 1)
    twists = sorted([top] + [rng.randint(-1, top) for _ in range(r - 1)], reverse=True)
    return SplitBundle(twists)


def _generate_instance(rng: random.Random):
    for _ in range(60):
        data = _random_hecke(rng)
        bundle = _random_bundle(rng, data.length)
        beta_deg = max(data.length - 1, 0)
        budget = min(data.a, data.b - beta_deg)
        if budget < 0:
            continue
        try:
            field = random_valid_instance(
                data, bundle, budget, rng.randint(0, 10**9)
            )
        except (InfeasibleBudgetError, ValidationError):
            continue
        return field
    raise RetryExhaustedError("could not generate a selftest instance")


def _constant_conjugate(endo: TwistedEndo, g, g_inv) -> TwistedEndo:
    return TwistedEndo(
        endo.source, endo.twist, mat_mul(mat_mul(g, endo.entries), g_inv)
    )


def _random_invertible(rng: random.Random, r: int):
    """A random integer matrix g and its inverse; g X = I has no solution
    exactly when g is singular, and then g is drawn again."""
    while True:
        g = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(r)) for _ in range(r)
        )
        inv = solve_right(g, mat_identity(r, Fraction(1)), Fraction(1))
        if inv is not None:
            return g, inv


def _selftest_single(field, rng: random.Random, sign: int):
    """Run every asserted invariant on one certified instance; returns a
    failure description or None."""
    data = field.hecke
    pair = field.pair

    t1, t2 = decompose(field)
    rebuilt = reconstruct(HiggsPair(pair.bundle, t1, t2), data)
    if rebuilt != field:
        return "decompose/reconstruct round trip changed the field"

    ok, _ = check_fiber_condition(pair, data)
    if not ok:
        return "certified instance fails the fiber condition"

    chart = curve_of(pair.first)
    eig_ok, _ = eigenvalue_condition(pair, chart, data, sign)
    if not eig_ok:
        return f"eigenvalue condition fails with sign {sign:+d}"

    for _ in range(10):
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
        if not eigenspace_invariance(pair, chart, x0):
            return f"eigenspace invariance fails at x = {x0}"

    for _ in range(3):
        x0 = Fraction(rng.randint(-5, 5))
        total = Fraction(0)
        for point in fiber_points(chart, x0):
            total += point.multiplicity * point.y.trace()
        if total != chart.char_coefficients[0].evaluate(x0):
            return f"fiber trace identity fails at x = {x0}"

    scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    scaled_pair = HiggsPair(pair.bundle, pair.first.scale(scale), pair.second.scale(scale))
    ok, _ = check_fiber_condition(scaled_pair, data)
    if not ok:
        return "fiber condition is not preserved under scalar multiples"

    if len(set(pair.bundle.twists)) == 1:
        g, g_inv = _random_invertible(rng, pair.rank)
        conj = HiggsPair(
            pair.bundle,
            _constant_conjugate(pair.first, g, g_inv),
            _constant_conjugate(pair.second, g, g_inv),
        )
        ok, _ = check_fiber_condition(conj, data)
        if not ok:
            return "fiber condition is not conjugation invariant"
        if curve_of(conj.first).chi != chart.chi:
            return "characteristic coefficients are not conjugation invariant"

    integral, _ = is_integral(chart)
    if pair.rank == 2:
        line = invariant_line_search(pair, chart)
        if integral and line is not None:
            return "stable instance admits an invariant line"
        if not integral and line is None:
            return "non-integral rank-2 curve without an invariant line"

    if integral:
        fibers = [fiber_points(chart, hp.x) for hp in data.points]
        spectral = forward_on_curve(field, chart, fibers, sign)
        # the chart is integral and psi a polynomial: the input checks of
        # the correspondences hold, so their bodies run on the known fibers
        if spectral.psi_denominator == UniPoly.one():
            try:
                back = backward_on_curve(spectral, data, sign)
            except DegreeBoundError:
                back = None
            if back is not None:
                if curve_of(back.pair.first).chi != chart.chi:
                    return "spectral round trip changed the rank-1 data"
                again = forward_on_curve(back, chart, fibers, sign)
                if again != spectral:
                    return "spectral round trip changed the rank-1 data"
                back2 = backward_on_curve(again, data, sign)
                if back2 != back:
                    return "companion-model round trip changed the field"
    return None


def cmd_selftest(seed: int, count: int, sign: int):
    rng = random.Random(seed)
    report = {
        "command": "selftest",
        "version": __version__,
        "seed": seed,
        "sign": sign,
        "count": count,
    }
    passed = 0
    previous = None
    for index in range(count):
        field = _generate_instance(rng)
        failure = _selftest_single(field, rng, sign)
        if failure is None and previous is not None and field != previous:
            if decompose(field) == decompose(previous) and field.hecke == previous.hecke:
                failure = "distinct fields share a decomposition"
        if failure is not None:
            report["passed"] = passed
            report["failure"] = {"index": index, "reason": failure}
            report["instance"] = instance_to_json(field.hecke, field.pair)
            return report, 1
        previous = field
        passed += 1
    report["passed"] = passed
    return report, 0


# -- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError, so that `main` prints it as an
    input report; subparsers inherit the class."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heckehiggs",
        description="exact checks and spectral correspondence for twisted Higgs pairs",
    )
    parser.add_argument("--sign", type=int, choices=[1, -1], default=1,
                        help="marked-point eigenvalue convention (default +1)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit the timing field for byte-reproducible reports")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("check", "reconstruct", "spectral"):
        p = sub.add_parser(name)
        p.add_argument("document", help="instance document path, or - for stdin")

    p = sub.add_parser("build")
    p.add_argument("document", help="document with 'hecke' and 'spectral' sections")

    p = sub.add_parser("hecke-make")
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.add_argument("length", type=int)
    p.add_argument("--pool", default="0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
                   help="comma-separated rational candidates for marked points")

    p = sub.add_parser("selftest")
    p.add_argument("--count", type=int, default=50)

    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
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
        elif args.command == "selftest":
            report, code = cmd_selftest(args.seed, args.count, args.sign)
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
