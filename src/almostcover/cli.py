"""Command-line front end.

Subcommands: ``gb`` (vanishing-ideal basis and standard monomials),
``bound`` (lower bounds), ``solve`` (exact minimum almost covers) and
``verify`` (theorem suites).  Inputs are point-set files or inline family
specs; ``--json`` emits a stable schema-1 document with every exact number
serialized as a string.  Exit codes: 0 success, 1 a ``verify`` check
failed, 2 usage or parse error, 3 internal error (an invariant violation or
a program fault) or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import (
    certificate_lower_bound,
    counting_lower_bound,
    cube_counting_lower_bound,
    lower_bounds,
)
from .cover import ac_numbers, min_almost_cover
from .errors import InvariantError
from .families import FamilySpec, generate, symmetry_generators
from .fields import parse_field_name, scalar_field
from .pointfile import load_pointset
from .polyring import mono_text
from .vanishing import buchberger_moller
from .verify import SUITES, run_suite

DEFAULT_BUDGET = 10_000_000

SCALE_NOTE = (
    "The exact solver enumerates the maximal affinely closed subsets, and "
    "their number, more than |V|, sets the cost. On sets whose certificate a "
    "cover meets, one point of cube:6 or perm:5 (64 and 120 points) takes "
    "about a minute; the level families take longer at the same size, "
    "such as vnk:7:3 (64 points, 336 s at one point)."
)


def _load_input(args):
    if args.input and args.family:
        raise ValueError("give either a file or --family, not both")
    if not args.input and not args.family:
        raise ValueError("an input file or --family spec is required")
    if args.family:
        field = parse_field_name(args.field) if args.field else None
        spec = FamilySpec.parse(args.family, field=field)
        V = generate(spec)
        return V, spec, {"family": spec.describe()}
    if args.field:
        raise ValueError("--field applies only to --family inputs")
    V = load_pointset(args.input)
    return V, None, {"file": args.input}


def _document(command, source, V, results, args, started, **extra):
    doc = {
        "schema": 1,
        "command": command,
        "input": source,
        "field": V.field.name if V is not None else None,
        "dim": V.dim if V is not None else None,
        "results": results,
    }
    doc.update(extra)
    if not args.no_timings:
        doc["timings"] = {"total_s": f"{time.perf_counter() - started:.3f}"}
    return doc


def _emit(doc, args, human_lines):
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in human_lines:
            print(line)


def _solution_payload(V, sol):
    return {
        "excluded": [V.field.format(x) for x in sol.excluded],
        "size": str(sol.size),
        "hyperplanes": [h.as_text() for h in sol.hyperplanes],
        "lower_bound_used": str(sol.lower_bound_used),
        "optimal": sol.optimal,
    }


def _bound_payload(report):
    payload = {"method": report.method, "value": str(report.value)}
    if report.certificate_point is not None:
        field = scalar_field(report.certificate_point[0])
        payload["certificate_point"] = [field.format(x) for x in report.certificate_point]
    payload["details"] = {k: str(v) for k, v in report.details.items()}
    return payload


def cmd_gb(args) -> int:
    started = time.perf_counter()
    V, _, source = _load_input(args)
    data = buchberger_moller(V)
    results = {
        "size": str(len(V)),
        "basis": [g.text() for g in data.basis],
        "standard_monomials": [mono_text(m) for m in data.sm],
    }
    doc = _document("gb", source, V, results, args, started)
    lines = [f"point set: {len(V)} points, dim {V.dim}, field {V.field.name}"]
    lines.append(f"reduced basis ({len(data.basis)} polynomials):")
    lines.extend(f"  {g.text()}" for g in data.basis)
    lines.append(f"standard monomials ({len(data.sm)}):")
    lines.append("  " + ", ".join(mono_text(m) for m in data.sm))
    _emit(doc, args, lines)
    return 0


def cmd_bound(args) -> int:
    started = time.perf_counter()
    V, _, source = _load_input(args)
    if args.point is not None:
        if args.method in ("count", "cube"):
            raise ValueError(f"--point applies only to --method cert or all, not {args.method}")
        if not 0 <= args.point < len(V):
            raise ValueError(f"point index {args.point} out of range (0..{len(V) - 1})")
    point = V.points[args.point] if args.point is not None else None
    chain = None
    if args.method == "all":
        reports, chain = lower_bounds(V, point)
    elif args.method == "count":
        reports = [counting_lower_bound(V.dim, len(V))]
    elif args.method == "cube":
        if not V.is_zero_one():
            raise ValueError("the cube counting bound needs a 0-1 point set")
        reports = [cube_counting_lower_bound(V.dim, len(V))]
    else:
        reports = [certificate_lower_bound(V, point)]
    results = {}
    lines = [f"point set: {len(V)} points, dim {V.dim}, field {V.field.name}"]
    for report in reports:
        results[report.method] = _bound_payload(report)
        rational = f" (rational {report.details['rational']})" if report.method == "cor_e" else ""
        lines.append(f"{report.method}: lower bound {report.value}{rational}")
        if report.certificate_point is not None:
            lines.append(f"  at point {V.format_point(report.certificate_point)}")
    if chain is not None:
        if any(a > b for a, b in zip(chain, chain[1:])):
            raise InvariantError("bound ordering chain violated")
        results["ordering_chain"] = {"values": [str(x) for x in chain], "holds": True}
        lines.append(f"ordering chain {' <= '.join(map(str, chain))}: ok")
    doc = _document("bound", source, V, results, args, started)
    _emit(doc, args, lines)
    return 0


def cmd_solve(args) -> int:
    started = time.perf_counter()
    V, spec, source = _load_input(args)
    if args.budget < 0:
        raise ValueError(f"--budget must be 0 (unlimited) or positive, got {args.budget}")
    if args.all and args.point is not None:
        raise ValueError("choose --point IDX or --all, not both")
    if args.symmetry and not args.all:
        raise ValueError("--symmetry applies only to --all")
    budget = args.budget or None
    lines = [f"point set: {len(V)} points, dim {V.dim}, field {V.field.name}"]
    warning = None
    if args.all:
        generators = None
        if args.symmetry:
            if spec is None:
                raise ValueError("--symmetry needs a --family input")
            generators = symmetry_generators(spec)
        numbers = ac_numbers(V, budget=budget, generators=generators, mode=args.mode)
        results = {
            "ac_max": str(numbers.ac_max),
            "ac_min": str(numbers.ac_min),
            "per_point": [str(v) for v in numbers.per_point],
            "optimal": numbers.optimal,
            "covers": {
                str(idx): _solution_payload(V, sol)
                for idx, sol in sorted(numbers.solutions.items())
            },
        }
        if numbers.orbits is not None:
            results["orbits"] = [list(orbit) for orbit in numbers.orbits.orbits]
            results["transitive"] = numbers.orbits.is_transitive
        if not numbers.optimal:
            warning = "budget exhausted on at least one point; values are upper bounds"
        lines.append(f"AC(V) = {numbers.ac_max}   ac(V) = {numbers.ac_min}")
        lines.append("per-point cover numbers:")
        for idx, value in enumerate(numbers.per_point):
            lines.append(f"  {idx}: {V.format_point(V.points[idx])} -> {value}")
    else:
        if args.point is None:
            raise ValueError("choose --point IDX or --all")
        if not 0 <= args.point < len(V):
            raise ValueError(f"point index {args.point} out of range (0..{len(V) - 1})")
        sol = min_almost_cover(V, V.points[args.point], budget=budget, mode=args.mode)
        results = _solution_payload(V, sol)
        if not sol.optimal:
            warning = "budget exhausted; the size is an upper bound"
        lines.append(
            f"point {args.point} {V.format_point(sol.excluded)}: cover size {sol.size}"
            f" ({'optimal' if sol.optimal else 'best found'})"
        )
        lines.extend(f"  {h.as_text()}" for h in sol.hyperplanes)
        lines.append(f"certificate lower bound {sol.lower_bound_used}")
    extra = {"optimal": results.get("optimal", True)}
    if warning:
        extra["warning"] = warning
        lines.append(f"warning: {warning}")
    doc = _document("solve", source, V, results, args, started, **extra)
    _emit(doc, args, lines)
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    checks = run_suite(args.suite, max_n=args.max_n)
    if not checks:
        raise ValueError(f"--max-n {args.max_n} leaves suite {args.suite} with no checks")
    results = {
        "suite": args.suite,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "passed": sum(1 for c in checks if c.passed),
        "failed": sum(1 for c in checks if not c.passed),
    }
    lines = [f"suite {args.suite}: {SUITES[args.suite][0]}"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name}" + (f" ({c.detail})" if c.detail else ""))
    lines.append(f"{results['passed']} passed, {results['failed']} failed")
    doc = _document("verify", {"suite": args.suite}, None, results, args, started)
    _emit(doc, args, lines)
    return 0 if results["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almostcover",
        description="Exact Groebner bases of vanishing ideals and minimum "
        "almost covers of finite point sets by affine hyperplanes.",
        epilog=SCALE_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", help="point set file")
            p.add_argument("--family", help="inline family spec, e.g. vnk:3:1 or ag:2:3")
            p.add_argument("--field", help="field for --family: rational or gf:<p>")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument(
            "--no-timings", action="store_true", help="omit timings for reproducible output"
        )

    p_gb = sub.add_parser("gb", help="reduced basis and standard monomials")
    add_common(p_gb)
    p_gb.set_defaults(handler=cmd_gb)

    p_bound = sub.add_parser("bound", help="lower bounds on the cover numbers")
    add_common(p_bound)
    p_bound.add_argument(
        "--method", choices=("count", "cube", "cert", "all"), default="all"
    )
    p_bound.add_argument("--point", type=int, help="point index for the certificate bound")
    p_bound.set_defaults(handler=cmd_bound)

    p_solve = sub.add_parser(
        "solve", help="exact minimum almost covers", epilog=SCALE_NOTE
    )
    add_common(p_solve)
    p_solve.add_argument("--point", type=int, help="index of the excluded point")
    p_solve.add_argument("--all", action="store_true", help="solve every point")
    p_solve.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="search node limit (0 = unlimited)"
    )
    p_solve.add_argument(
        "--mode",
        choices=("closed", "hyperplanes"),
        default="closed",
        help="closed-set search, or exhaustive hyperplanes over GF(p)",
    )
    p_solve.add_argument(
        "--symmetry",
        action="store_true",
        help="solve one representative per orbit of the family's symmetry group",
    )
    p_solve.set_defaults(handler=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a theorem verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p_verify.add_argument("--max-n", type=int, help="cap the parameter grid")
    add_common(p_verify, with_input=False)
    p_verify.set_defaults(handler=cmd_verify)
    return parser


_parser = None  # built by the first main call and reused by the later ones


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, AssertionError, TypeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory. {SCALE_NOTE}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
