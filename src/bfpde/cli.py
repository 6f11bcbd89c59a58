"""Command-line front end: load a problem file, verify it, emit artifacts.

Exit codes: 0 = BF_SOLUTION (or a clean ``validate``), 1 = some check failed,
2 = input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .engine import (
    BF_SOLUTION,
    NearZeroDenominatorError,
    NonFiniteValueError,
    Verdict,
    compute_curves,
    verify,
)
from .expr import EvalError
from .io import ProblemFormatError, emit_curves, emit_report, load_problem


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfpde",
        description="Decide whether a fuzzified candidate solves the fuzzy PDE "
                    "(dV/dx1)/(dV/dx2) = F in the Buckley-Feuring sense.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify a problem file and print the verdict")
    check.add_argument("file", help="problem JSON file")
    check.add_argument("--report", metavar="PATH", help="write the JSON report here")
    check.add_argument("--curves", metavar="PATH", help="write the Y/F/GAMMA curve CSV here")
    check.add_argument("--grid-x1", type=int, metavar="N", help="override the x1 sample count")
    check.add_argument("--grid-x2", type=int, metavar="N", help="override the x2 sample count")
    check.add_argument("--alpha-steps", type=int, metavar="M", help="override the alpha sample count")
    check.add_argument("--tol", type=float, metavar="T",
                       help="override the equality and monotonicity tolerances")

    validate = sub.add_parser("validate", help="load and schema-check a problem file only")
    validate.add_argument("file", help="problem JSON file")

    curves = sub.add_parser("curves", help="emit envelope and Gamma curves without verdict gating")
    curves.add_argument("file", help="problem JSON file")
    curves.add_argument("--out", metavar="PATH", required=True, help="output CSV path")

    return parser


def _print_verdict(verdict: Verdict) -> None:
    print(verdict.outcome)
    print(f"{'check':<18} {'pass':<5} {'worst_violation':>15}  location (x1, x2, alpha)")
    for check in verdict.checks:
        status = "yes" if check.passed else "NO"
        if check.location is None:
            loc = "-"
        else:
            loc = "({:.6g}, {:.6g}, {:.6g})".format(*check.location)
        note = f"  [{check.note}]" if check.note else ""
        print(f"{check.name:<18} {status:<5} {check.worst_violation:>15.6g}  {loc}{note}")


def _apply_overrides(problem, args):
    grid_updates = {}
    if args.grid_x1 is not None:
        grid_updates["n_x1"] = args.grid_x1
    if args.grid_x2 is not None:
        grid_updates["n_x2"] = args.grid_x2
    if args.alpha_steps is not None:
        grid_updates["n_alpha"] = args.alpha_steps
    grid = replace(problem.grid, **grid_updates) if grid_updates else problem.grid
    tolerances = problem.tolerances
    if args.tol is not None:
        tolerances = replace(tolerances, eq_tol=args.tol, mono_tol=args.tol)
    if grid is problem.grid and tolerances is problem.tolerances:
        return problem
    return replace(problem, grid=grid, tolerances=tolerances)


def _cmd_check(args) -> int:
    problem = _apply_overrides(load_problem(args.file), args)
    verdict = verify(problem)
    _print_verdict(verdict)
    if args.report:
        emit_report(verdict, args.report)
    if args.curves:
        if verdict.curves_error is not None:
            raise verdict.curves_error
        emit_curves(verdict.curves, args.curves)
    return 0 if verdict.outcome == BF_SOLUTION else 1


def _cmd_validate(args) -> int:
    problem = load_problem(args.file)
    print(f"VALID {problem.name}")
    return 0


def _cmd_curves(args) -> int:
    problem = load_problem(args.file)
    emit_curves(compute_curves(problem), args.out)
    print(f"wrote {args.out}")
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed usage/diagnostics
        return int(exc.code or 0)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_curves(args)
    except (OSError, ProblemFormatError, ValueError, EvalError, NearZeroDenominatorError,
            NonFiniteValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
