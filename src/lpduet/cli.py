"""Command-line interface.

    lpduet solve FILE [--method simplex|affine|both] [--alpha A] [--tol T]
                      [--max-iter N] [--trace PATH] [--json]
    lpduet lana [--json]

Exit codes: 0 optimal, 2 infeasible, 3 unbounded, 4 iteration limit,
1 usage, parse or internal error. With --method both the exit code follows
the simplex status when the two engines disagree.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from .affine import IpmOptions, solve_affine
from .errors import InfeasibleInterior, LpError
from .lp_format import lana_instance, parse_lp_text
from .model import LPModel, Solution, Status, to_equality_form
from .reporting import (
    SolveReport,
    TraceRow,
    build_report,
    ipm_trace_rows,
    write_report_pair,
    write_solution_report,
    write_iteration_trace,
)
from .simplex import SimplexOptions, solve_simplex

_EXIT_CODES = {
    Status.OPTIMAL.value: 0,
    Status.INFEASIBLE.value: 2,
    Status.UNBOUNDED.value: 3,
    Status.ITERATION_LIMIT.value: 4,
}


def _step_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("alpha must lie strictly between 0 and 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpduet",
        description="Solve LP text files with a Big-M simplex and an "
        "affine-scaling interior point engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an .lp file")
    solve.add_argument("file", help="path of the LP text file")
    solve.add_argument(
        "--method", choices=("simplex", "affine", "both"), default="both"
    )
    solve.add_argument("--alpha", type=_step_fraction, default=IpmOptions.alpha,
                       help="interior-point step fraction (0 < alpha < 1, capped at 0.95)")
    solve.add_argument("--tol", type=_positive_float, default=IpmOptions.tol,
                       help="interior-point convergence tolerance (positive)")
    solve.add_argument("--max-iter", type=_positive_int, default=None,
                       help="iteration cap for both engines (positive)")
    solve.add_argument("--trace", metavar="PATH", default=None,
                       help="write an iteration trace CSV")
    solve.add_argument("--json", action="store_true", help="emit JSON reports")

    lana = sub.add_parser("lana", help="solve the bundled LANA model with both engines")
    lana.add_argument("--json", action="store_true", help="emit JSON reports")
    return parser


def _options(ns) -> tuple[SimplexOptions, IpmOptions]:
    """Engine options from the solve flags; --alpha is capped at 0.95."""
    ipm = IpmOptions(alpha=min(ns.alpha, 0.95), tol=ns.tol)
    if ns.max_iter is None:
        return SimplexOptions(), ipm
    return SimplexOptions(max_pivots=ns.max_iter), replace(ipm, max_iter=ns.max_iter)


def _run_simplex(
    model: LPModel, opts: SimplexOptions
) -> tuple[SolveReport, Solution, list[TraceRow]]:
    rows: list[TraceRow] = []

    def record(iteration, entering, leaving, obj_finite, _obj_m):
        rows.append(
            TraceRow(iteration=iteration, objective=obj_finite,
                     entering=entering, leaving=leaving)
        )

    start = time.perf_counter()
    solution = solve_simplex(model, opts, on_pivot=record)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    return build_report("simplex", model, solution, elapsed_ms), solution, rows


def _run_affine(
    model: LPModel, opts: IpmOptions
) -> tuple[SolveReport, Solution, list[TraceRow]]:
    form = to_equality_form(model)
    start = time.perf_counter()
    try:
        solution, states = solve_affine(form, opts)
        rows = ipm_trace_rows(states, form)
    except InfeasibleInterior as exc:
        print(f"warning: {exc}; reporting infeasible", file=sys.stderr)
        solution = Solution(Status.INFEASIBLE, None, None, 0, ())
        rows = []
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    return build_report("affine", model, solution, elapsed_ms), solution, rows


def _trace_path(base: str, method: str, both: bool) -> Path:
    if not both:
        return Path(base)
    p = Path(base)
    return p.with_name(f"{p.stem}.{method}{p.suffix or '.csv'}")


def _cmd_solve(ns) -> int:
    path = Path(ns.file)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    try:
        model = parse_lp_text(text)
    except LpError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1

    sx_opts, ipm_opts = _options(ns)
    fmt = "json" if ns.json else "human"
    end = "\n" if ns.json else ""  # human reports already end in a newline
    try:
        if ns.method == "simplex":
            report, solution, rows = _run_simplex(model, sx_opts)
            print(write_solution_report(report, fmt, model), end=end)
            if ns.trace and rows:
                write_iteration_trace(rows, _trace_path(ns.trace, "simplex", False))
            return _EXIT_CODES[solution.status.value]
        if ns.method == "affine":
            report, solution, rows = _run_affine(model, ipm_opts)
            print(write_solution_report(report, fmt, model), end=end)
            if ns.trace and rows:
                write_iteration_trace(rows, _trace_path(ns.trace, "affine", False))
            return _EXIT_CODES[solution.status.value]

        sx_report, sx_solution, sx_rows = _run_simplex(model, sx_opts)
        af_report, _, af_rows = _run_affine(model, ipm_opts)
        print(write_report_pair(sx_report, af_report, fmt, model), end=end)
        if ns.trace:
            if sx_rows:
                write_iteration_trace(sx_rows, _trace_path(ns.trace, "simplex", True))
            if af_rows:
                write_iteration_trace(af_rows, _trace_path(ns.trace, "affine", True))
        return _EXIT_CODES[sx_solution.status.value]
    except LpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_lana(ns) -> int:
    model = lana_instance()
    sx_report, sx_solution, _ = _run_simplex(model, SimplexOptions())
    af_report, _, _ = _run_affine(model, IpmOptions())
    fmt = "json" if ns.json else "human"
    if fmt == "json":
        print(write_report_pair(sx_report, af_report, "json", model))
    else:
        print("LANA production plan, engine comparison")
        print()
        width = max(len(n) for n, _ in sx_report.variables) if sx_report.variables else 8
        print(f"{'variable':<{width + 2}}{'simplex':>16}{'affine':>16}")
        af_values = dict(af_report.variables)
        for name, value in sx_report.variables:
            other = af_values.get(name, float("nan"))
            print(f"{name:<{width + 2}}{value:>16.4f}{other:>16.4f}")
        sx_obj = "-" if sx_report.objective is None else f"{sx_report.objective:.4f}"
        af_obj = "-" if af_report.objective is None else f"{af_report.objective:.4f}"
        print(f"{'objective':<{width + 2}}{sx_obj:>16}{af_obj:>16}")
        print(f"{'status':<{width + 2}}{sx_report.status:>16}{af_report.status:>16}")
        print(f"{'iterations':<{width + 2}}{sx_report.iterations:>16}{af_report.iterations:>16}")
    return _EXIT_CODES[sx_solution.status.value]


def run_cli(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if ns.command == "solve":
        return _cmd_solve(ns)
    return _cmd_lana(ns)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
