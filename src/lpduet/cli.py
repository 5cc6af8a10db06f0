"""Command-line interface.

    lpduet solve FILE [--method simplex|affine|both] [--alpha A] [--tol T]
                      [--max-iter N] [--trace PATH] [--json]
    lpduet lana [--json]      (lpduet solve on the bundled lana.lp, all defaults)

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
from .lp_format import lana_lp_path, parse_lp_text
from .model import LPModel, Solution, Status, to_equality_form
from .reporting import (
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


def _options(ns) -> dict:
    """Engine options by method, from the solve flags; --alpha is capped at 0.95."""
    ipm = IpmOptions(alpha=min(ns.alpha, 0.95), tol=ns.tol)
    if ns.max_iter is None:
        return {"simplex": SimplexOptions(), "affine": ipm}
    return {
        "simplex": SimplexOptions(max_pivots=ns.max_iter),
        "affine": replace(ipm, max_iter=ns.max_iter),
    }


def _run_simplex(model: LPModel, opts: SimplexOptions) -> tuple[Solution, list[tuple]]:
    rows: list[tuple] = []

    def record(iteration, entering, leaving, obj_finite, _obj_m):
        rows.append((iteration, obj_finite, entering, leaving))

    return solve_simplex(model, opts, on_pivot=record), rows


def _run_affine(model: LPModel, opts: IpmOptions) -> tuple[Solution, list[tuple] | None]:
    """The solution and trace rows; the rows are None when phase 1 finds no
    interior point."""
    form = to_equality_form(model)
    try:
        solution, states = solve_affine(form, opts)
    except InfeasibleInterior as exc:
        print(f"warning: {exc}; reporting infeasible", file=sys.stderr)
        return Solution(Status.INFEASIBLE, None, None, 0, ()), None
    return solution, ipm_trace_rows(states, form)


_ENGINES = {"simplex": _run_simplex, "affine": _run_affine}


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

    methods = ("simplex", "affine") if ns.method == "both" else (ns.method,)
    opts = _options(ns)
    reports, traces = [], []
    try:
        for method in methods:
            start = time.perf_counter()
            solution, rows = _ENGINES[method](model, opts[method])
            elapsed_ms = 1e3 * (time.perf_counter() - start)
            reports.append(build_report(method, model, solution, elapsed_ms))
            traces.append(rows)
    except LpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    fmt = "json" if ns.json else "human"
    if len(reports) == 1:
        text = write_solution_report(reports[0], fmt, model)
    else:
        text = write_report_pair(*reports, fmt, model)
    print(text, end="\n" if ns.json else "")  # human reports already end in a newline
    if ns.trace:
        for method, rows in zip(methods, traces):
            if rows is None:
                print(f"warning: no {method} trace written: phase 1 found no interior point",
                      file=sys.stderr)
            elif rows:
                write_iteration_trace(rows, _trace_path(ns.trace, method, len(methods) > 1))
    return _EXIT_CODES[reports[0]["status"]]


def run_cli(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if ns.command == "lana":
        # The bundled model through the solve path with every solve default.
        ns = parser.parse_args(["solve", str(lana_lp_path()), *(["--json"] if ns.json else [])])
    return _cmd_solve(ns)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
