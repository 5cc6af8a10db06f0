"""Command-line interface.

    lpduet solve FILE [--method simplex|affine|both] [--alpha A] [--tol T]
                      [--max-iter N] [--trace PATH] [--json]
    lpduet lana [--json]      (lpduet solve on the bundled lana.lp, all defaults)

Exit codes: 0 optimal, 2 infeasible, 3 unbounded, 4 iteration limit,
1 usage, parse or internal error. With --method both the exit code follows
the simplex status when the two engines disagree. An engine that raises
leaves the reports of the others printed, then one error line, and exit 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .affine import IpmOptions, solve_affine
from .errors import LpError
from .linalg import load_lapack
from .lp_format import lana_lp_path, parse_lp_text
from .model import LPModel, Sense, Solution, Status, native_objective, to_equality_form
from .reporting import (
    build_report,
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


def _checked(options, field: str, parse):
    """An argparse type: ``parse`` the flag's text, then let ``options``, an
    options class, check its ``field`` value, so each range is defined once."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}") from None
        try:
            options(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


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
    solve.add_argument("--alpha", type=_checked(IpmOptions, "alpha", float), default=IpmOptions.alpha,
                       help="interior-point step fraction (0 < alpha < 1)")
    solve.add_argument("--tol", type=_checked(IpmOptions, "tol", float), default=IpmOptions.tol,
                       help="interior-point convergence tolerance (positive)")
    solve.add_argument("--max-iter", type=_checked(IpmOptions, "max_iter", int), default=None,
                       help="iteration cap for both engines (positive)")
    solve.add_argument("--trace", metavar="PATH", default=None,
                       help="write an iteration trace CSV")
    solve.add_argument("--json", action="store_true", help="emit JSON reports")

    lana = sub.add_parser("lana", help="solve the bundled LANA model with both engines")
    lana.add_argument("--json", action="store_true", help="emit JSON reports")
    return parser


def _options(ns) -> dict:
    """Engine options by method, from the solve flags."""
    ipm = IpmOptions(alpha=ns.alpha, tol=ns.tol)
    if ns.max_iter is None:
        return {"simplex": SimplexOptions(), "affine": ipm}
    return {
        "simplex": SimplexOptions(max_pivots=ns.max_iter),
        "affine": replace(ipm, max_iter=ns.max_iter),
    }


def _run_simplex(model: LPModel, opts: SimplexOptions) -> tuple[Solution, list[tuple]]:
    rows: list[tuple] = []
    negated = model.sense is Sense.MIN

    def record(iteration, entering, leaving, obj_finite, _obj_m):
        # on_pivot reports the maximize sense; the trace uses the model's own.
        rows.append((iteration, native_objective(obj_finite, negated), entering, leaving))

    return solve_simplex(model, opts, on_pivot=record), rows


def _run_affine(model: LPModel, opts: IpmOptions) -> tuple[Solution, list[tuple]]:
    return solve_affine(to_equality_form(model), opts)


_ENGINES = {"simplex": _run_simplex, "affine": _run_affine}
# Why an engine leaves no trace rows: the affine trace always holds the
# phase-1 point, and the simplex records one row per pivot.
_NO_TRACE = {"simplex": "the simplex made no pivot", "affine": "no interior point was found"}


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
    if "affine" in methods:
        load_lapack()  # the affine wall time then leaves out importing scipy.linalg
    reports, traces, errors = [], {}, []
    for method in methods:
        start = time.perf_counter()
        try:
            solution, traces[method] = _ENGINES[method](model, opts[method])
        except LpError as exc:
            errors.append(f"error: {method}: {exc}")
            continue
        elapsed_ms = 1e3 * (time.perf_counter() - start)
        reports.append(build_report(method, model, solution, elapsed_ms))

    fmt = "json" if ns.json else "human"
    if reports:
        if len(reports) == 1:
            text = write_solution_report(reports[0], fmt, model)
        else:
            text = write_report_pair(*reports, fmt, model)
        print(text, end="\n" if ns.json else "")  # human reports already end in a newline
    for line in errors:
        print(line, file=sys.stderr)
    if ns.trace:
        for method, rows in traces.items():
            if rows:
                target = _trace_path(ns.trace, method, len(methods) > 1)
                try:
                    write_iteration_trace(rows, target)
                except OSError as exc:
                    print(f"error: cannot write trace {target}: {exc}", file=sys.stderr)
                    return 1
            else:
                print(f"warning: no {method} trace written: {_NO_TRACE[method]}", file=sys.stderr)
    return 1 if errors else _EXIT_CODES[reports[0]["status"]]


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
