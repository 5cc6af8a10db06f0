"""Solve reports (human table / JSON) and iteration trace CSV files."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affine import IpmState
from .model import LPModel, Relation, Solution, StandardForm

# CSV headers are part of the interface; tools downstream match them verbatim.
IPM_TRACE_HEADER = "iteration,objective,step_norm,min_x,residual"
SIMPLEX_TRACE_HEADER = "iteration,objective,entering,leaving"


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Boundary-format view of one solve, ready for serialization."""

    method: str
    status: str
    objective: float | None
    variables: tuple[tuple[str, float], ...]
    binding_constraints: tuple[str, ...]
    iterations: int
    wall_time_ms: float


@dataclass(frozen=True)
class TraceRow:
    """One trace record; IPM rows fill step_norm/min_x/residual, simplex rows
    fill entering/leaving."""

    iteration: int
    objective: float
    step_norm: float | None = None
    min_x: float | None = None
    residual: float | None = None
    entering: int | None = None
    leaving: int | None = None


def build_report(method: str, model: LPModel, solution: Solution, wall_time_ms: float) -> SolveReport:
    """Assemble a SolveReport from a solution and its model."""
    if solution.x is None:
        variables: tuple[tuple[str, float], ...] = ()
    else:
        variables = tuple(
            (name, float(solution.x[j])) for j, name in enumerate(model.variable_names)
        )
    binding = tuple(model.row_names[i] for i in solution.binding)
    return SolveReport(
        method=method,
        status=solution.status.value,
        objective=None if solution.objective is None else float(solution.objective),
        variables=variables,
        binding_constraints=binding,
        iterations=solution.iterations,
        wall_time_ms=float(wall_time_ms),
    )


def report_as_dict(report: SolveReport) -> dict:
    """Fixed key order; identical solves serialize byte for byte apart from
    wall_time_ms."""
    return {
        "method": report.method,
        "status": report.status,
        "objective": report.objective,
        "variables": [{"name": n, "value": v} for n, v in report.variables],
        "binding_constraints": list(report.binding_constraints),
        "iterations": report.iterations,
        "wall_time_ms": report.wall_time_ms,
    }


def _lower_bound_note(model: LPModel | None, var_index: int, value: float) -> str:
    if model is None:
        return "-"
    for row, relation, rhs in zip(model.a, model.relations, model.b):
        nz = np.nonzero(row)[0]
        if relation is Relation.GE and len(nz) == 1 and nz[0] == var_index:
            bound = rhs / row[var_index]
            state = "binding" if abs(value - bound) <= 1e-6 * (1.0 + abs(bound)) else "above"
            return f">= {bound:g} ({state})"
    return "-"


def write_solution_report(report: SolveReport, format: str = "human", model: LPModel | None = None) -> str:
    """Render one report as a human table or a JSON document.

    The human table lists each variable with its value and, when the model is
    available, the status of its lower-bound row.
    """
    if format == "json":
        return json.dumps(report_as_dict(report), indent=2)
    if format != "human":
        raise ValueError(f"unknown report format {format!r}")
    obj = "-" if report.objective is None else f"{report.objective:.6f}"
    lines = [
        f"method:     {report.method}",
        f"status:     {report.status}",
        f"objective:  {obj}",
        f"iterations: {report.iterations}",
        f"wall time:  {report.wall_time_ms:.1f} ms",
    ]
    if report.variables:
        width = max(len(n) for n, _ in report.variables)
        lines.append("")
        lines.append(f"{'variable':<{width + 2}}{'value':>16}  lower bound")
        for j, (name, value) in enumerate(report.variables):
            note = _lower_bound_note(model, j, value)
            lines.append(f"{name:<{width + 2}}{value:>16.6f}  {note}")
    if report.binding_constraints:
        lines.append("")
        lines.append("binding: " + ", ".join(report.binding_constraints))
    return "\n".join(lines) + "\n"


def write_report_pair(
    first: SolveReport,
    second: SolveReport,
    format: str = "human",
    model: LPModel | None = None,
) -> str:
    """Render two reports from the same model; human output adds a delta line."""
    if format == "json":
        return json.dumps([report_as_dict(first), report_as_dict(second)], indent=2)
    parts = [
        write_solution_report(first, "human", model),
        write_solution_report(second, "human", model),
    ]
    if first.objective is not None and second.objective is not None:
        delta = first.objective - second.objective
        parts.append(
            f"objective delta ({first.method} - {second.method}): {delta:.6g}\n"
        )
    return "\n".join(parts)


def ipm_trace_rows(states: list[IpmState], form: StandardForm) -> list[TraceRow]:
    """Convert recorded iterates to trace rows; residual is scaled by 1+||b||."""
    b_norm = float(np.linalg.norm(form.b))
    rows = []
    for state in states:
        resid = float(np.linalg.norm(form.b - form.a @ state.x)) / (1.0 + b_norm)
        rows.append(
            TraceRow(
                iteration=state.iteration,
                objective=state.objective,
                step_norm=state.step_norm,
                min_x=float(state.x.min()),
                residual=resid,
            )
        )
    return rows


def write_iteration_trace(rows: list[TraceRow], path) -> None:
    """Write trace rows as CSV; the header is picked from the row shape.

    Raises ValueError on an empty trace; file-system problems surface as
    OSError.
    """
    if not rows:
        raise ValueError("refusing to write an empty trace")
    simplex_style = rows[0].entering is not None
    lines = [SIMPLEX_TRACE_HEADER if simplex_style else IPM_TRACE_HEADER]
    for row in rows:
        if simplex_style:
            lines.append(
                f"{row.iteration},{float(row.objective)!r},"
                f"{row.entering},{row.leaving}"
            )
        else:
            lines.append(
                f"{row.iteration},{float(row.objective)!r},{float(row.step_norm)!r},"
                f"{float(row.min_x)!r},{float(row.residual)!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
