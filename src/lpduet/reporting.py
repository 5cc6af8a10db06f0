"""Solve reports (human table / JSON) and iteration trace CSV files.

A report is a plain dict with a fixed key order, so identical solves
serialize byte for byte apart from ``wall_time_ms``. A trace row is a plain
tuple in CSV column order: ``(iteration, objective, entering, leaving)`` for
the simplex and ``(iteration, objective, step_norm, min_x, residual)`` for
the interior point engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .lp_format import float_text
from .model import LPModel, Relation, Solution

# CSV headers are part of the interface; tools downstream match them verbatim.
IPM_TRACE_HEADER = "iteration,objective,step_norm,min_x,residual"
SIMPLEX_TRACE_HEADER = "iteration,objective,entering,leaving"


# Trace row length -> (header, one formatter per column).
_TRACE_LAYOUTS = {
    4: (SIMPLEX_TRACE_HEADER, (str, float_text, str, str)),
    5: (IPM_TRACE_HEADER, (str, float_text, float_text, float_text, float_text)),
}


def build_report(method: str, model: LPModel, solution: Solution, wall_time_ms: float) -> dict:
    """One solve as a dict in fixed key order, ready for serialization."""
    x = solution.x
    return {
        "method": method,
        "status": solution.status.value,
        "objective": None if solution.objective is None else float(solution.objective),
        "variables": [] if x is None else [
            {"name": name, "value": float(x[j])} for j, name in enumerate(model.variable_names)
        ],
        "binding_constraints": [model.row_names[i] for i in solution.binding],
        "iterations": solution.iterations,
        "wall_time_ms": float(wall_time_ms),
    }


def _lower_bound_notes(model: LPModel, binding: set[str]) -> dict[int, str]:
    """Variable index -> ">= bound (binding|above)" for its first single-variable
    ``>=`` row with a positive coefficient; binding when the row is in ``binding``."""
    notes: dict[int, str] = {}
    for i in np.flatnonzero(np.count_nonzero(model.a, axis=1) == 1):
        j = int(np.flatnonzero(model.a[i])[0])
        if model.relations[i] is Relation.GE and model.a[i, j] > 0.0 and j not in notes:
            state = "binding" if model.row_names[i] in binding else "above"
            notes[j] = f">= {model.b[i] / model.a[i, j]:g} ({state})"
    return notes


def write_solution_report(report: dict, format: str = "human", model: LPModel | None = None) -> str:
    """Render one report as a human table or a JSON document.

    The human table lists each variable with its value and, when the model is
    available, its lower-bound row, marked binding when the report lists that
    row as binding.
    """
    if format == "json":
        return json.dumps(report, indent=2)
    if format != "human":
        raise ValueError(f"unknown report format {format!r}")
    obj = "-" if report["objective"] is None else f"{report['objective']:.6f}"
    lines = [
        f"method:     {report['method']}",
        f"status:     {report['status']}",
        f"objective:  {obj}",
        f"iterations: {report['iterations']}",
        f"wall time:  {report['wall_time_ms']:.1f} ms",
    ]
    variables = report["variables"]
    if variables:
        notes = {} if model is None else _lower_bound_notes(model, set(report["binding_constraints"]))
        width = max(len("variable"), *(len(v["name"]) for v in variables))
        lines.append("")
        lines.append(f"{'variable':<{width + 2}}{'value':>16}  lower bound")
        for j, v in enumerate(variables):
            lines.append(f"{v['name']:<{width + 2}}{v['value']:>16.6f}  {notes.get(j, '-')}")
    if report["binding_constraints"]:
        lines.append("")
        lines.append("binding: " + ", ".join(report["binding_constraints"]))
    return "\n".join(lines) + "\n"


def write_report_pair(
    first: dict,
    second: dict,
    format: str = "human",
    model: LPModel | None = None,
) -> str:
    """Render two reports from the same model; human output adds a delta line."""
    if format == "json":
        return json.dumps([first, second], indent=2)
    parts = [
        write_solution_report(first, format, model),
        write_solution_report(second, format, model),
    ]
    if first["objective"] is not None and second["objective"] is not None:
        delta = first["objective"] - second["objective"]
        parts.append(
            f"objective delta ({first['method']} - {second['method']}): {delta:.6g}\n"
        )
    return "\n".join(parts)


def write_iteration_trace(rows: list[tuple], path) -> None:
    """Write trace rows as CSV; the header is picked from the row length.

    Integer columns are written with ``str``, float columns with
    ``float_text``, which reads back exactly. Raises ValueError on an empty
    trace or an unknown row length; file-system problems surface as OSError.
    """
    if not rows:
        raise ValueError("refusing to write an empty trace")
    if len(rows[0]) not in _TRACE_LAYOUTS:
        raise ValueError(f"trace rows have {len(rows[0])} columns, expected 4 or 5")
    header, formats = _TRACE_LAYOUTS[len(rows[0])]
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(v) for fmt, v in zip(formats, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
