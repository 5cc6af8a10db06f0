"""Correctness checks, independent of lpduet.

Every expected answer comes from scipy's HiGHS on the benchmark's own model
arrays or from numpy arithmetic done here. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from workloads import Model

# Rows must hold within FEAS_RTOL * (1 + |rhs|), variables within -FEAS_RTOL.
FEAS_RTOL = 1e-6
# Objective agreement with HiGHS, relative to 1 + |optimum|. The affine
# engine's looser figure is the gap its stop test is seen to leave.
EXACT_RTOL = 1e-7
AFFINE_RTOL = 1e-5
# lpduet's documented oracle budget: more candidate bases than this are
# refused with TooLarge.
ORACLE_BUDGET = 10**6
LANA_OPTIMUM = 765_056.25

_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass(frozen=True)
class Answer:
    """HiGHS's verdict on one model: status and optimum in the native sense."""

    status: str
    objective: float | None


def highs(model: Model) -> Answer:
    sign = -1.0 if model.sense == "max" else 1.0
    rel = np.array(model.rel)
    le, ge, eq = rel == "<=", rel == ">=", rel == "="
    a_ub = np.vstack([model.a[le], -model.a[ge]])
    b_ub = np.concatenate([model.rhs[le], -model.rhs[ge]])
    res = linprog(
        sign * model.c,
        A_ub=a_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=model.a[eq] if eq.any() else None,
        b_eq=model.rhs[eq] if eq.any() else None,
        bounds=(0, None),
        method="highs",
    )
    status = _HIGHS_STATUS.get(res.status, f"highs-status-{res.status}")
    return Answer(status, sign * float(res.fun) if status == "optimal" else None)


def oracle_candidates(model: Model) -> int:
    """C(n, rank) for the equality form [A | slack and surplus columns]: the
    bases an exhaustive oracle has to factor, computed here."""
    m, _ = model.shape
    extra = [i for i, r in enumerate(model.rel) if r != "="]
    cols = np.zeros((m, len(extra)))
    for k, i in enumerate(extra):
        cols[i, k] = 1.0 if model.rel[i] == "<=" else -1.0
    full = np.hstack([model.a, cols])
    return math.comb(full.shape[1], int(np.linalg.matrix_rank(full)))


def point_problems(model: Model, x: np.ndarray, label: str) -> list[str]:
    """Rows violated by x beyond FEAS_RTOL * (1 + |rhs|), and negative entries."""
    problems = []
    if x.shape != (model.shape[1],) or not np.all(np.isfinite(x)):
        return [f"{label}: point has shape {x.shape} or non-finite entries"]
    if float(x.min()) < -FEAS_RTOL:
        problems.append(f"{label}: variable at {float(x.min()):.3g} < 0")
    lhs = model.a @ x
    tol = FEAS_RTOL * (1.0 + np.abs(model.rhs))
    for i, r in enumerate(model.rel):
        gap = lhs[i] - model.rhs[i]
        bad = gap > tol[i] if r == "<=" else gap < -tol[i] if r == ">=" else abs(gap) > tol[i]
        if bad:
            problems.append(f"{label}: row {i + 1} {r} misses its rhs by {gap:.3g}")
    return problems


def engine_problems(
    model: Model,
    answer: Answer,
    status: str,
    objective: float | None,
    x: np.ndarray | None,
    rtol: float,
    label: str,
) -> list[str]:
    """Status and objective against HiGHS, the point against every row, the
    objective against c.x, and no objective better than the optimum."""
    if status != answer.status:
        return [f"{label}: status {status}, HiGHS says {answer.status}"]
    if answer.status != "optimal":
        return []
    if objective is None or x is None:
        return [f"{label}: optimal without a point or objective"]
    opt = answer.objective
    scale = 1.0 + abs(opt)
    problems = point_problems(model, x, label)
    if abs(objective - opt) > rtol * scale:
        problems.append(f"{label}: objective {objective!r} vs HiGHS {opt!r}")
    if abs(float(model.c @ x) - objective) > EXACT_RTOL * scale:
        problems.append(f"{label}: objective {objective!r} but c.x = {float(model.c @ x)!r}")
    better = objective - opt if model.sense == "max" else opt - objective
    if better > FEAS_RTOL * scale:
        problems.append(f"{label}: objective {objective!r} beats the optimum {opt!r}")
    return problems


def relative_gap(answer: Answer, objective: float | None) -> float:
    if answer.objective is None or objective is None:
        return 0.0
    return abs(objective - answer.objective) / (1.0 + abs(answer.objective))


def oracle_problems(
    model: Model, answer: Answer, candidates: int, refused: bool, status, objective, x
) -> list[str]:
    """A refusal must be one the budget demands; an answer must match HiGHS."""
    over = candidates > ORACLE_BUDGET
    if refused or over:
        return [] if refused and over else [f"oracle: refused={refused}, over budget={over}"]
    return engine_problems(model, answer, status, objective, x, EXACT_RTOL, "oracle")


def report_problems(text: str, expected: list[tuple[str, str, float | None]]) -> list[str]:
    """The JSON report pair names each method with its status and objective."""
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report: not JSON ({exc})"]
    got = [(d.get("method"), d.get("status"), d.get("objective")) for d in docs]
    return [] if got == expected else [f"report: {got} != {expected}"]


def cli_problems(model: Model, answer: Answer, returncode: int, stdout: str) -> list[str]:
    """`lpduet solve FILE --json` exits 0 and reports the optimum both ways."""
    if returncode != 0:
        return [f"cli: exit code {returncode}"]
    try:
        docs = {d["method"]: d for d in json.loads(stdout)}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"cli: unreadable JSON ({exc})"]
    problems = []
    for method, rtol in (("simplex", EXACT_RTOL), ("affine", AFFINE_RTOL)):
        doc = docs.get(method, {})
        obj = doc.get("objective")
        if doc.get("status") != "optimal" or obj is None:
            problems.append(f"cli: {method} status {doc.get('status')}")
        elif abs(obj - answer.objective) > rtol * (1.0 + abs(answer.objective)):
            problems.append(f"cli: {method} objective {obj!r} vs HiGHS {answer.objective!r}")
    return problems


def lana_problems(model: Model, answer: Answer) -> list[str]:
    """LANA's optimum is pinned: the profit_cap row repeats the objective, so
    no point exceeds its rhs, and HiGHS attains it."""
    problems = []
    i = model.rows.index("profit_cap") if "profit_cap" in model.rows else None
    if (
        i is None
        or model.rel[i] != "<="
        or not np.array_equal(model.a[i], model.c)
        or model.rhs[i] != LANA_OPTIMUM
    ):
        problems.append("lana: no profit_cap row c.x <= 765056.25")
    if answer.status != "optimal" or abs(answer.objective - LANA_OPTIMUM) > EXACT_RTOL * (
        1.0 + LANA_OPTIMUM
    ):
        problems.append(f"lana: HiGHS optimum {answer.objective!r} != {LANA_OPTIMUM}")
    return problems
