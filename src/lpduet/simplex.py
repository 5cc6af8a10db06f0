"""Big-M tableau simplex engine.

The tableau is held in plain float arrays. The objective row is two arrays,
z_fin and z_m, and the objective value two floats, obj_fin and obj_m: each
entry stands for fin + m * M, so the artificial penalty M stays symbolic from
the first pivot to the last. The objective row stores Z_j - C_j, compared
lexicographically (the M coefficient first, then the finite part): optimality
for a maximization means no entry is below -pivot_tol in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ZeroPivot
from .model import (
    BigMForm,
    LPModel,
    Solution,
    Status,
    constraint_residuals,
    evaluate_objective,
    structural_values,
    to_big_m_form,
)

LARGEST_COEFFICIENT = "largest_coefficient"
BLAND = "bland"

# Scaled threshold for "an artificial variable is still in play".
ARTIFICIAL_TOL = 1e-6


@dataclass(frozen=True)
class SimplexOptions:
    pivot_tol: float = 1e-9
    max_pivots: int = 10_000
    anti_cycling: str = LARGEST_COEFFICIENT

    def __post_init__(self):
        if not (math.isfinite(self.pivot_tol) and self.pivot_tol > 0.0):
            raise ValueError("pivot_tol must be positive and finite")
        if isinstance(self.max_pivots, bool) or not isinstance(self.max_pivots, int) or self.max_pivots < 1:
            raise ValueError("max_pivots must be an integer of at least 1")
        if self.anti_cycling not in (LARGEST_COEFFICIENT, BLAND):
            raise ValueError(f"unknown anti-cycling rule {self.anti_cycling!r}")


@dataclass(frozen=True, eq=False)
class Tableau:
    """One simplex tableau; pivot() returns a fresh value, never mutates."""

    body: np.ndarray
    rhs: np.ndarray
    basis: tuple[int, ...]
    z_fin: np.ndarray
    z_m: np.ndarray
    obj_fin: float
    obj_m: float


def init_tableau(form: BigMForm) -> Tableau:
    """Starting tableau: slack/artificial basis, objective row Z_j - C_j."""
    body = form.a_full.copy()
    rhs = form.base.b.copy()
    basis = form.starting_basis()
    c_fin, c_m = form.c_fin, form.c_m
    basis_idx = list(basis)
    z_fin = c_fin[basis_idx] @ body - c_fin
    z_m = c_m[basis_idx] @ body - c_m
    obj_fin = float(c_fin[basis_idx] @ rhs)
    obj_m = float(c_m[basis_idx] @ rhs)
    return Tableau(body, rhs, basis, z_fin, z_m, obj_fin, obj_m)


def select_entering(t: Tableau, opts: SimplexOptions) -> int | None:
    """Column with the most negative objective entry, or None at optimality.

    Entries compare by M coefficient first, then by finite part; ties go to
    the smallest column index. Under Bland's rule the first negative column
    wins outright.
    """
    tol = opts.pivot_tol
    # Snap M-coefficient rounding noise to zero so a 1e-17 residue cannot
    # outrank a genuinely negative finite part.
    z_m = np.where(np.abs(t.z_m) <= tol, 0.0, t.z_m)
    candidates = np.flatnonzero((z_m < -tol) | ((z_m == 0.0) & (t.z_fin < -tol)))
    if candidates.size == 0:
        return None
    if opts.anti_cycling == BLAND:
        return int(candidates[0])
    # lexsort is stable and sorts by its last key first.
    order = np.lexsort((t.z_fin[candidates], z_m[candidates]))
    return int(candidates[order[0]])


def select_leaving(t: Tableau, enter: int, opts: SimplexOptions) -> int | None:
    """Minimum-ratio row for the entering column, or None when unbounded.

    Only rows with a strictly positive column entry compete; ratio ties are
    broken by the smallest basic variable index.
    """
    col = t.body[:, enter]
    rows = [r for r in range(t.rhs.shape[0]) if col[r] > opts.pivot_tol]
    if not rows:
        return None
    return min(rows, key=lambda r: (t.rhs[r] / col[r], t.basis[r]))


def pivot(t: Tableau, row: int, col: int, pivot_tol: float = 1e-9) -> Tableau:
    """Gauss-Jordan pivot on (row, col); returns the new tableau."""
    p = float(t.body[row, col])
    if abs(p) <= pivot_tol:
        raise ZeroPivot(f"pivot element {p!r} at row {row}, column {col}")
    body = t.body.copy()
    rhs = t.rhs.copy()
    body[row] /= p
    rhs[row] /= p
    prow = body[row].copy()
    prhs = float(rhs[row])
    factors = body[:, col].copy()
    factors[row] = 0.0
    body -= np.outer(factors, prow)
    rhs -= factors * prhs
    # The pivot column is a unit vector by construction; make it exact.
    body[:, col] = 0.0
    body[row, col] = 1.0
    # The ratio test guarantees rhs >= 0 mathematically; clear rounding dust.
    window = pivot_tol * (1.0 + float(np.abs(rhs).max()))
    rhs[(rhs < 0.0) & (rhs >= -window)] = 0.0

    f_fin = float(t.z_fin[col])
    f_m = float(t.z_m[col])
    z_fin = t.z_fin - f_fin * prow
    z_m = t.z_m - f_m * prow
    z_fin[col] = 0.0
    z_m[col] = 0.0
    basis = list(t.basis)
    basis[row] = col
    return Tableau(
        body, rhs, tuple(basis), z_fin, z_m, t.obj_fin - f_fin * prhs, t.obj_m - f_m * prhs
    )


def _artificial_level(t: Tableau, art_cols: set[int]) -> float:
    levels = [t.rhs[r] for r, j in enumerate(t.basis) if j in art_cols]
    return max(levels, default=0.0)


def solve_simplex(
    model: LPModel,
    opts: SimplexOptions | None = None,
    on_pivot: Callable[[int, int, int, float, float], None] | None = None,
) -> Solution:
    """Run the Big-M simplex on a model.

    Pivots until no entering column remains (optimal or, if an artificial is
    still basic above tolerance, infeasible), the ratio test finds no row
    (unbounded, or infeasible when artificials remain), or max_pivots is hit
    (iteration limit; the last tableau is reported, which is also the best
    since the objective never decreases).

    The default entering rule is largest coefficient; after 3m consecutive
    degenerate pivots the engine switches to Bland's rule for the rest of the
    run, which prevents cycling.

    ``on_pivot``, when given, is called after every pivot with
    (pivot_count, entering_col, leaving_col, objective_finite, objective_m).
    """
    opts = opts or SimplexOptions()
    form = to_big_m_form(model)
    t = init_tableau(form)
    m_rows = t.rhs.shape[0]
    art_cols = {col for col, _ in form.artificial_cols}
    b_scale = 1.0 + (float(np.abs(form.base.b).max()) if m_rows else 0.0)
    art_tol = ARTIFICIAL_TOL * b_scale

    effective = opts
    degenerate_run = 0
    pivots = 0
    status = Status.ITERATION_LIMIT
    for _ in range(opts.max_pivots):
        enter = select_entering(t, effective)
        if enter is None:
            if _artificial_level(t, art_cols) > art_tol:
                return Solution(Status.INFEASIBLE, None, None, pivots, ())
            status = Status.OPTIMAL
            break
        leave = select_leaving(t, enter, effective)
        if leave is None:
            if _artificial_level(t, art_cols) > art_tol:
                return Solution(Status.INFEASIBLE, None, None, pivots, ())
            return Solution(Status.UNBOUNDED, None, None, pivots, ())
        degenerate = t.rhs[leave] <= opts.pivot_tol * (1.0 + float(np.abs(t.rhs).max()))
        leaving_col = t.basis[leave]
        t = pivot(t, leave, enter, opts.pivot_tol)
        pivots += 1
        if on_pivot is not None:
            on_pivot(pivots, enter, leaving_col, t.obj_fin, t.obj_m)
        degenerate_run = degenerate_run + 1 if degenerate else 0
        if effective.anti_cycling != BLAND and degenerate_run >= 3 * m_rows:
            effective = replace(opts, anti_cycling=BLAND)

    if status is Status.ITERATION_LIMIT and _artificial_level(t, art_cols) > art_tol:
        # Never reached a feasible basis within the budget; report the limit
        # without pretending the point means anything.
        return Solution(Status.ITERATION_LIMIT, None, None, pivots, ())

    x_full = np.zeros(form.a_full.shape[1])
    x_full[list(t.basis)] = np.where(t.rhs > 0.0, t.rhs, 0.0)
    x = structural_values(form.base, x_full)
    objective = evaluate_objective(model, x)
    binding = constraint_residuals(model, x).binding
    return Solution(status, x, objective, pivots, binding)
