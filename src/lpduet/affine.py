"""Primal affine-scaling interior point engine.

Works on the equality form: maximize c.x subject to A x = b, x > 0 at every
iterate. Each step rescales the problem by D = diag(x), projects the scaled
objective onto the nullspace of A D, and moves a fraction alpha of the way to
the nearest coordinate wall in scaled space:

    x_next = x * (1 + (alpha / |gamma|) * d),   gamma = min(d) < 0

so the smallest scaled component lands exactly at 1 - alpha and the iterate
stays strictly positive. The projector is never materialized; P v is computed
as v - Ahat^T y with (Ahat Ahat^T) y = Ahat v. Each direction factors the
normal matrix once (one LAPACK Cholesky, reading the upper triangle of the raw
product Ahat Ahat^T) and solves it twice from that factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleInterior, NotInterior, UnboundedDirection
from .linalg import as_matrix, as_vector, cholesky, gram, solve_spd
from .model import Solution, StandardForm, Status, independent_rows, native_objective, solution_at

# Iterate budget for ||A x - b||, relative to 1 + ||b||.
EQUALITY_RTOL = 1e-7
# Phase-1 succeeds once the artificial variable falls below this.
PHASE1_ART_TOL = 1e-8
# Phase 1 keeps its own iteration allowance: a caller running the main loop
# on a tight budget must not see that reported as infeasibility.
PHASE1_MIN_ITER = 500


@dataclass(frozen=True)
class IpmOptions:
    alpha: float = 0.5
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be positive and finite")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass(frozen=True, eq=False)
class DirectionResult:
    """Projected ascent direction in scaled space, with its multipliers.

    ``d`` is the projected scaled gradient: the step direction, and also the
    scaled reduced costs that the complementarity stop reads.
    """

    d: np.ndarray
    dual_y: np.ndarray


def projected_direction(a, c, x) -> DirectionResult:
    """Project the scaled objective onto the nullspace of A diag(x).

    Factors the normal matrix Ahat Ahat^T once (cholesky on gram's raw
    product), solves (Ahat Ahat^T) y = Ahat c_tilde from that factor and
    returns d = c_tilde - Ahat^T y. One extra projection pass, a second solve
    from the same factor, runs on the result (the projector is idempotent, so
    this changes nothing mathematically) to keep ||Ahat d|| at rounding level
    even when the normal equations are badly scaled. With no rows, d is
    c_tilde and dual_y is empty. NotPositiveDefinite means the rows of
    A diag(x) are numerically dependent, though solve_affine dropped the
    dependent rows.
    """
    a = as_matrix(a)
    c = as_vector(c)
    x = as_vector(x)
    if a.shape[1] != x.shape[0] or c.shape[0] != x.shape[0]:
        raise DimensionMismatch("shapes of A, c and x do not agree")
    if float(x.min()) <= 0.0:
        raise NotInterior("scaling point must be strictly positive")
    ahat = a * x[np.newaxis, :]
    c_tilde = c * x
    factor = cholesky(gram(ahat))
    y1 = solve_spd(factor, ahat @ c_tilde)
    d = c_tilde - ahat.T @ y1
    y2 = solve_spd(factor, ahat @ d)
    d = d - ahat.T @ y2
    return DirectionResult(d=d, dual_y=y1 + y2)


def step(x, d, alpha: float, zero_tol: float = 0.0) -> np.ndarray:
    """One multiplicative affine-scaling step from x along d.

    Returns x unchanged when ||d|| <= zero_tol (converged). Raises
    UnboundedDirection when d is not zero but has no component below
    -1e-12 * max|d|: the scaled objective then improves forever without
    hitting a wall.
    """
    x = as_vector(x)
    d = as_vector(d)
    if x.shape != d.shape:
        raise DimensionMismatch("x and d must have the same length")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if float(x.min()) <= 0.0:
        raise NotInterior("step origin must be strictly positive")
    if float(np.linalg.norm(d)) <= zero_tol:
        return x.copy()
    gamma = float(d.min())
    # Components within 1e-12 of the largest |d| are rounding noise of the
    # projection: stepping on one would send x past the float range.
    if gamma >= -1e-12 * float(np.abs(d).max()):
        raise UnboundedDirection("projected direction has no blocking component")
    return x * (1.0 + (alpha / abs(gamma)) * d)


def _least_squares_snap(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm correction of x onto A x = b; caller checks positivity."""
    resid = b - a @ x
    y = solve_spd(cholesky(gram(a)), resid)
    return x + a.T @ y


def find_interior_point(form: StandardForm, opts: IpmOptions | None = None) -> np.ndarray:
    """Phase 1: a strictly positive point on A x = b.

    Starts from a deterministic positive guess (each component 1.0 scaled up
    by mean|b| over its column norm when that helps), appends one artificial
    column carrying the residual b - A x_g at value 1, and runs the affine
    iteration with a large negative weight on that column until it drops
    below PHASE1_ART_TOL. Raises InfeasibleInterior, carrying the count of
    phase-1 iterations, when the artificial cannot be driven out. The rows of
    A have to be independent.
    """
    opts = opts or IpmOptions()
    a = form.a
    b = form.b
    m, n = a.shape
    col_norms = np.linalg.norm(a, axis=0)
    b_scale = float(np.mean(np.abs(b))) if m else 1.0
    x_g = np.maximum(1.0, b_scale / np.maximum(1.0, col_norms))
    resid = b - a @ x_g
    b_norm = float(np.linalg.norm(b))
    if float(np.linalg.norm(resid)) <= 1e-12 * (1.0 + b_norm):
        return x_g

    a_aug = np.hstack([a, resid[:, np.newaxis]])
    weight = 1e4 * max(1.0, float(np.abs(form.c).max()) if n else 1.0)
    c_aug = np.zeros(n + 1)
    c_aug[-1] = -weight
    x = np.append(x_g, 1.0)
    iterations = 0
    while iterations < max(opts.max_iter, PHASE1_MIN_ITER) and x[-1] > PHASE1_ART_TOL:
        iterations += 1
        direction = projected_direction(a_aug, c_aug, x)
        zero_tol = opts.tol * (1.0 + float(np.linalg.norm(x * c_aug)))
        try:
            x_new = step(x, direction.d, opts.alpha, zero_tol)
        except UnboundedDirection:
            # The phase-1 objective is bounded above by zero, so this can
            # only be rounding noise on a stalled direction.
            raise InfeasibleInterior(
                "phase-1 iteration stalled before clearing the artificial column", iterations
            ) from None
        if float(np.linalg.norm(x_new - x)) <= 1e-14 * (1.0 + float(np.linalg.norm(x))):
            break
        x = x_new
    if x[-1] > PHASE1_ART_TOL:
        raise InfeasibleInterior(
            "could not drive the artificial column below tolerance; "
            "no strictly positive feasible point found",
            iterations,
        )
    x0 = x[:-1]
    budget = EQUALITY_RTOL * (1.0 + b_norm)
    if float(np.linalg.norm(b - a @ x0)) > 0.5 * budget:
        snapped = _least_squares_snap(a, x0, b)
        if float(snapped.min()) > 0.0:
            x0 = snapped
    if float(x0.min()) <= 0.0 or float(np.linalg.norm(b - a @ x0)) > budget:
        raise InfeasibleInterior("phase-1 endpoint is not interior-feasible", iterations)
    return x0


def solve_affine(
    form: StandardForm, opts: IpmOptions | None = None
) -> tuple[Solution, list[tuple]]:
    """Run the affine-scaling iteration on an equality form.

    Runs on model.independent_rows(form) (InfeasibleInterior when the equality
    rows are inconsistent) from the phase-1 point of find_interior_point.
    Stops at the first of: scaled step norm below tol, relative objective
    change below tol, or scaled complementarity below tol (optimal); an
    unblocked ascent ray (unbounded); or max_iter (iteration limit). Returns
    the solution plus one trace row per iterate, the phase-1 point first:
    (iteration, objective, step_norm, min_x, residual), with the objective in
    the model's own sense and residual = ||b - A x|| / (1 + ||b||) over the
    rows iterated on.
    """
    opts = opts or IpmOptions()
    kept = independent_rows(form)
    if kept is None:
        raise InfeasibleInterior("the equality rows have no common solution")
    a, b, c = kept.a, kept.b, kept.c
    x = find_interior_point(kept, opts)

    b_scale = 1.0 + float(np.linalg.norm(b))
    budget = EQUALITY_RTOL * b_scale
    obj = float(c @ x)
    resid = float(np.linalg.norm(b - a @ x))
    rows = [(0, native_objective(obj, form.negated), math.inf, float(x.min()), resid / b_scale)]
    status = Status.ITERATION_LIMIT
    iterations = 0
    for k in range(1, opts.max_iter + 1):
        direction = projected_direction(a, c, x)
        zero_tol = opts.tol * (1.0 + float(np.linalg.norm(x * c)))
        try:
            x_new = step(x, direction.d, opts.alpha, zero_tol)
        except UnboundedDirection:
            return solution_at(form, Status.UNBOUNDED, k), rows
        # Drift control: the multiplicative step preserves A x = b only up to
        # the projection residual, which compounds over hundreds of iterates
        # at large |b|; snap back before it can leave the budget.
        resid = float(np.linalg.norm(b - a @ x_new))
        if resid > 0.25 * budget:
            snapped = _least_squares_snap(a, x_new, b)
            if float(snapped.min()) > 0.0:
                x_new = snapped
                resid = float(np.linalg.norm(b - a @ x_new))
        step_norm = float(np.linalg.norm(x_new - x)) / (1.0 + float(np.linalg.norm(x)))
        obj_new = float(c @ x_new)
        iterations = k
        objective = native_objective(obj_new, form.negated)
        rows.append((k, objective, step_norm, float(x_new.min()), resid / b_scale))
        comp = float(np.abs(direction.d).max())
        converged = (
            step_norm <= opts.tol
            or abs(obj_new - obj) <= opts.tol * (1.0 + abs(obj))
            or comp <= opts.tol * (1.0 + abs(obj))
        )
        x = x_new
        obj = obj_new
        if converged:
            status = Status.OPTIMAL
            break

    return solution_at(form, status, iterations, x), rows
