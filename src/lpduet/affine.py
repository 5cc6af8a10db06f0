"""Primal affine-scaling interior point engine.

Works on the equality form: maximize c.x subject to A x = b, x > 0 at every
iterate. Each step rescales the problem by D = diag(x), projects the scaled
objective onto the nullspace of A D, and moves a fraction alpha of the way to
the nearest coordinate wall in scaled space:

    x_next = x * (1 + (alpha / |gamma|) * d),   gamma = min(d) < 0

so the smallest scaled component lands exactly at 1 - alpha and the iterate
stays strictly positive. ``IpmOptions.alpha`` sets phase 2's step only. Phase
1 (``find_interior_point``) steps PHASE1_STEP = 0.9 of the way and stops on
the point where its artificial column reaches zero.

The projector is never materialized; P v is computed as v - Ahat^T y with
(Ahat Ahat^T) y = Ahat v. Each direction forms the raw product Ahat Ahat^T
(``gram``), factors it once by LAPACK's dpotrf, reading only its upper
triangle (``cholesky``), and solves twice from that factor by dpotrs
(``solve_spd``). These three kernels take the engine's own float64 arrays,
unchecked. dpotrf and dpotrs are looked up from model.lapack() at each call;
its cache loads scipy's wrappers on the first factorization, so importing
lpduet and parsing LP text load no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, InfeasibleInterior, NonFiniteInput, NotInterior, NotPositiveDefinite, UnboundedDirection,
)
from .model import (
    Solution, StandardForm, Status, as_matrix, as_vector, independent_rows, lapack, native_objective, solution_at,
)

# Iterate budget for ||A x - b||, relative to 1 + ||b||.
EQUALITY_RTOL = 1e-7
# Phase-1 succeeds once the artificial variable falls below this.
PHASE1_ART_TOL = 1e-8
# Each phase-1 step goes this fraction of the way to the nearest wall.
PHASE1_STEP = 0.9
# Phase 1 keeps its own iteration allowance: a caller running the main loop
# on a tight budget must not see that reported as infeasibility.
PHASE1_MIN_ITER = 500


def gram(a: np.ndarray) -> np.ndarray:
    """The raw product A A^T, not mirrored: ``cholesky`` reads only its upper
    triangle."""
    return a @ a.T


def cholesky(s: np.ndarray) -> np.ndarray:
    """Cholesky factor of a symmetric positive definite S, for ``solve_spd``.

    Only the upper triangle of S is read: LAPACK factors the lower triangle of
    the transposed view S^T. A nonpositive pivot raises NotPositiveDefinite.
    The factor is the lower triangle of the result, in Fortran order; the
    strict upper triangle is left as it was and never read.
    """
    if s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"matrix of shape {s.shape} is not square")
    factor, info = lapack().dpotrf(s.T, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    return factor


def solve_spd(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve S x = b from S's ``cholesky`` factor; S is never inverted.

    A system with no rows has the empty solution.
    """
    n = factor.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(f"matrix is {n}x{n} but right-hand side has {b.shape[0]} entries")
    if n == 0:
        return np.zeros(0)  # LAPACK's wrapper rejects a 0 x 0 system
    return lapack().dpotrs(factor, b, lower=1)[0]


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


def _snap_back(a: np.ndarray, x: np.ndarray, b: np.ndarray, limit: float) -> tuple[np.ndarray, float]:
    """x and its drift ||b - A x||, after the minimum-norm correction onto
    A x = b when the drift exceeds limit and the corrected point stays
    strictly positive (otherwise x is kept as it is)."""
    gap = b - a @ x
    resid = float(np.linalg.norm(gap))
    if resid > limit:
        snapped = x + a.T @ solve_spd(cholesky(gram(a)), gap)
        if float(snapped.min()) > 0.0:
            return snapped, float(np.linalg.norm(b - a @ snapped))
    return x, resid


def find_interior_point(form: StandardForm, opts: IpmOptions | None = None) -> np.ndarray:
    """Phase 1: a strictly positive point on A x = b.

    Starts from a deterministic positive guess (each component 1.0 scaled up
    by mean|b| over its column norm when that helps), appends one artificial
    column carrying the residual b - A x_g at value 1, and runs the affine
    iteration with a large negative weight on that column, each step
    PHASE1_STEP of the way to the nearest wall (opts.alpha is phase 2's step
    only). It stops on the first direction along which the artificial reaches
    zero while every other component keeps 1 - PHASE1_STEP of its value, and
    lands there: the artificial at exactly 0 and A x = b up to rounding.
    Otherwise it stops once the artificial drops below PHASE1_ART_TOL.
    Raises InfeasibleInterior, carrying the count of phase-1 iterations, when
    the artificial cannot be driven out, or when the endpoint, snapped back
    if it drifted, is not strictly positive and within EQUALITY_RTOL of the
    rows. The rows of A have to be independent.
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
        d = projected_direction(a_aug, c_aug, x).d
        # Along x * (1 + s d) the artificial reaches zero at s = 1 / -d[-1].
        # When every other component still keeps 1 - PHASE1_STEP of its
        # value there, land on that point: it is on the rows up to rounding.
        if d[-1] < 0.0 and float(d[:-1].min(initial=0.0)) >= PHASE1_STEP * float(d[-1]):
            x = x * (1.0 + d / -float(d[-1]))
            x[-1] = 0.0
            break
        zero_tol = opts.tol * (1.0 + float(np.linalg.norm(x * c_aug)))
        try:
            x_new = step(x, d, PHASE1_STEP, zero_tol)
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
    budget = EQUALITY_RTOL * (1.0 + b_norm)
    x0, resid = _snap_back(a, x[:-1], b, 0.5 * budget)
    if float(x0.min()) <= 0.0 or resid > budget:
        raise InfeasibleInterior("phase-1 endpoint is not interior-feasible", iterations)
    return x0


def solve_affine(
    form: StandardForm, opts: IpmOptions | None = None
) -> tuple[Solution, list[tuple]]:
    """Run the affine-scaling iteration on an equality form.

    Runs on model.independent_rows(form) from find_interior_point's point.
    Infeasible, with no trace rows, when the equality rows are inconsistent
    (0 iterations) or phase 1 finds no interior point (its iterations).
    Otherwise stops at the first of: scaled step norm, relative objective
    change or scaled complementarity below tol (optimal); an unblocked ascent
    ray (unbounded); or max_iter (iteration limit). Returns the solution plus
    one trace row per iterate, the phase-1 point first:
    (iteration, objective, step_norm, min_x, residual), with the objective in
    the model's own sense and residual = ||b - A x|| / (1 + ||b||) over the
    rows iterated on. Arithmetic that leaves the float range, as data near
    1e154 and beyond can make it do, raises NonFiniteInput.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _solve_affine(form, opts or IpmOptions())
    except FloatingPointError as exc:
        raise NonFiniteInput(f"arithmetic left the float range ({exc})") from None


def _solve_affine(form: StandardForm, opts: IpmOptions) -> tuple[Solution, list[tuple]]:
    kept = independent_rows(form)
    if kept is None:
        return solution_at(form, Status.INFEASIBLE, 0), []
    try:
        x = find_interior_point(kept, opts)
    except InfeasibleInterior as exc:
        return solution_at(form, Status.INFEASIBLE, exc.iterations), []
    a, b, c = kept.a, kept.b, kept.c

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
        x_new, resid = _snap_back(a, x_new, b, 0.25 * budget)
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
