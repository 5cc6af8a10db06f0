"""Big-M tableau simplex engine.

The tableau is one float array over the equality form's n columns, updated in
place by one rank-1 update per pivot. The artificial of the k-th >= or = row
has no column: it lives only as basis entry n + k and through its -M cost in
the M row. Once an artificial leaves the basis it is discarded, as in the
textbook two-phase and Big-M methods, so it never re-enters.

While an artificial is basic (phase 1), the objective row is two of the
array's rows, z_fin and z_m, and the objective value two of its entries,
obj_fin and obj_m: each entry stands for fin + m * M, so the artificial penalty
M stays symbolic. The objective row stores Z_j - C_j, compared
lexicographically (the M coefficient first, then the finite part): optimality
for a maximization means no entry is below -pivot_tol in that order.

Once no artificial is basic (phase 2), z_m is exactly 0 and decides nothing.
The tableau then keeps the first m + 1 rows of the same array, a view, and
obj_m is exactly 0.0 from there on. A form with no artificial starts in
phase 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ZeroPivot
from .model import FEASIBILITY_TOL, BigMForm, LPModel, Solution, Status, solution_at, to_big_m_form

LARGEST_COEFFICIENT = "largest_coefficient"
BLAND = "bland"


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
            raise ValueError(f"unknown anti_cycling rule {self.anti_cycling!r}")


class Tableau:
    """One simplex tableau: its basis, and a single float array, `full`.

    `full` spans the equality form's n columns plus the rhs column. Rows
    0..m-1 are the body and row m the finite objective row; in phase 1, while
    an artificial is basic, row m + 1 is the M objective row. The last column
    holds rhs, obj_fin and obj_m. m is len(basis), so the row count gives the
    phase; in phase 2 `z_m` is None and obj_m is exactly 0.0. A basis entry
    n + k is the artificial of row artificial_rows[k], which has no column.

    `body`, `rhs`, `z_fin` and `z_m` are views into `full`, and pivot()
    updates it in place.
    """

    __slots__ = ("full", "basis", "body", "rhs", "z_fin", "z_m")

    def __init__(self, full: np.ndarray, basis: tuple[int, ...]):
        self.basis = tuple(basis)
        self._attach(full)

    def _attach(self, full: np.ndarray) -> None:
        m = len(self.basis)
        n = full.shape[1] - 1
        self.full = full
        self.body = full[:m, :n]
        self.rhs = full[:m, n]
        self.z_fin = full[m, :n]
        self.z_m = full[m + 1, :n] if full.shape[0] == m + 2 else None

    def drop_m_row(self) -> None:
        """Switch to phase 2: keep the first m + 1 rows of `full`, a view."""
        self._attach(self.full[: len(self.basis) + 1])

    @property
    def obj_fin(self) -> float:
        return float(self.full[len(self.basis), -1])

    @property
    def obj_m(self) -> float:
        return 0.0 if self.z_m is None else float(self.full[-1, -1])


def init_tableau(form: BigMForm) -> Tableau:
    """Starting tableau of a Big-M form, written straight into one array.

    The body is the equality form's A and the basis holds each <= row's slack
    column and each other row's artificial, basis entry n + k for row
    artificial_rows[k], so the basic columns form an identity. The objective
    rows hold Z_j - C_j: no basic column has a finite cost, so z_fin is -c and
    obj_fin 0; each basic artificial costs -M, so z_m is minus the sum of the
    artificial rows and obj_m minus the sum of their rhs. A form with no
    artificial starts in phase 2, with no M row.
    """
    base, rows = form.base, form.artificial_rows
    m, n = base.a.shape
    full = np.zeros((m + 2 if rows.size else m + 1, n + 1))
    full[:m, :n] = base.a
    full[:m, n] = base.b
    basis = np.empty(m, dtype=np.intp)
    basis[base.slack_rows] = base.n_structural + np.arange(base.slack_rows.size)
    basis[rows] = n + np.arange(rows.size)
    full[m, :n] = 0.0 - base.c  # +0.0, not -0.0, where c is zero
    if rows.size:
        c_m_basic = np.zeros(m)
        c_m_basic[rows] = -1.0
        full[m + 1, :n] = c_m_basic @ full[:m, :n]
        full[m + 1, n] = c_m_basic @ base.b  # not the strided rhs: it rounds differently
    return Tableau(full, tuple(basis.tolist()))


def select_entering(t: Tableau, opts: SimplexOptions) -> int | None:
    """Column with the most negative objective entry, or None at optimality.

    Entries compare by M coefficient first, then by finite part; ties go to
    the smallest column index. An M coefficient within pivot_tol of zero is
    rounding noise and counts as zero, so a 1e-17 residue cannot outrank a
    genuinely negative finite part. Under Bland's rule the first negative
    column wins outright. With no M row (phase 2) only z_fin is read.
    """
    tol = opts.pivot_tol
    z_m, z_fin = t.z_m, t.z_fin
    if z_m is None:
        if opts.anti_cycling == BLAND:
            negative = z_fin < -tol
            enter = int(negative.argmax())  # the first True
            return enter if negative[enter] else None
        enter = int(z_fin.argmin())
        return enter if z_fin[enter] < -tol else None
    if opts.anti_cycling == BLAND:
        candidates = ((z_m < -tol) | ((np.abs(z_m) <= tol) & (z_fin < -tol))).nonzero()[0]
        return int(candidates[0]) if candidates.size else None
    # argmin returns the first of equal minima: the smallest column index.
    enter = int(z_m.argmin())
    best = z_m[enter]
    if best < -tol:
        tied = (z_m == best).nonzero()[0]
        return int(tied[z_fin[tied].argmin()])
    finite = np.where(np.abs(z_m) <= tol, z_fin, 0.0)
    enter = int(finite.argmin())
    return enter if finite[enter] < -tol else None


def select_leaving(t: Tableau, enter: int, opts: SimplexOptions) -> int | None:
    """Minimum-ratio row for the entering column, or None when unbounded.

    Only rows with a strictly positive column entry compete; ratio ties are
    broken by the smallest basic variable index.
    """
    col = t.body[:, enter]
    rows = (col > opts.pivot_tol).nonzero()[0]
    if not rows.size:
        return None
    ratios = t.rhs[rows] / col[rows]
    tied = rows[ratios == ratios.min()]
    if tied.size == 1:
        return int(tied[0])
    return min(tied.tolist(), key=t.basis.__getitem__)


def pivot(t: Tableau, row: int, col: int, pivot_tol: float = SimplexOptions.pivot_tol) -> Tableau:
    """Gauss-Jordan pivot on (row, col), in place; returns t.

    One rank-1 update covers the body, rhs and the objective rows: each entry
    is updated as entry - factor * pivot_row_entry, one multiply then one
    subtract.
    """
    full = t.full
    p = float(full[row, col])
    if abs(p) <= pivot_tol:
        raise ZeroPivot(f"pivot element {p!r} at row {row}, column {col}")
    full[row] /= p
    factors = full[:, col].copy()
    factors[row] = 0.0
    full -= factors[:, None] * full[row]
    # The pivot column is a unit vector by construction; make it exact.
    full[:, col] = 0.0
    full[row, col] = 1.0
    # The ratio test guarantees rhs >= 0 mathematically; clear rounding dust.
    rhs = t.rhs
    low = float(rhs.min())
    if low < 0.0:
        window = pivot_tol * (1.0 + max(float(rhs.max()), -low))
        rhs[(rhs < 0.0) & (rhs >= -window)] = 0.0
    t.basis = t.basis[:row] + (int(col),) + t.basis[row + 1 :]
    return t


def _artificial_left(t: Tableau, form: BigMForm) -> bool:
    """Whether a basic artificial exceeds FEASIBILITY_TOL * (1 + |b_i|), b_i
    the right-hand side of the row it was added for."""
    k = np.array(t.basis) - form.base.n_cols  # artificial k, or negative
    basic = k >= 0
    b = form.base.b[form.artificial_rows[k[basic]]]
    return bool((t.rhs[basic] > FEASIBILITY_TOL * (1.0 + np.abs(b))).any())


def solve_simplex(
    model: LPModel,
    opts: SimplexOptions | None = None,
    on_pivot: Callable[[int, int, int, float, float], None] | None = None,
) -> Solution:
    """Run the Big-M simplex on a model.

    Phase 1 pivots on the (m + 2) x (n + 1) tableau over the equality form's
    n columns while an artificial is basic. After the pivot that takes the
    last one out of the basis, phase 2 goes on with the first m + 1 rows of
    the same array, without the M row; a form with no artificial starts
    there. An artificial has no column, so it cannot re-enter.

    Pivots until no entering column remains (optimal or, if an artificial is
    still basic above tolerance, infeasible), the ratio test finds no row
    (unbounded, or infeasible when artificials remain), or max_pivots is hit
    (iteration limit; the last tableau is reported, which is also the best
    since the objective never decreases).

    The default entering rule is largest coefficient; after 3m consecutive
    degenerate pivots the engine switches to Bland's rule for the rest of the
    run, which prevents cycling.

    ``on_pivot``, when given, is called after every pivot with
    (pivot_count, entering_col, leaving_col, objective_finite, objective_m),
    the objective in the internal maximize sense; objective_m is exactly 0.0
    once no artificial is basic.
    """
    opts = opts or SimplexOptions()
    form = to_big_m_form(model)
    t = init_tableau(form)
    m_rows = t.rhs.shape[0]
    n_base = form.base.n_cols  # basis entries from n_base on are artificials

    effective = opts
    degenerate_run = 0
    pivots = 0
    status = Status.ITERATION_LIMIT
    for _ in range(opts.max_pivots):
        enter = select_entering(t, effective)
        if enter is None:
            status = Status.OPTIMAL
            break
        leave = select_leaving(t, enter, effective)
        if leave is None:
            status = Status.UNBOUNDED
            break
        degenerate = t.rhs[leave] <= opts.pivot_tol * (1.0 + float(np.abs(t.rhs).max()))
        leaving_col = t.basis[leave]
        t = pivot(t, leave, enter, opts.pivot_tol)
        pivots += 1
        if leaving_col >= n_base and max(t.basis) < n_base:
            # No artificial is basic any more: in exact arithmetic z_m and
            # obj_m are 0. Drop the M row, with its rounding residue.
            t.drop_m_row()
        if on_pivot is not None:
            on_pivot(pivots, enter, leaving_col, t.obj_fin, t.obj_m)
        degenerate_run = degenerate_run + 1 if degenerate else 0
        if effective.anti_cycling != BLAND and degenerate_run >= 3 * m_rows:
            effective = replace(opts, anti_cycling=BLAND)

    base = form.base
    if _artificial_left(t, form):
        # No feasible basis was reached: an optimal or unbounded stop proves
        # infeasibility, and at the limit the point means nothing.
        if status is not Status.ITERATION_LIMIT:
            status = Status.INFEASIBLE
        return solution_at(base, status, pivots)
    if status is Status.UNBOUNDED:
        return solution_at(base, status, pivots)
    x_full = np.zeros(n_base + form.artificial_rows.size)  # a level-0 artificial may stay basic
    x_full[list(t.basis)] = np.where(t.rhs > 0.0, t.rhs, 0.0)
    return solution_at(base, status, pivots, x_full[: base.n_cols])
