"""Brute-force ground truth: enumerate every basic solution of an equality form.

Exponential by design; the subset budget keeps it honest. Used to cross-check
both engines on small instances and on the bundled LANA model (C(21,15) =
54,264 bases). The budget is tested before the rank, which lies between the
count of slack and surplus columns (unit vectors on distinct rows) and the row
count. Dependent equality rows are dropped by model.independent_rows, and
each kept row of A and b is divided by its largest |entry|. Subsets are
gathered 64 at a time and each is factored in place by LAPACK's
partial-pivoting LU; one is nonsingular, and solved, when its largest entry is
nonzero and no LU pivot falls below SINGULAR_RTOL times that entry. Those two
kernel calls are the only work done per basis: feasibility (every basic value
>= -FEASIBLE_TOL) is tested once per batch, and brute_force_optimum builds a
point and an objective only for the feasible bases.

The kernels are scipy's dgetrf and dgetrs, called through the module
attributes lu_factor and lu_solve so that tools can count and time them.
Importing this module loads scipy.linalg; the package imports it on first use.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np
from scipy.linalg.lapack import dgetrf as lu_factor, dgetrs as lu_solve

from .errors import TooLarge
from .model import SINGULAR_RTOL, Solution, StandardForm, Status, independent_rows, solution_at

MAX_BASES = 10**6
FEASIBLE_TOL = 1e-9
_BATCH = 64  # larger batches only raise the peak memory


def _nonsingular_batches(form: StandardForm) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (columns, values) for the nonsingular bases, one batch at a time.

    ``columns`` is a k x m array of basis column indices, in lexicographic
    order, and ``values`` the k x m basic values. Raises TooLarge when no rank
    the form can have keeps the subsets within MAX_BASES (an over-budget
    inconsistent system refuses too), or when the row rank of A, the basis
    size once redundant equality rows are dropped, does not. Otherwise an
    inconsistent system yields nothing.
    """
    n = form.a.shape[1]
    if all(math.comb(n, k) > MAX_BASES for k in range(len(form.slack_rows), form.n_rows + 1)):
        raise TooLarge(f"more than {MAX_BASES} candidate bases for every possible rank")
    kept = independent_rows(form)
    if kept is None:
        return
    m = kept.a.shape[0]
    if m == 0:
        # A is (numerically) zero and b consistent: only the origin is basic.
        yield np.empty((1, 0), dtype=np.intp), np.empty((1, 0))
        return
    total = math.comb(n, m)
    if total > MAX_BASES:
        raise TooLarge(f"{total} candidate bases exceed the budget of {MAX_BASES}")
    # Each row scaled to a largest entry of 1, so that the pivot test below
    # does not take a row that is small next to the others for a zero row.
    row_scale = np.abs(kept.a).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    a = kept.a / row_scale[:, None]  # a new float64 array: dgetrf works in place on it
    b = kept.b / row_scale
    diagonal = np.arange(m)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), m))
    for start in range(0, total, _BATCH):
        size = min(_BATCH, total - start)
        idx = np.fromiter(flat, dtype=np.intp, count=size * m).reshape(size, m)
        # subs[k] is candidate k's submatrix in Fortran order (a transposed
        # view of one gathered block), so LAPACK factors it in place.
        subs = a.T[idx].transpose(0, 2, 1)
        scale = np.abs(subs).max(axis=(1, 2))
        pivots = [lu_factor(sub, overwrite_a=1)[1] for sub in subs]
        smallest = np.abs(subs[:, diagonal, diagonal]).min(axis=1)
        keep = np.flatnonzero((smallest >= SINGULAR_RTOL * scale) & (scale > 0.0))
        xbs = [lu_solve(subs[k], pivots[k], b)[0] for k in keep.tolist()]
        yield idx[keep], np.array(xbs).reshape(len(keep), m)


def brute_force_optimum(form: StandardForm) -> Solution:
    """Best feasible basic solution, or INFEASIBLE when none exists.

    Strict improvement keeps the earlier basis on objective ties, so the
    winner is the lexicographically smallest optimal basis. ``iterations``
    counts the nonsingular bases actually examined. Raises TooLarge as
    _nonsingular_batches does.
    """
    n = form.a.shape[1]
    best: np.ndarray | None = None
    best_objective = 0.0
    count = 0
    for idx, xbs in _nonsingular_batches(form):
        count += len(idx)
        for k in np.flatnonzero((xbs >= -FEASIBLE_TOL).all(axis=1)):
            x = np.zeros(n)
            x[idx[k]] = xbs[k]
            objective = float(form.c @ x)
            if best is None or objective > best_objective:
                best, best_objective = x, objective
    if best is None:
        return solution_at(form, Status.INFEASIBLE, count)
    return solution_at(form, Status.OPTIMAL, count, best)
