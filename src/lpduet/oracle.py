"""Brute-force ground truth: enumerate every basic solution of an equality form.

Exponential by design; the subset budget keeps it honest. Used to cross-check
both engines on small instances and on the bundled LANA model (C(21,15) =
54,264 bases). The budget is tested before the rank, which lies between the
count of slack and surplus columns (unit vectors on distinct rows) and the row
count. Dependent equality rows are dropped by model.independent_rows.

A basis fixes its nonbasic columns at zero, so it is settled by the p
constraints it makes tight, p being the number of structural variables: x_j =
0 for each nonbasic structural j, the structural part of the row of each
nonbasic slack or surplus column, and every kept = row (Bertsimas & Tsitsiklis,
Introduction to Linear Optimization, 1997, section 2.2). Each of those
constraints is divided by its largest |entry|, so a row far smaller than its
slack coefficient still counts, and each candidate is factored as its p x p
system, not as its m x m submatrix: 6 x 6 in place of 15 x 15 on LANA.
Candidates are gathered 64 at a time, in lexicographic order of their basis
columns, and each system is factored in place by LAPACK's partial-pivoting
LU; one is nonsingular, and solved, when its largest entry is nonzero and no
LU pivot falls below SINGULAR_RTOL times that entry. A basic slack's value
then follows from its own unscaled row. Those two kernel calls are the only
work done per basis: feasibility (every basic value >= -FEASIBLE_TOL) is
tested once per batch, and brute_force_optimum builds a point and an
objective only for the feasible bases.

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
TIE_RTOL = 1e-12
# Candidates per batch. The peak resident memory (VmHWM) of a process that
# imports lpduet and cross-checks LANA is 58.3-58.4 MB at 64, against
# 58.5 MB with the earlier 15 x 15 factorization, and 58.7-58.8 MB at 128,
# 59.4 MB at 512 and 60.4-60.7 MB at 1024 (three runs each), while larger
# batches save no measurable time.
_BATCH = 64


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
    p = kept.n_structural
    slack = kept.slack_rows
    slack_a, slack_b = kept.a[slack, :p], kept.b[slack]
    slack_coef = kept.a[slack, p + np.arange(slack.size)]
    eq = np.setdiff1d(np.arange(m), slack)
    # Row j < n of the table is the constraint that column j's being nonbasic
    # makes tight: x_j = 0 for a structural column, its own row for a slack or
    # surplus. The = rows follow; they are tight in every candidate.
    tight = np.concatenate([np.eye(p), slack_a, kept.a[eq, :p]])
    tight_b = np.concatenate([np.zeros(p), slack_b, kept.b[eq]])
    # Each row scaled to a largest entry of 1, so that the pivot test below
    # does not take a row that is small next to the others for a zero row.
    # A slack row is scaled by its structural part, the part in the table.
    row_scale = np.abs(tight).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    tight /= row_scale[:, np.newaxis]
    tight_b /= row_scale
    tight_largest = np.abs(tight).max(axis=1)
    diagonal = np.arange(p)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), m))
    for start in range(0, total, _BATCH):
        size = min(_BATCH, total - start)
        idx = np.fromiter(flat, dtype=np.intp, count=size * m).reshape(size, m)
        is_tight = np.ones((size, len(tight)), dtype=bool)
        is_tight[np.arange(size)[:, np.newaxis], idx] = False
        # rows[k] lists candidate k's p tight constraints in table order.
        rows = is_tight.nonzero()[1].reshape(size, p)
        # subs[k, i, j] is tight[rows[k, i], j], gathered through tight.T so
        # that each subs[k] is Fortran-contiguous: LAPACK factors it in place
        # and the LU diagonal is read from subs itself.
        subs = tight.T[diagonal[:, np.newaxis], rows[:, np.newaxis, :]].transpose(0, 2, 1)
        scale = tight_largest[rows].max(axis=1)
        pivots = [lu_factor(sub, overwrite_a=1)[1] for sub in subs]
        smallest = np.abs(subs[:, diagonal, diagonal]).min(axis=1)
        keep = np.flatnonzero((smallest >= SINGULAR_RTOL * scale) & (scale > 0.0))
        rhs = tight_b[rows]
        xs = [lu_solve(subs[k], pivots[k], rhs[k])[0] for k in keep.tolist()]
        structural = np.array(xs).reshape(len(keep), p)
        # Each basic slack from its own unscaled row: an elementwise product
        # summed per candidate, not a matrix product over the batch, whose
        # rounding would depend on _BATCH.
        slacks = (slack_b - (slack_a * structural[:, np.newaxis]).sum(axis=2)) / slack_coef
        columns = idx[keep]
        values = np.concatenate([structural, slacks], axis=1)
        yield columns, values[np.arange(len(keep))[:, np.newaxis], columns]


def brute_force_optimum(form: StandardForm) -> Solution:
    """Best feasible basic solution, or INFEASIBLE when none exists.

    The winner is the lexicographically first feasible basis whose objective
    lies within TIE_RTOL * (1 + |best|) of the best, so that rounding in the
    last bits does not pick among bases that tie. ``iterations`` counts the
    nonsingular bases actually examined. Raises TooLarge as
    _nonsingular_batches does.
    """
    n = form.a.shape[1]
    # Feasible points in basis order, each within the tie band of the best
    # objective so far; the band's floor only rises as the best does.
    contenders: list[tuple[float, np.ndarray]] = []
    best = floor = -math.inf
    count = 0
    for idx, xbs in _nonsingular_batches(form):
        count += len(idx)
        for k in np.flatnonzero((xbs >= -FEASIBLE_TOL).all(axis=1)):
            x = np.zeros(n)
            x[idx[k]] = xbs[k]
            objective = float(form.c @ x)
            if objective > best:
                best = objective
                floor = best - TIE_RTOL * (1.0 + abs(best))
                contenders = [c for c in contenders if c[0] >= floor]
            if objective >= floor:
                contenders.append((objective, x))
    if not contenders:
        return solution_at(form, Status.INFEASIBLE, count)
    return solution_at(form, Status.OPTIMAL, count, contenders[0][1])
