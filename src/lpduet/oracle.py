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
Candidates are taken 64 at a time, in lexicographic order of their basis
columns, as the n - m nonbasic columns that index their tight rows. Each
system is factored in place by LAPACK's partial-pivoting LU; the division
leaves each nonzero row a largest |entry| of exactly 1, so one is nonsingular,
and solved in place, when no LU pivot falls below SINGULAR_RTOL. A basic
slack's value then follows from its own unscaled row, and the point's
nonbasic entries are set to 0. Those two kernel calls are the only work per
basis: feasibility is tested once per batch, and brute_force_optimum prices
only the feasible points.

The kernels are scipy's dgetrf and dgetrs from model.lapack, called through
the module attributes lu_factor and lu_solve so that tools can count and time
them. Importing this module loads them; the package imports it on first use.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import TooLarge
from .model import SINGULAR_RTOL, Solution, StandardForm, Status, independent_rows, lapack, solution_at

lu_factor, lu_solve = lapack().dgetrf, lapack().dgetrs

MAX_BASES = 10**6
FEASIBLE_TOL = 1e-9
TIE_RTOL = 1e-12
# Candidates per batch. A process that imports lpduet and runs
# brute_force_optimum(LANA) 15 times peaks (VmHWM) at 33.5-33.7 MB at 64, and
# about 0.3 MB higher at 128 and 0.6 MB at 256, where its fastest run takes
# 113-133 and 107 ms against 122-135 ms at 64 (three processes each, 2-core
# machine, numpy 2.4, scipy 1.17).
_BATCH = 64


def _descending_subsets(n: int, k: int, batch: int) -> Iterator[np.ndarray]:
    """Yield the k-subsets of range(n), one ascending row each, ``batch`` rows
    at a time, in descending lexicographic order.

    These are the complements, in order, of itertools.combinations(range(n),
    n - k) (Knuth, TAOCP 4A, section 7.2.1.3). For c from n - k down to 0,
    the block of those that begin with c is c followed by the first
    C(n - c - 1, k - 1) of the (k - 1)-subsets of range(n - 1) in the same
    order, each entry plus one. That one table serves every block; it is
    built the same way, a level at a time from the 0-subsets of range(n - k),
    with no recursion. Entries are uint8 when n < 256.
    """
    table = np.empty((1, 0), dtype=np.uint8)
    for j in range(1, k + 1):
        # table holds the (j - 1)-subsets of range(w - 1); this level makes
        # the j-subsets of range(w), all in one batch below the last level.
        w = n - k + j
        total = math.comb(w, j)
        size = batch if j == k else total
        blocks = ((c, table[: math.comb(w - c - 1, j - 1)]) for c in range(w - j, -1, -1))
        c, block = next(blocks)
        for start in range(0, total, size):
            out = np.empty((min(size, total - start), j), dtype=np.uint8 if w < 256 else np.intp)
            filled = 0
            while filled < len(out):
                if not len(block):
                    c, block = next(blocks)
                take = min(len(out) - filled, len(block))
                out[filled : filled + take, 0] = c
                np.add(block[:take], 1, out=out[filled : filled + take, 1:])
                block = block[take:]
                filled += take
            if j == k:
                yield out
        table = out
    if k == 0:
        yield table


def _nonsingular_batches(form: StandardForm) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (nonbasic, points) for the nonsingular bases, one batch at a time.

    ``nonbasic`` is a K x (n - m) array of each basis's nonbasic columns, the
    bases in lexicographic order, and ``points`` the K x n basic solutions,
    each nonbasic entry exactly 0. Raises TooLarge when no rank the form can
    have keeps the subsets within MAX_BASES (an over-budget inconsistent
    system refuses too), or when the row rank of A, the basis size once
    redundant equality rows are dropped, does not. Otherwise an
    inconsistent system yields nothing, and a consistent one of rank 0 the
    empty basis alone: the origin.
    """
    n = form.a.shape[1]
    if all(math.comb(n, k) > MAX_BASES for k in range(len(form.slack_rows), form.n_rows + 1)):
        raise TooLarge(f"more than {MAX_BASES} candidate bases for every possible rank")
    kept = independent_rows(form)
    if kept is None:
        return
    m = kept.a.shape[0]
    total = math.comb(n, m)
    if total > MAX_BASES:
        raise TooLarge(f"{total} candidate bases exceed the budget of {MAX_BASES}")
    p = kept.n_structural
    slack, eq = kept.slack_rows, kept.equality_rows
    slack_a, slack_b = kept.a[slack, :p], kept.b[slack]
    slack_coef = kept.a[slack, p + np.arange(slack.size)]
    # Row j < n of the table is the constraint that column j's being nonbasic
    # makes tight: x_j = 0 for a structural column, its own row for a slack or
    # surplus. The = rows follow; they are tight in every candidate.
    tight = np.concatenate([np.eye(p), slack_a, kept.a[eq, :p]])
    tight_b = np.concatenate([np.zeros(p), slack_b, kept.b[eq]])
    # Each row scaled to a largest |entry| of exactly 1 (a / a is 1 in IEEE
    # arithmetic), so that the pivot test below does not take a row that is
    # small next to the others for a zero row. A slack row is scaled by its
    # structural part, the part in the table; a zero row stays zero.
    row_scale = np.abs(tight).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    tight /= row_scale[:, np.newaxis]
    tight_b /= row_scale
    flat_t = tight.T.ravel()  # tight[r, j] is flat_t[j * len(tight) + r]
    starts = len(tight) * np.arange(p)[:, np.newaxis]
    diagonal = np.arange(p)
    for nonbasic in _descending_subsets(n, n - m, _BATCH):
        # rows[i]: candidate i's tight constraints, its nonbasic columns then the = rows.
        rows = np.empty((len(nonbasic), p), dtype=np.intp)
        rows[:, : n - m] = nonbasic
        rows[:, n - m :] = np.arange(n, len(tight))
        # subs[i, r, j] is tight[rows[i, r], j]. take returns a C-ordered
        # [i, j, r] array, so each subs[i] is Fortran-contiguous: LAPACK
        # factors it in place and the LU diagonal is read from subs itself.
        subs = flat_t.take(rows[:, np.newaxis, :] + starts).transpose(0, 2, 1)
        # overwrite_a=1; trans=0, overwrite_b=1 by position: a keyword costs f2py 0.2 us.
        pivots = [lu_factor(sub, 1)[1] for sub in subs]
        smallest = np.abs(subs[:, diagonal, diagonal]).min(axis=1)
        keep = np.flatnonzero(smallest >= SINGULAR_RTOL)
        # Row j: candidate keep[j]'s right-hand side, then its solution.
        structural = tight_b[rows[keep]]
        for i, rhs in zip(keep.tolist(), structural):
            lu_solve(subs[i], pivots[i], rhs, 0, 1)
        # Each basic slack from its own unscaled row, summed per candidate: a
        # matrix product over the batch would round differently by _BATCH.
        slacks = (slack_b - (slack_a * structural[:, np.newaxis]).sum(axis=2)) / slack_coef
        points = np.concatenate([structural, slacks], axis=1)
        np.put_along_axis(points, nonbasic[keep], 0.0, axis=1)
        yield nonbasic[keep], points


def brute_force_optimum(form: StandardForm) -> Solution:
    """Best feasible basic solution, or INFEASIBLE when none exists.

    The winner is the lexicographically first feasible basis whose objective
    lies within TIE_RTOL * (1 + |best|) of the best, so that rounding in the
    last bits does not pick among bases that tie. ``iterations`` counts the
    nonsingular bases actually examined. Raises TooLarge as
    _nonsingular_batches does.
    """
    # Feasible points in basis order, each within the tie band of the best
    # objective so far; the band's floor only rises as the best does.
    contenders: list[tuple[float, np.ndarray]] = []
    best = floor = -math.inf
    count = 0
    for _, points in _nonsingular_batches(form):
        count += len(points)
        for x in points[(points >= -FEASIBLE_TOL).all(axis=1)]:
            # c @ x per point: a product over the batch would round by _BATCH.
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
