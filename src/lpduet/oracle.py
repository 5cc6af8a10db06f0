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
Candidates are taken _BATCH at a time, in lexicographic order of their basis
columns, as the n - m nonbasic columns that index their tight rows. Each
system is factored in place by LAPACK's partial-pivoting LU; the division
leaves each nonzero row a largest |entry| of exactly 1, so one is nonsingular,
and solved in place, when no LU pivot falls below SINGULAR_RTOL. A basic
slack's value then follows from its own unscaled row, and the point's
nonbasic entries are set to 0. Those two kernel calls are the only work per
basis: the systems are gathered, the slacks summed and feasibility tested
once per batch, and brute_force_optimum prices only the feasible points.

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
# Candidates per batch. A second brute_force_optimum(LANA) call peaks under
# tracemalloc at 168, 345, 458 and 921 KB at 64, 256, 384 and 1024, against
# the 512 KB that tests/test_oracle.py allows. A process that imports lpduet
# and cross-checks LANA once peaks (VmHWM) at 34.2, 34.5, 34.6 and 35.0 MB,
# and the oracle's median run takes 145, 104, 101 and 101 ms (11 interleaved
# processes, best of 7 runs each; 2-core machine, numpy 2.4, scipy 1.17).
# Wide forms pay for it: a max of 40 structural variables under 3 <= rows
# (12,341 candidates) took 0.38-0.49 s, against 0.30-0.34 s with the earlier
# batches of 64, and its tracemalloc peak rose from 2.9 to 5.9 MB: a batch's
# systems take _BATCH * p * p * 8 bytes, 4.9 MB at p = 40.
_BATCH = 384


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


def _pairwise_sum(term, start: int, stop: int) -> np.ndarray:
    """term(start) + ... + term(stop - 1), entry by entry, added in the order
    in which numpy's pairwise summation adds a contiguous row of the same
    stop - start floats: 0.0 plus the result has the bytes of that row's
    .sum(), without an array that holds every term at once.

    Below 8 terms the sum runs left to right. Up to 128 terms (numpy's
    PW_BLOCKSIZE), term j joins running sum (j - start) % 8, the 8 running
    sums are added in pairs, and the last (stop - start) % 8 terms follow one
    by one. Above 128 the range is split in two at a multiple of 8. Each
    term(j) must return a new array.
    """
    n = stop - start
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(term, start, start + half) + _pairwise_sum(term, start + half, stop)
    if n < 8:
        total = term(start)
        for j in range(start + 1, stop):
            total += term(j)
        return total
    sums = [term(j) for j in range(start, start + 8)]
    full = start + n - n % 8
    for j in range(start + 8, full):
        sums[(j - start) % 8] += term(j)
    total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5]) + (sums[6] + sums[7]))
    for j in range(full, stop):
        total += term(j)
    return total


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
    free = n - m  # nonbasic columns per candidate
    tight_t = tight.T.copy()  # row j: entry j of every tight row
    # systems[i, j, r] is entry j of candidate i's tight row r, so each
    # systems[i].T is its p x p system, Fortran-contiguous: LAPACK factors
    # it in place. One buffer serves every batch.
    systems = np.empty((min(_BATCH, total), p, p))
    diagonal = np.arange(p)
    for nonbasic in _descending_subsets(n, free, _BATCH):
        batch = systems[: len(nonbasic)]
        # Tight rows r < free are the candidate's nonbasic columns' rows; the
        # = rows follow, the same in every candidate.
        index = nonbasic.astype(np.intp)
        for j, entries in enumerate(tight_t):
            batch[:, j, :free] = entries.take(index)
        batch[:, :, free:] = tight_t[:, n:]
        # overwrite_a=1; trans=0, overwrite_b=1 by position: a keyword costs f2py 0.2 us.
        subs = batch.transpose(0, 2, 1)
        pivots = [lu_factor(sub, 1)[1] for sub in subs]
        keep = np.flatnonzero(np.abs(batch[:, diagonal, diagonal]).min(axis=1) >= SINGULAR_RTOL)
        chosen = nonbasic[keep]
        # Row j: candidate keep[j]'s right-hand side, solved in place, then
        # its slacks.
        points = np.empty((len(keep), n))
        points[:, :free] = tight_b[chosen]
        points[:, free:p] = tight_b[n:]
        structural = points[:, :p]
        for i, rhs in zip(keep.tolist(), structural):
            lu_solve(subs[i], pivots[i], rhs, 0, 1)
        del index, pivots  # freed before the slacks, where a batch's memory peaks
        # Each basic slack from its own unscaled row. Its p products are
        # added as numpy's .sum() adds a row of them, from 0.0 (which turns a
        # -0.0 total into 0.0), with no K x m x p array built; a matrix
        # product over the batch would round differently by _BATCH.
        slacks = points[:, p:]
        slacks[...] = _pairwise_sum(lambda j: np.multiply.outer(structural[:, j], slack_a[:, j]), 0, p)
        slacks += 0.0
        np.subtract(slack_b, slacks, out=slacks)
        slacks /= slack_coef
        points[np.arange(len(keep))[:, np.newaxis], chosen] = 0.0
        yield chosen, points


def brute_force_optimum(form: StandardForm) -> Solution:
    """Best feasible basic solution, or INFEASIBLE when none exists.

    The winner is the lexicographically first feasible basis whose objective
    lies within TIE_RTOL * (1 + |best|) of the best, so that rounding in the
    last bits does not pick among bases that tie. ``iterations`` counts the
    nonsingular bases actually examined, and the trace is empty. Raises
    TooLarge as _nonsingular_batches does.
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
