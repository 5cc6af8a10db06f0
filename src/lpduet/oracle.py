"""Brute-force ground truth: enumerate every basic solution of an equality form.

Exponential by design; the subset budget keeps it honest. Used to cross-check
both engines on small instances and on the bundled LANA model (C(21,15) =
54,264 bases). The budget is tested before the rank, which lies between the
count of slack and surplus columns (unit vectors on distinct rows) and the row
count. Subsets are gathered 64 at a time and each is factored in place by
LAPACK's partial-pivoting LU; one is nonsingular, and solved, when its largest
entry is nonzero and no LU pivot falls below SINGULAR_RTOL times that entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg import qr
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import TooLarge
from .model import Solution, StandardForm, Status, solution_at

MAX_BASES = 10**6
SINGULAR_RTOL = 1e-10
FEASIBLE_TOL = 1e-9
_BATCH = 64  # larger batches only raise the peak memory
# scipy.linalg.lu_factor/lu_solve's LAPACK kernels without their per-call
# dispatch, kept under these names and called once per candidate and once per
# nonsingular candidate: tools count and time the oracle through them.
lu_factor = dgetrf
lu_solve = dgetrs


@dataclass(frozen=True, eq=False)
class BasicSolution:
    """One basis and its basic solution (nonbasic entries exactly zero);
    ``objective`` is form.c @ x, in the internal maximize sense."""

    basis: tuple[int, ...]
    x: np.ndarray
    feasible: bool
    objective: float


def _independent_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Indices of a maximal independent row set, or None when A x = b has
    no solution at all (b outside the row space's reach)."""
    rank = int(np.linalg.matrix_rank(a))
    if rank == a.shape[0]:
        return np.arange(a.shape[0])
    if int(np.linalg.matrix_rank(np.column_stack([a, b]))) > rank:
        return None
    _, _, piv = qr(a.T, mode="economic", pivoting=True)
    return np.sort(piv[:rank])


def enumerate_basic_solutions(form: StandardForm) -> Iterator[BasicSolution]:
    """Yield a BasicSolution for every nonsingular basis-sized column subset.

    Raises TooLarge when no rank the form can have keeps the subsets within
    MAX_BASES (an over-budget inconsistent system refuses too), or when the
    row rank of A, the basis size once redundant equality rows are dropped,
    does not. Otherwise an inconsistent system yields nothing. Subsets come in
    lexicographic column order; feasible means every basic value >= -1e-9.
    """
    n = form.a.shape[1]
    if all(math.comb(n, k) > MAX_BASES for k in range(len(form.slack_rows), form.n_rows + 1)):
        raise TooLarge(f"more than {MAX_BASES} candidate bases for every possible rank")
    rows = _independent_rows(form.a, form.b)
    if rows is None:
        return
    a = form.a[rows].astype(np.float64, copy=False)  # dgetrf works in place on float64
    b = form.b[rows]
    m = a.shape[0]
    if m == 0:
        # A is (numerically) zero and b consistent: only the origin is basic.
        yield BasicSolution((), np.zeros(n), True, 0.0)
        return
    total = math.comb(n, m)
    if total > MAX_BASES:
        raise TooLarge(f"{total} candidate bases exceed the budget of {MAX_BASES}")
    diagonal = np.arange(m)
    subsets = itertools.combinations(range(n), m)
    while batch := list(itertools.islice(subsets, _BATCH)):
        # stack[k] is the transpose of candidate k's submatrix, so stack[k].T
        # is that submatrix in Fortran order and LAPACK factors it in place.
        idx = np.array(batch)
        stack = a.T[idx]
        scale = np.abs(stack).max(axis=(1, 2))
        pivots = [lu_factor(sub.T, overwrite_a=1)[1] for sub in stack]
        smallest = np.abs(stack[:, diagonal, diagonal]).min(axis=1)
        for k in np.flatnonzero((smallest >= SINGULAR_RTOL * scale) & (scale > 0.0)):
            xb = lu_solve(stack[k].T, pivots[k], b)[0]
            x = np.zeros(n)
            x[idx[k]] = xb
            yield BasicSolution(batch[k], x, bool(xb.min() >= -FEASIBLE_TOL), float(form.c @ x))


def brute_force_optimum(form: StandardForm) -> Solution:
    """Best feasible basic solution, or INFEASIBLE when none exists.

    Strict improvement keeps the earlier basis on objective ties, so the
    winner is the lexicographically smallest optimal basis. ``iterations``
    counts the nonsingular bases actually examined.
    """
    best: BasicSolution | None = None
    count = 0
    for cand in enumerate_basic_solutions(form):
        count += 1
        if cand.feasible and (best is None or cand.objective > best.objective):
            best = cand
    if best is None:
        return solution_at(form, Status.INFEASIBLE, count)
    return solution_at(form, Status.OPTIMAL, count, best.x)
