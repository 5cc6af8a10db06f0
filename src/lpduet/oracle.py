"""Brute-force ground truth: enumerate every basic solution of an equality form.

Exponential by design; the subset budget keeps it honest. Used to cross-check
both engines on small instances and on the bundled LANA model (C(21,15) =
54,264 bases). The budget is tested before the rank, which lies between the
count of slack and surplus columns (unit vectors on distinct rows) and the row
count. Dependent equality rows are dropped by model.independent_rows. Subsets
are gathered 64 at a time and each is factored in place by LAPACK's
partial-pivoting LU; one is nonsingular, and solved, when its largest entry is
nonzero and no LU pivot falls below SINGULAR_RTOL times that entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import TooLarge
from .model import SINGULAR_RTOL, Solution, StandardForm, Status, independent_rows, solution_at

MAX_BASES = 10**6
FEASIBLE_TOL = 1e-9
_BATCH = 64  # larger batches only raise the peak memory
_lapack_bound = False


def _bind_lapack() -> None:
    """Bind lu_factor and lu_solve to scipy.linalg.lu_factor/lu_solve's LAPACK
    kernels (dgetrf/dgetrs) without their per-call dispatch.

    They are module attributes, called once per candidate and once per
    nonsingular candidate, so tools can count and time the oracle through
    them. They are bound on first use, not on import, so that importing
    lpduet does not load scipy.linalg; once bound they are never rebound.
    """
    global _lapack_bound, lu_factor, lu_solve
    if not _lapack_bound:
        from scipy.linalg.lapack import dgetrf, dgetrs

        lu_factor, lu_solve = dgetrf, dgetrs
        _lapack_bound = True


def __getattr__(name: str):
    # The first lookup of lu_factor or lu_solve from outside the module binds
    # them both (PEP 562); a name deleted after that stays missing.
    if name in ("lu_factor", "lu_solve") and not _lapack_bound:
        _bind_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class BasicSolution:
    """One basis and its basic solution (nonbasic entries exactly zero);
    ``objective`` is form.c @ x, in the internal maximize sense."""

    basis: tuple[int, ...]
    x: np.ndarray
    feasible: bool
    objective: float


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
    kept = independent_rows(form)
    if kept is None:
        return
    a = kept.a.astype(np.float64, copy=False)  # dgetrf works in place on float64
    b = kept.b
    m = a.shape[0]
    if m == 0:
        # A is (numerically) zero and b consistent: only the origin is basic.
        yield BasicSolution((), np.zeros(n), True, 0.0)
        return
    total = math.comb(n, m)
    if total > MAX_BASES:
        raise TooLarge(f"{total} candidate bases exceed the budget of {MAX_BASES}")
    _bind_lapack()
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
