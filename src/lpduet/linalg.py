"""Dense kernels shared by both engines: input coercion, Gram matrices, SPD solves."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got array of shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("vector contains NaN or infinity")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix contains NaN or infinity")
    return m


def gram(a) -> np.ndarray:
    """A A^T, mirrored from its upper triangle so it is symmetric entry for entry."""
    a = as_matrix(a)
    g = a @ a.T
    return np.triu(g) + np.triu(g, 1).T


def solve_spd(s, b, ridge: float = 0.0) -> np.ndarray:
    """Solve (S + ridge*I) x = b for symmetric positive definite S.

    The system is factored once (Cholesky) and never inverted. Only the lower
    triangle of S is read. A nonpositive pivot raises NotPositiveDefinite,
    which callers read as rank deficiency of the underlying constraint matrix.
    """
    s = as_matrix(s)
    b = as_vector(b)
    n = s.shape[0]
    if s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"matrix of shape {s.shape} is not square")
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"matrix is {n}x{n} but right-hand side has {b.shape[0]} entries"
        )
    if ridge < 0.0:
        raise ValueError("ridge must be nonnegative")

    work = s if ridge == 0.0 else s + ridge * np.eye(n)
    try:
        factor = cho_factor(work, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    return cho_solve(factor, b, check_finite=False)
