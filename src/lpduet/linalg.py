"""Input coercion for the model layer and the affine engine; the affine Gram and SPD kernels.

The SPD kernels are LAPACK's dpotrf/dpotrs called directly: a matrix is
factored once by ``cholesky`` and each right-hand side is solved from that
factor by ``solve_spd``. scipy.linalg is imported on the first factorization,
so importing lpduet and parsing LP text do not load it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite

# scipy.linalg.lapack's dpotrf and dpotrs, bound by load_lapack on first use.
_potrf = _potrs = None


def load_lapack() -> None:
    """Import scipy.linalg's LAPACK kernels now rather than on the first solve."""
    global _potrf, _potrs
    from scipy.linalg.lapack import dpotrf, dpotrs

    _potrf, _potrs = dpotrf, dpotrs


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
    """The raw product A A^T, not mirrored: ``cholesky`` reads only its upper
    triangle."""
    a = as_matrix(a)
    return a @ a.T


def cholesky(s) -> np.ndarray:
    """Cholesky factor of a symmetric positive definite S, for ``solve_spd``.

    Only the upper triangle of S is read: LAPACK factors the lower triangle of
    the transposed view S^T. A nonpositive pivot raises NotPositiveDefinite.
    The factor is the lower triangle of the result, in Fortran order; the
    strict upper triangle is left as it was and never read.
    """
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"matrix of shape {s.shape} is not square")
    if _potrf is None:
        load_lapack()
    factor, info = _potrf(s.T, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return factor


def solve_spd(factor: np.ndarray, b) -> np.ndarray:
    """Solve S x = b from S's ``cholesky`` factor; S is never inverted.

    A system with no rows has the empty solution.
    """
    b = as_vector(b)
    n = factor.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"matrix is {n}x{n} but right-hand side has {b.shape[0]} entries"
        )
    if n == 0:
        return np.zeros(0)  # LAPACK's wrapper rejects a 0 x 0 system
    if _potrs is None:
        load_lapack()
    return _potrs(factor, b, lower=1)[0]
