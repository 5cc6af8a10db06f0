"""Dense kernel checks: validation, Gram products, Cholesky factors, SPD solves."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import rng_for
from lpduet import DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from lpduet.linalg import as_matrix, as_vector, cholesky, gram, solve_spd


def test_as_vector_accepts_lists_and_rejects_bad_shapes():
    npt.assert_array_equal(as_vector([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0, 2.0]])
    with pytest.raises(NonFiniteInput):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteInput):
        as_vector([np.inf, 0.0])


def test_as_matrix_accepts_nested_lists_and_rejects_bad_shapes():
    npt.assert_array_equal(as_matrix([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(NonFiniteInput):
        as_matrix([[np.nan]])


def _mirrored_reference_solve(a, b):
    """The solve before the kernel change: the Gram matrix mirrored from its
    upper triangle, then scipy's cho_factor/cho_solve on its lower triangle."""
    g = a @ a.T
    s = np.triu(g) + np.triu(g, 1).T
    return cho_solve(cho_factor(s, lower=True, check_finite=False), b, check_finite=False)


def test_gram_is_the_raw_product():
    rng = rng_for(12)
    for _ in range(20):
        a = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        assert gram(a).tobytes() == (a @ a.T).tobytes()


def test_solve_from_gram_matches_the_mirrored_reference_bit_for_bit():
    rng = rng_for(14)
    for _ in range(20):
        m = int(rng.integers(1, 8))
        a = rng.normal(size=(m, m + int(rng.integers(0, 6))))
        b = rng.normal(size=m)
        x = solve_spd(cholesky(gram(a)), b)
        assert x.tobytes() == _mirrored_reference_solve(a, b).tobytes()


def test_solve_spd_meets_residual_target():
    rng = rng_for(13)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n + 2))
        s = gram(a) + np.eye(n) * 0.5
        b = rng.normal(size=n)
        x = solve_spd(cholesky(s), b)
        resid = np.linalg.norm(s @ x - b)
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(b))


def test_solve_spd_identity_is_exact():
    b = np.array([3.0, -1.5, 0.25])
    npt.assert_array_equal(solve_spd(cholesky(np.eye(3)), b), b)


# A factor that cholesky did not make: solve_spd must load LAPACK itself.
SOLVE_FIRST = """
import numpy as np
from lpduet import linalg
assert linalg._potrs is None
s = np.array([[4.0, 2.0], [2.0, 3.0]])
x = linalg.solve_spd(np.asfortranarray(np.linalg.cholesky(s)), np.array([2.0, 1.0]))
assert np.allclose(s @ x, [2.0, 1.0], rtol=0.0, atol=1e-14), x
"""


def test_solve_spd_loads_lapack_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_FIRST], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_solve_spd_with_no_rows_is_empty():
    x = solve_spd(cholesky(np.zeros((0, 0))), np.zeros(0))
    assert x.shape == (0,)


def test_solve_spd_rejects_indefinite_matrix():
    s = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPositiveDefinite):
        solve_spd(cholesky(s), np.ones(2))


def test_solve_spd_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        solve_spd(cholesky(np.ones((2, 3))), np.ones(2))


def test_solve_spd_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        solve_spd(cholesky(np.eye(2)), np.ones(3))
