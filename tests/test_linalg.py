"""Dense kernel checks: validation, Gram products, SPD solves."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import rng_for
from lpduet import DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from lpduet.linalg import as_matrix, as_vector, gram, solve_spd


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


def test_gram_is_exactly_symmetric_and_correct():
    rng = rng_for(12)
    for _ in range(20):
        a = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        g = gram(a)
        assert np.array_equal(g, g.T)
        npt.assert_allclose(g, a @ a.T, rtol=1e-12, atol=1e-12)


def test_solve_spd_meets_residual_target():
    rng = rng_for(13)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n + 2))
        s = gram(a) + np.eye(n) * 0.5
        b = rng.normal(size=n)
        x = solve_spd(s, b)
        resid = np.linalg.norm(s @ x - b)
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(b))


def test_solve_spd_identity_is_exact():
    b = np.array([3.0, -1.5, 0.25])
    npt.assert_array_equal(solve_spd(np.eye(3), b), b)


def test_solve_spd_rejects_indefinite_matrix():
    s = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPositiveDefinite):
        solve_spd(s, np.ones(2))


def test_solve_spd_rejects_nonsquare_and_negative_ridge():
    with pytest.raises(DimensionMismatch):
        solve_spd(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_spd(np.eye(2), np.ones(2), ridge=-1.0)


def test_solve_spd_ridge_shifts_the_system():
    s = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([1.0, 1.0])
    x = solve_spd(s, b, ridge=1.0)
    npt.assert_allclose(x, np.array([1.0 / 3.0, 1.0 / 5.0]), rtol=1e-12)
