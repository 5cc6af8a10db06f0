"""Dense kernel checks: validation, Gram products, Cholesky factors, SPD solves.

The coercions ``as_vector`` and ``as_matrix`` live in ``lpduet.model``, the
layer that checks outside input; ``gram``, ``cholesky`` and ``solve_spd`` live
in ``lpduet.affine``, the only engine that calls them.
"""

import json
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
from lpduet.affine import cholesky, gram, solve_spd
from lpduet.model import as_matrix, as_vector


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
import sys
import numpy as np
from lpduet import affine
assert "scipy" not in sys.modules
s = np.array([[4.0, 2.0], [2.0, 3.0]])
x = affine.solve_spd(np.asfortranarray(np.linalg.cholesky(s)), np.array([2.0, 1.0]))
assert np.allclose(s @ x, [2.0, 1.0], rtol=0.0, atol=1e-14), x
"""


def test_solve_spd_loads_lapack_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_FIRST], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# lpduet loads scipy's LAPACK wrapper module itself, not through scipy.linalg.
# In either import order the kernels must be scipy.linalg.lapack's own
# function objects, and scipy.linalg must still work. (When lpduet loads
# first, the scipy.linalg package has no _flapack attribute; only the public
# API is held here.)
IMPORT_ORDER = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy.linalg":
    import scipy.linalg
import lpduet.affine, lpduet.model, lpduet.oracle
before = "scipy.linalg" in sys.modules
import scipy.linalg
from scipy.linalg import lapack
same = {
    "dgetrf": lapack.dgetrf is lpduet.oracle.lu_factor,
    "dgetrs": lapack.dgetrs is lpduet.oracle.lu_solve,
    "dpotrf": lapack.dpotrf is lpduet.model.lapack().dpotrf,
    "dpotrs": lapack.dpotrs is lpduet.model.lapack().dpotrs,
    "dgeqp3": lapack.dgeqp3 is lpduet.model.lapack().dgeqp3,
}
s = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
b = np.array([1.0, 2.0, 3.0])
q, r, piv = scipy.linalg.qr(s, pivoting=True)
works = {
    "lu_factor": bool(np.allclose(s @ scipy.linalg.lu_solve(scipy.linalg.lu_factor(s), b), b)),
    "qr": bool(np.allclose(q @ r, s[:, piv])),
    "cho_factor": bool(np.allclose(s @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(s), b), b)),
}
print(json.dumps({"scipy.linalg before": before, "same": same, "works": works}))
"""


@pytest.mark.parametrize("first", ["lpduet", "scipy.linalg"])
def test_lapack_kernels_are_scipys_own_in_either_import_order(first):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ORDER, first], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    kernels = ("dgetrf", "dgetrs", "dpotrf", "dpotrs", "dgeqp3")
    assert json.loads(proc.stdout) == {
        "scipy.linalg before": first == "scipy.linalg",
        "same": dict.fromkeys(kernels, True),
        "works": dict.fromkeys(("lu_factor", "qr", "cho_factor"), True),
    }


def test_solve_spd_with_no_rows_is_empty():
    x = solve_spd(cholesky(np.zeros((0, 0))), np.zeros(0))
    assert x.shape == (0,)


def test_solve_spd_rejects_indefinite_matrix():
    s = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPositiveDefinite):
        solve_spd(cholesky(s), np.ones(2))
