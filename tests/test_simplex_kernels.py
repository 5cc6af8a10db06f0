"""The in-place simplex kernels against reference copies of the copying ones.

The reference pivot builds a fresh tableau per pivot and updates body, rhs and
the two objective rows separately; the reference rules pick columns with
lexsort and rows with a min over (ratio, basic index). Every pivot of the
kernels under test must match them bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, lana_model, random_bounded_lp, rng_for
from lpduet import Relation, Sense, SimplexOptions, build_model
from lpduet.model import to_big_m_form
from lpduet.simplex import (
    BLAND,
    LARGEST_COEFFICIENT,
    Tableau,
    init_tableau,
    pivot,
    select_entering,
    select_leaving,
)


@dataclass(frozen=True)
class RefTableau:
    body: np.ndarray
    rhs: np.ndarray
    basis: tuple
    z_fin: np.ndarray
    z_m: np.ndarray
    obj_fin: float
    obj_m: float


def ref_select_entering(t, opts):
    tol = opts.pivot_tol
    z_m = np.where(np.abs(t.z_m) <= tol, 0.0, t.z_m)
    candidates = np.flatnonzero((z_m < -tol) | ((z_m == 0.0) & (t.z_fin < -tol)))
    if candidates.size == 0:
        return None
    if opts.anti_cycling == BLAND:
        return int(candidates[0])
    order = np.lexsort((t.z_fin[candidates], z_m[candidates]))
    return int(candidates[order[0]])


def ref_select_leaving(t, enter, opts):
    col = t.body[:, enter]
    rows = [r for r in range(t.rhs.shape[0]) if col[r] > opts.pivot_tol]
    if not rows:
        return None
    return min(rows, key=lambda r: (t.rhs[r] / col[r], t.basis[r]))


def ref_pivot(t, row, col, pivot_tol):
    p = float(t.body[row, col])
    body = t.body.copy()
    rhs = t.rhs.copy()
    body[row] /= p
    rhs[row] /= p
    prow = body[row].copy()
    prhs = float(rhs[row])
    factors = body[:, col].copy()
    factors[row] = 0.0
    body -= np.outer(factors, prow)
    rhs -= factors * prhs
    body[:, col] = 0.0
    body[row, col] = 1.0
    window = pivot_tol * (1.0 + float(np.abs(rhs).max()))
    rhs[(rhs < 0.0) & (rhs >= -window)] = 0.0
    f_fin = float(t.z_fin[col])
    f_m = float(t.z_m[col])
    z_fin = t.z_fin - f_fin * prow
    z_m = t.z_m - f_m * prow
    z_fin[col] = 0.0
    z_m[col] = 0.0
    basis = list(t.basis)
    basis[row] = col
    return RefTableau(
        body, rhs, tuple(basis), z_fin, z_m, t.obj_fin - f_fin * prhs, t.obj_m - f_m * prhs
    )


def assert_same_bits(t, ref):
    for name in ("body", "rhs", "z_fin", "z_m"):
        assert getattr(t, name).tobytes() == getattr(ref, name).tobytes(), name
    assert t.obj_fin.hex() == ref.obj_fin.hex()
    assert t.obj_m.hex() == ref.obj_m.hex()
    assert t.basis == ref.basis


def run_lockstep(model, opts, limit=500):
    """Pivot the kernels and the references side by side; return the count."""
    t = init_tableau(to_big_m_form(model))
    ref = RefTableau(t.body.copy(), t.rhs.copy(), t.basis, t.z_fin.copy(), t.z_m.copy(),
                     t.obj_fin, t.obj_m)
    for k in range(limit):
        enter = select_entering(t, opts)
        assert enter == ref_select_entering(ref, opts)
        if enter is None:
            return k
        leave = select_leaving(t, enter, opts)
        assert leave == ref_select_leaving(ref, enter, opts)
        if leave is None:
            return k
        t = pivot(t, leave, enter, opts.pivot_tol)
        ref = ref_pivot(ref, leave, enter, opts.pivot_tol)
        assert_same_bits(t, ref)
    return limit


def dense_mixed_lp(rng, m=60, n=120, n_eq=8):
    """A feasible bounded 60 x 120 LP of dense coefficients mixing <=, >= and
    = rows, each anchored at a strictly positive witness point; the first row
    caps the variable sum."""
    witness = rng.uniform(0.5, 2.0, n)
    a = np.round(rng.uniform(-1.0, 1.0, (m, n)), 3)
    a[0] = 1.0
    lhs = a @ witness
    margin = rng.uniform(0.5, 5.0, m)
    eq_rows = set((1 + rng.permutation(m - 1)[:n_eq]).tolist())
    rows = [(a[0], Relation.LE, float(witness.sum() * 1.5))]
    for i in range(1, m):
        if i in eq_rows:
            rows.append((a[i], Relation.EQ, float(lhs[i])))
        elif rng.random() < 0.5:
            rows.append((a[i], Relation.LE, float(lhs[i] + margin[i])))
        else:
            rows.append((a[i], Relation.GE, float(lhs[i] - margin[i])))
    names = tuple(f"x{j + 1}" for j in range(n))
    return build_model(Sense.MAX, names, np.round(rng.uniform(-1.0, 1.0, n), 3), rows)


def test_kernels_match_references_on_random_models():
    total = 0
    for i in range(50):
        model = random_bounded_lp(rng_for(3000 + i))
        for rule in (LARGEST_COEFFICIENT, BLAND):
            total += run_lockstep(model, SimplexOptions(anti_cycling=rule))
    assert total > 100


def test_kernels_match_references_on_a_dense_mixed_model():
    pivots = run_lockstep(dense_mixed_lp(rng_for(3100)), SimplexOptions(), limit=2000)
    assert 60 <= pivots < 2000


# Exact ties, M parts at and around +-pivot_tol (1e-9), and rounding residues.
_M_PARTS = (0.0, -0.0, 1e-17, -1e-17, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, -1.0, -2.0, 1.0)
_FINITE_PARTS = (0.0, -0.0, 1e-9, -1e-9, -2e-9, -1.0, -3.0, 2.0)


@seed(SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_M_PARTS), st.sampled_from(_FINITE_PARTS)),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from((LARGEST_COEFFICIENT, BLAND)),
)
def test_select_entering_matches_reference(columns, rule):
    z_m = np.array([mc for mc, _ in columns])
    z_fin = np.array([fc for _, fc in columns])
    n = len(columns)
    t = Tableau(np.eye(1, n), np.ones(1), (0,), z_fin, z_m, 0.0, 0.0)
    opts = SimplexOptions(anti_cycling=rule)
    enter = select_entering(t, opts)
    assert enter == ref_select_entering(t, opts)
    assert enter is None or type(enter) is int


def test_pivot_updates_one_array_in_place():
    t = init_tableau(to_big_m_form(lana_model()))
    full = t.full
    opts = SimplexOptions()
    enter = select_entering(t, opts)
    leave = select_leaving(t, enter, opts)
    assert type(leave) is int
    assert pivot(t, leave, np.int64(enter)) is t
    assert t.full is full
    for view in (t.body, t.rhs, t.z_fin, t.z_m):
        assert view.base is full
    assert isinstance(t.basis, tuple)
    assert all(type(j) is int for j in t.basis)
    assert t.basis[leave] == enter
    assert type(t.obj_fin) is float and type(t.obj_m) is float
