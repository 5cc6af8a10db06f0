"""The in-place simplex kernels against reference copies of the copying ones.

The reference pivot builds a fresh tableau per pivot and updates body, rhs and
the two objective rows separately; the reference rules pick columns with
lexsort and rows with a min over (ratio, basic index); the reference starting
tableau lays out the Big-M matrix, costs and basis from the model and its
equality form, not from to_big_m_form. The references are the textbook
full-width Big-M, with one unit column per artificial; the kernels store only
the equality form's columns. Every pivot of the kernels must match them bit
for bit on those columns, and the entering column must be the same, so no
tested run lets an artificial re-enter. A reference solve built from them
keeps the full (m + 2)-row tableau to the end and resets its M row once no
artificial is basic; solve_simplex, which drops the M row there, must take
the same path to the same bits.
"""

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lpduet.simplex
from conftest import SEED, beale_lp, klee_minty_lp, lana_model, random_bounded_lp, rng_for
from lpduet import Relation, Sense, SimplexOptions, StandardForm, Status, build_model, solve_simplex
from lpduet.model import FEASIBILITY_TOL, to_big_m_form, to_equality_form
from lpduet.simplex import (
    BLAND,
    LARGEST_COEFFICIENT,
    Tableau,
    init_tableau,
    pivot,
    select_entering,
    select_leaving,
)

POSITIVE_ZERO = (0.0).hex()


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


@dataclass(frozen=True)
class RefBigM:
    """The Big-M layout, built from the model and its equality form alone."""

    form: StandardForm
    a_full: np.ndarray
    c_fin: np.ndarray
    c_m: np.ndarray
    basis: tuple
    artificial_row: dict  # artificial column -> the row it was added for


def ref_big_m(model):
    form = to_equality_form(model)
    m, n0 = form.a.shape
    art_rows = [i for i, rel in enumerate(model.relations) if rel is not Relation.LE]
    a_full = np.zeros((m, n0 + len(art_rows)))
    a_full[:, :n0] = form.a
    row_art = {}
    for k, i in enumerate(art_rows):
        a_full[i, n0 + k] = 1.0
        row_art[i] = n0 + k
    # Each slack or surplus column is read off the matrix: its one nonzero row.
    owner = {int(np.flatnonzero(form.a[:, j])[0]): j for j in range(form.n_structural, n0)}
    basis = tuple(row_art[i] if i in row_art else owner[i] for i in range(m))
    c_fin = np.concatenate([form.c, np.zeros(len(art_rows))])
    c_m = np.concatenate([np.zeros(n0), np.full(len(art_rows), -1.0)])
    return RefBigM(form, a_full, c_fin, c_m, basis, {j: i for i, j in row_art.items()})


def ref_init_tableau(big):
    """The starting tableau with an M row, also for a model with no artificial."""
    basis_idx = list(big.basis)
    body, rhs = big.a_full, big.form.b
    return RefTableau(
        body.copy(), rhs.copy(), big.basis,
        big.c_fin[basis_idx] @ body - big.c_fin, big.c_m[basis_idx] @ body - big.c_m,
        float(big.c_fin[basis_idx] @ rhs), float(big.c_m[basis_idx] @ rhs),
    )


def assert_same_bits(t, ref):
    """t matches ref on t's columns, the equality form's; with no M row,
    ref's is zero there."""
    n = t.body.shape[1]
    assert t.body.tobytes() == np.ascontiguousarray(ref.body[:, :n]).tobytes()
    assert t.rhs.tobytes() == ref.rhs.tobytes()
    assert t.z_fin.tobytes() == ref.z_fin[:n].tobytes()
    assert t.obj_fin.hex() == ref.obj_fin.hex()
    if t.z_m is None:
        assert not ref.z_m[:n].any() and ref.obj_m == 0.0
        assert t.obj_m.hex() == POSITIVE_ZERO
    else:
        assert t.z_m.tobytes() == ref.z_m[:n].tobytes()
        assert t.obj_m.hex() == ref.obj_m.hex()
    assert t.basis == ref.basis


def run_lockstep(model, opts, limit=500):
    """Pivot the kernels and the references side by side; return the count."""
    t = init_tableau(to_big_m_form(model))
    ref = ref_init_tableau(ref_big_m(model))
    assert_same_bits(t, ref)
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


def ref_solve_simplex(model, opts):
    """solve_simplex from the reference kernels on the full (m + 2)-row tableau.

    After the pivot that takes the last artificial out of the basis (before
    the first pivot when the form has none), the M row is reset to its exact
    values: 0 on the form's columns, 1 on the artificials, and obj_m 0.
    Returns (on_pivot stream, status, x, the pivot count at the reset or None).
    """
    big = ref_big_m(model)
    n_base = big.form.n_cols
    ref = ref_init_tableau(big)
    m = ref.rhs.shape[0]
    tol = opts.pivot_tol

    def reset(ref):
        z_m = ref.z_m.copy()
        z_m[:n_base] = 0.0
        z_m[n_base:] = 1.0
        return replace(ref, z_m=z_m, obj_m=0.0)

    switch = None
    if not big.artificial_row:
        ref, switch = reset(ref), 0
    effective = opts
    degenerate_run = 0
    stream = []
    status = Status.ITERATION_LIMIT
    for k in range(1, opts.max_pivots + 1):
        enter = ref_select_entering(ref, effective)
        if enter is None:
            status = Status.OPTIMAL
            break
        leave = ref_select_leaving(ref, enter, effective)
        if leave is None:
            status = Status.UNBOUNDED
            break
        degenerate = ref.rhs[leave] <= tol * (1.0 + float(np.abs(ref.rhs).max()))
        leaving_col = ref.basis[leave]
        ref = ref_pivot(ref, leave, enter, tol)
        if leaving_col >= n_base and max(ref.basis) < n_base:
            ref, switch = reset(ref), k
        stream.append((k, enter, leaving_col, ref.obj_fin.hex(), ref.obj_m.hex()))
        degenerate_run = degenerate_run + 1 if degenerate else 0
        if effective.anti_cycling != BLAND and degenerate_run >= 3 * m:
            effective = replace(opts, anti_cycling=BLAND)

    b = big.form.b
    art_row = big.artificial_row
    if any(
        j in art_row and ref.rhs[r] > FEASIBILITY_TOL * (1.0 + abs(float(b[art_row[j]])))
        for r, j in enumerate(ref.basis)
    ):
        if status is not Status.ITERATION_LIMIT:
            status = Status.INFEASIBLE
        return stream, status, None, switch
    if status is Status.UNBOUNDED:
        return stream, status, None, switch
    x_full = np.zeros(ref.body.shape[1])
    x_full[list(ref.basis)] = np.where(ref.rhs > 0.0, ref.rhs, 0.0)
    return stream, status, x_full[: big.form.n_structural], switch


def assert_solve_matches_reference(model, opts, monkeypatch):
    """Same on_pivot stream and x bits as the reference solve; every pivot
    runs on the equality form's n_base columns, after the switch without the
    M row, and reports obj_m as +0.0 there. Returns (pivots, pivots after the
    switch)."""
    big = ref_big_m(model)
    m, n_base = big.form.a.shape
    shapes = []

    def traced_pivot(t, *args, **kwargs):
        shapes.append(t.full.shape)
        return pivot(t, *args, **kwargs)

    monkeypatch.setattr(lpduet.simplex, "pivot", traced_pivot)
    stream = []
    sol = solve_simplex(
        model, opts, on_pivot=lambda k, e, l, fin, mc: stream.append((k, e, l, fin.hex(), mc.hex()))
    )
    monkeypatch.undo()

    ref_stream, ref_status, ref_x, switch = ref_solve_simplex(model, opts)
    assert stream == ref_stream
    assert sol.status is ref_status and sol.iterations == len(stream)
    assert (sol.x is None) == (ref_x is None)
    if ref_x is not None:
        assert sol.x.tobytes() == ref_x.tobytes()
    phase2 = 0 if switch is None else len(stream) - switch
    assert shapes == [(m + 2, n_base + 1)] * (len(stream) - phase2) + [(m + 1, n_base + 1)] * phase2
    assert all(mc == POSITIVE_ZERO for *_, mc in stream[len(stream) - phase2 :])
    return len(stream), phase2


def test_solve_matches_reference_across_the_phase_2_switch(monkeypatch):
    total = phase2 = 0
    models = [random_bounded_lp(rng_for(3000 + i)) for i in range(50)]
    models += [dense_mixed_lp(rng_for(3100)), beale_lp()]
    models += [klee_minty_lp(n) for n in range(2, 8)]
    for model in models:
        for rule in (LARGEST_COEFFICIENT, BLAND):
            pivots, after = assert_solve_matches_reference(
                model, SimplexOptions(anti_cycling=rule), monkeypatch
            )
            total += pivots
            phase2 += after
    # Both phases are exercised, and most pivots run on the smaller tableau.
    assert 0 < total - phase2 < phase2


def row_tableau(z_fin, z_m=None):
    """A one-row tableau, body e_0 and rhs 1, over the given objective rows."""
    n = z_fin.size
    full = np.zeros((2 if z_m is None else 3, n + 1))
    full[0, [0, n]] = 1.0
    full[1, :n] = z_fin
    if z_m is not None:
        full[2, :n] = z_m
    return Tableau(full, (0,))


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
    t = row_tableau(z_fin, z_m)
    opts = SimplexOptions(anti_cycling=rule)
    enter = select_entering(t, opts)
    assert enter == ref_select_entering(t, opts)
    assert enter is None or type(enter) is int


@seed(SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(st.sampled_from(_FINITE_PARTS + (-5e-10, 5e-10, -1.0)), min_size=1, max_size=12),
    st.sampled_from((LARGEST_COEFFICIENT, BLAND)),
)
def test_select_entering_without_m_row_matches_reference(z_fin, rule):
    z_fin = np.array(z_fin)
    n = z_fin.size
    t = row_tableau(z_fin)
    assert t.z_m is None and t.full.shape == (2, n + 1)
    ref = RefTableau(t.body, t.rhs, t.basis, z_fin, np.zeros(n), 0.0, 0.0)
    opts = SimplexOptions(anti_cycling=rule)
    enter = select_entering(t, opts)
    assert enter == ref_select_entering(ref, opts)
    assert enter is None or type(enter) is int


def phase_2_lana_tableau():
    """LANA's tableau after the kernels' pivots take every artificial out of
    the basis, switched to phase 2."""
    form = to_big_m_form(lana_model())
    n_base = form.base.n_cols
    t = init_tableau(form)
    opts = SimplexOptions()
    while max(t.basis) >= n_base:
        enter = select_entering(t, opts)
        t = pivot(t, select_leaving(t, enter, opts), enter)
    phase_1 = t.full
    kept = phase_1[: t.rhs.shape[0] + 1].tobytes()
    t.drop_m_row()
    assert t.full.shape == (form.base.n_rows + 1, n_base + 1)
    assert t.full.flags.c_contiguous and t.full.base is phase_1
    assert t.full.tobytes() == kept
    return t


def test_pivot_updates_one_array_in_place():
    opts = SimplexOptions()
    for t in (init_tableau(to_big_m_form(lana_model())), phase_2_lana_tableau()):
        full = t.full
        enter = select_entering(t, opts)
        leave = select_leaving(t, enter, opts)
        assert type(leave) is int
        assert pivot(t, leave, np.int64(enter)) is t
        assert t.full is full
        # in phase 2, full is itself a view of the phase-1 array
        owner = full if full.base is None else full.base
        views = (t.body, t.rhs, t.z_fin) + (() if t.z_m is None else (t.z_m,))
        for view in views:
            assert view.base is owner
        assert isinstance(t.basis, tuple)
        assert all(type(j) is int for j in t.basis)
        assert t.basis[leave] == enter
        assert type(t.obj_fin) is float and type(t.obj_m) is float
    assert t.z_m is None and t.obj_m.hex() == POSITIVE_ZERO
