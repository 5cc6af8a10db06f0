"""Affine-scaling engine: directions, steps, phase 1, full solves."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import cho_factor, cho_solve

import lpduet.affine

from conftest import lana_model, rng_for, random_bounded_lp, scaled_row_lp, scaled_rows_lp
from lpduet import (
    IpmOptions,
    Relation,
    Sense,
    Status,
    brute_force_optimum,
    build_model,
    solve_affine,
    solve_simplex,
    to_equality_form,
)
from lpduet.affine import (
    EQUALITY_RTOL, PHASE1_ART_TOL, DirectionResult, find_interior_point, projected_direction, step,
)
from lpduet.errors import InfeasibleInterior, NotInterior, UnboundedDirection
from lpduet.model import independent_rows


def toy_form():
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((1.0, 0.0), Relation.LE, 2.0)],
    )
    return to_equality_form(m)


def test_projected_direction_hand_example():
    a = np.array([[1.0, 1.0]])
    c = np.array([1.0, 0.0])
    x = np.ones(2)
    result = projected_direction(a, c, x)
    npt.assert_allclose(result.d, np.array([0.5, -0.5]), atol=1e-14)
    npt.assert_allclose(result.dual_y, np.array([0.5]), atol=1e-14)


def test_projected_direction_annihilates_row_space():
    rng = rng_for(31)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = m + int(rng.integers(1, 4))
        a = rng.normal(size=(m, n))
        c = a.T @ rng.normal(size=m)
        result = projected_direction(a, c, np.ones(n))
        npt.assert_allclose(result.d, np.zeros(n), atol=1e-9)


def _reference_direction(a, c, x):
    """projected_direction as it was before one factor served both solves:
    scipy's cho_factor/cho_solve on the Gram matrix mirrored from its upper
    triangle, factored again for each solve."""
    ahat = a * x[np.newaxis, :]
    c_tilde = c * x
    g = ahat @ ahat.T
    s = np.triu(g) + np.triu(g, 1).T

    def solve(rhs):
        return cho_solve(cho_factor(s, lower=True, check_finite=False), rhs, check_finite=False)

    y1 = solve(ahat @ c_tilde)
    d = c_tilde - ahat.T @ y1
    y2 = solve(ahat @ d)
    return d - ahat.T @ y2, y1 + y2


@pytest.mark.parametrize("rows", [1, 5, 0], ids=["one-row", "several-rows", "no-rows"])
def test_projected_direction_matches_the_mirrored_reference_bit_for_bit(rows):
    rng = rng_for(33 + rows)
    for _ in range(10):
        n = rows + int(rng.integers(1, 6))
        a = rng.normal(size=(rows, n))
        c = rng.normal(size=n)
        x = rng.uniform(0.1, 10.0, n)
        result = projected_direction(a, c, x)
        d, dual_y = _reference_direction(a, c, x)
        assert result.d.tobytes() == d.tobytes()
        assert result.dual_y.tobytes() == dual_y.tobytes()
        assert result.dual_y.shape == (rows,)


def test_projected_direction_stays_in_nullspace():
    form = to_equality_form(lana_model())
    rng = rng_for(32)
    for _ in range(5):
        x = rng.uniform(0.5, 3.0, form.n_cols) * 1000.0
        result = projected_direction(form.a, form.c, x)
        ahat = form.a * x
        bound = 1e-7 * (1.0 + np.linalg.norm(ahat) * np.linalg.norm(result.d))
        assert np.linalg.norm(ahat @ result.d) <= bound


@pytest.mark.parametrize(
    "a, c, x, error",
    [
        (np.ones((1, 2)), np.ones(2), np.array([1.0, 0.0]), NotInterior),
        (np.ones((1, 2)), np.ones(2), np.array([1.0, -1.0]), NotInterior),
    ],
    ids=["zero-x", "negative-x"],
)
def test_projected_direction_rejects_bad_input(a, c, x, error):
    with pytest.raises(error):
        projected_direction(a, c, x)


@pytest.mark.parametrize(
    "x, d, alpha, error",
    [
        (np.array([1.0, 0.0]), np.array([1.0, -1.0]), 0.5, NotInterior),
        (np.array([1.0, -1.0]), np.array([1.0, -1.0]), 0.5, NotInterior),
    ],
    ids=["zero-origin", "negative-origin"],
)
def test_step_rejects_bad_input(x, d, alpha, error):
    with pytest.raises(error):
        step(x, d, alpha)


def test_step_hand_example():
    x = np.array([1.0, 1.0])
    d = np.array([1.0, -2.0])
    npt.assert_allclose(step(x, d, 0.5), np.array([1.25, 0.5]), atol=1e-15)


def test_step_keeps_strict_positivity():
    rng = rng_for(33)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        x = rng.uniform(0.1, 5.0, n)
        d = rng.normal(size=n)
        if d.min() >= 0.0:
            d[0] = -1.0
        out = step(x, d, 0.9)
        assert out.min() > 0.0


def test_step_unbounded_direction():
    with pytest.raises(UnboundedDirection):
        step(np.ones(2), np.array([1.0, 0.5]), 0.5)


def test_step_takes_rounding_noise_in_the_direction_for_zero():
    # max|d| is 1: a component of -1e-13 is noise, one of -1e-11 blocks
    x = np.ones(3)
    with pytest.raises(UnboundedDirection):
        step(x, np.array([1.0, 0.5, -1e-13]), 0.5)
    out = step(x, np.array([1.0, 0.5, -1e-11]), 0.5)
    assert np.isfinite(out).all()
    assert out[2] == 0.5


def test_step_zero_direction_is_identity():
    x = np.array([1.0, 2.0])
    out = step(x, np.zeros(2), 0.5, zero_tol=1e-12)
    npt.assert_array_equal(out, x)


def test_find_interior_point_lana():
    form = to_equality_form(lana_model())
    x0 = find_interior_point(form)
    assert x0.min() > 0.0
    resid = np.linalg.norm(form.a @ x0 - form.b)
    assert resid <= 1e-7 * (1.0 + np.linalg.norm(form.b))


def test_find_interior_point_random():
    for i in range(10):
        form = to_equality_form(random_bounded_lp(rng_for(700 + i)))
        x0 = find_interior_point(form)
        assert x0.min() > 0.0
        assert np.linalg.norm(form.a @ x0 - form.b) <= 1e-7 * (
            1.0 + np.linalg.norm(form.b)
        )


def test_find_interior_point_infeasible():
    m = build_model(
        Sense.MAX,
        ("x",),
        (1.0,),
        [((1.0,), Relation.LE, 1.0), ((1.0,), Relation.GE, 2.0)],
    )
    form = to_equality_form(m)
    with pytest.raises(InfeasibleInterior):
        find_interior_point(form)


def one_row_form():
    # x + y = 2 misses the phase-1 guess (2, 2), so phase 1 runs
    m = build_model(Sense.MAX, ("x", "y"), (1.0, 0.0), [((1.0, 1.0), Relation.EQ, 2.0)])
    return to_equality_form(m)


def never_exiting(monkeypatch):
    # Directions whose artificial component is 0: phase 1 cannot exit on one,
    # so the step it takes is the (patched) step.
    def zero(a, c, x):
        return DirectionResult(d=np.zeros_like(x), dual_y=np.zeros(a.shape[0]))

    monkeypatch.setattr(lpduet.affine, "projected_direction", zero)


@pytest.mark.parametrize(
    "endpoint, expected",
    [
        # 0.1 off the row: snapped back along its normal
        ((1.5, 0.6), (1.45, 0.55)),
        # the snap would land on (5.9995, -3.9995), so it is refused
        ((10.0, 1e-3), None),
    ],
    ids=["snapped", "refused"],
)
def test_phase1_endpoint_is_snapped_onto_the_rows_or_refused(monkeypatch, endpoint, expected):
    # The first phase-1 step lands on the endpoint with the artificial at 0.
    def landing(x, d, alpha, zero_tol=0.0):
        return np.array([*endpoint, 0.0])

    never_exiting(monkeypatch)
    monkeypatch.setattr(lpduet.affine, "step", landing)
    form = one_row_form()
    if expected is None:
        with pytest.raises(InfeasibleInterior, match="endpoint is not interior-feasible") as info:
            find_interior_point(form)
        assert info.value.iterations == 1
    else:
        npt.assert_allclose(find_interior_point(form), expected, rtol=1e-15)


def test_phase1_stall_is_infeasible_interior(monkeypatch):
    def stalled(x, d, alpha, zero_tol=0.0):
        raise UnboundedDirection("projected direction has no blocking component")

    never_exiting(monkeypatch)
    monkeypatch.setattr(lpduet.affine, "step", stalled)
    with pytest.raises(InfeasibleInterior, match="stalled") as info:
        find_interior_point(one_row_form())
    assert info.value.iterations == 1


@pytest.mark.parametrize(
    "make, directions",
    [(one_row_form, 1), (lambda: to_equality_form(lana_model()), 3)],
    ids=["one-row", "lana"],
)
def test_phase1_exits_where_the_artificial_reaches_zero(monkeypatch, make, directions):
    # Phase 1 ends on the direction along which the artificial reaches zero
    # before any other component loses 90% of its value; it lands there, so
    # the endpoint is on the rows up to rounding and needs no snap.
    calls = []
    direction, snap_back = lpduet.affine.projected_direction, lpduet.affine._snap_back

    def counting(a, c, x):
        calls.append(x[-1])
        return direction(a, c, x)

    def unsnapped(a, x, b, limit):
        x_kept, resid = snap_back(a, x, b, limit)
        assert x_kept is x
        return x_kept, resid

    monkeypatch.setattr(lpduet.affine, "projected_direction", counting)
    monkeypatch.setattr(lpduet.affine, "_snap_back", unsnapped)
    form = make()
    x0 = find_interior_point(form)
    assert len(calls) == directions
    assert calls[-1] > PHASE1_ART_TOL
    assert x0.min() > 0.0
    assert np.linalg.norm(form.a @ x0 - form.b) <= EQUALITY_RTOL * (1.0 + np.linalg.norm(form.b))


def test_solve_affine_toy():
    sol, rows = solve_affine(toy_form())
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 10.0, rtol=1e-6)
    npt.assert_allclose(sol.x, np.array([2.0, 2.0]), atol=1e-3)
    assert rows[0][2] == np.inf
    assert [row[0] for row in rows] == list(range(len(rows)))
    assert rows[-1][1] == sol.objective


def test_solve_affine_lana():
    form = to_equality_form(lana_model())
    sol, rows = solve_affine(form)
    assert sol.status is Status.OPTIMAL
    assert sol.iterations == len(rows) - 1 <= 500
    npt.assert_allclose(sol.objective, 765056.25, rtol=1e-4)
    for _, _, _, min_x, residual in rows:
        assert min_x > 0.0
        assert residual <= 1e-7


def redundant_rows_form():
    # e2 is e1 doubled, so the engine iterates on the cap and e1 only
    rows = [
        ((1.0, 1.0, 1.0), Relation.LE, 10.0),
        ((1.0, 2.0, 0.0), Relation.EQ, 4.0),
        ((2.0, 4.0, 0.0), Relation.EQ, 8.0),
    ]
    return to_equality_form(build_model(Sense.MIN, ("x", "y", "z"), (1.0, -1.0, 2.0), rows))


@pytest.mark.parametrize(
    "make, dropped, drift",
    [
        (lambda: to_equality_form(lana_model()), 0, 0.0),
        (redundant_rows_form, 1, 0.0),
        # every step leaves A x = b by 1e-6 relative, so drift control snaps it back
        (lambda: to_equality_form(lana_model()), 0, 1e-6),
    ],
    ids=["lana", "redundant", "lana-snapped"],
)
def test_trace_columns_are_those_of_the_iterates(monkeypatch, make, dropped, drift):
    # Main-loop direction k is taken at the iterate of trace row k - 1.
    form = make()
    kept = independent_rows(form)
    assert kept.n_rows == form.n_rows - dropped
    iterates = []
    direction, step_from = lpduet.affine.projected_direction, lpduet.affine.step

    def recording(a, c, x):
        if a.shape[1] == form.n_cols:  # phase 1 adds an artificial column
            iterates.append(x.copy())
        return direction(a, c, x)

    def drifting(x, d, alpha, zero_tol=0.0):
        x_new = step_from(x, d, alpha, zero_tol)
        return x_new * (1.0 + drift) if x.size == form.n_cols else x_new

    monkeypatch.setattr(lpduet.affine, "projected_direction", recording)
    monkeypatch.setattr(lpduet.affine, "step", drifting)
    sol, rows = solve_affine(form)
    assert sol.status is Status.OPTIMAL
    assert len(iterates) == len(rows) - 1
    b_scale = 1.0 + np.linalg.norm(kept.b)
    for (_, objective, _, min_x, residual), x in zip(rows, iterates):
        assert objective == (-(kept.c @ x) if form.negated else kept.c @ x)
        assert min_x == x.min()
        assert residual == np.linalg.norm(kept.b - kept.a @ x) / b_scale
    if drift:
        # Early steps are snapped back; near the boundary a snap would make a
        # component nonpositive and is refused, so the drift stays: both
        # paths are covered.
        assert rows[1][4] < 1e-12 and rows[-1][4] > 1e-7


def test_solve_affine_ascent_is_monotone():
    form = to_equality_form(lana_model())
    _, rows = solve_affine(form)
    objs = [row[1] for row in rows]
    for prev, cur in zip(objs, objs[1:]):
        assert cur >= prev - 1e-9 * (1.0 + abs(prev))


def test_solve_affine_unbounded():
    m = build_model(Sense.MAX, ("x",), (1.0,), [((1.0,), Relation.GE, 1.0)])
    sol, _ = solve_affine(to_equality_form(m))
    assert sol.status is Status.UNBOUNDED


def test_solve_affine_minimization():
    m = build_model(
        Sense.MIN, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.GE, 2.0)]
    )
    sol, rows = solve_affine(to_equality_form(m))
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 2.0, rtol=1e-6)
    # trace objectives are reported in the model's own sense
    assert rows[-1][1] == pytest.approx(2.0, rel=1e-6)


def test_solve_affine_iteration_limit():
    form = to_equality_form(lana_model())
    sol, rows = solve_affine(form, opts=IpmOptions(max_iter=2))
    assert sol.status is Status.ITERATION_LIMIT
    assert sol.iterations == 2
    assert [row[0] for row in rows] == [0, 1, 2]


def test_solve_affine_agrees_with_simplex():
    for i in range(15):
        m = random_bounded_lp(rng_for(800 + i))
        target = solve_simplex(m)
        sol, _ = solve_affine(to_equality_form(m))
        assert sol.status is Status.OPTIMAL
        rel = abs(sol.objective - target.objective) / (1.0 + abs(target.objective))
        assert rel <= 1e-5


@pytest.mark.parametrize("scale", [1e6, 1e10, 1e12, 1e-12])
def test_optimum_does_not_depend_on_the_scale_of_an_equality_row(scale):
    # One drift budget covers every row, so an unscaled large row would let
    # the others drift off A x = b.
    for i in range(40):
        form = to_equality_form(scaled_rows_lp(rng_for(i), scale))
        oracle = brute_force_optimum(form)
        sol, _ = solve_affine(form)
        assert sol.status is Status.OPTIMAL, i
        assert abs(sol.objective - oracle.objective) <= 1e-5 * (1.0 + abs(oracle.objective)), i


@pytest.mark.parametrize("row", ["le", "ge", "cap"])
def test_optimum_does_not_depend_on_a_million_fold_inequality_row(row):
    # Phase 1 lands on the rows exactly, so the drift a large row allows the
    # others does not build up before phase 2 starts.
    for i in range(40):
        oracle = brute_force_optimum(to_equality_form(scaled_rows_lp(rng_for(i), 1.0)))
        sol, _ = solve_affine(to_equality_form(scaled_row_lp(rng_for(i), row, 1e6)))
        assert sol.status is Status.OPTIMAL, i
        assert abs(sol.objective - oracle.objective) <= 1e-5 * (1.0 + abs(oracle.objective)), i


def test_ipm_options_validation():
    with pytest.raises(ValueError):
        IpmOptions(alpha=0.0)
    with pytest.raises(ValueError):
        IpmOptions(alpha=1.0)
    with pytest.raises(ValueError):
        IpmOptions(tol=0.0)
    with pytest.raises(ValueError):
        IpmOptions(max_iter=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", float("nan")),
        ("tol", float("nan")),  # would run to the iteration limit
        ("tol", float("inf")),  # would end in InfeasibleInterior
        ("max_iter", 2.5),  # a TypeError from range() deep in the solve
        ("max_iter", True),
    ],
)
def test_ipm_options_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        IpmOptions(**{field: value})
