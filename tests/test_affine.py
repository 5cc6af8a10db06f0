"""Affine-scaling engine: directions, steps, phase 1, full solves."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import rng_for, random_bounded_lp
from lpduet import (
    InfeasibleInterior,
    IpmOptions,
    Relation,
    Sense,
    Status,
    UnboundedDirection,
    build_model,
    find_interior_point,
    lana_instance,
    projected_direction,
    solve_affine,
    solve_simplex,
    step,
    to_equality_form,
)


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
    form = to_equality_form(lana_instance())
    rng = rng_for(32)
    for _ in range(5):
        x = rng.uniform(0.5, 3.0, form.n_cols) * 1000.0
        result = projected_direction(form.a, form.c, x)
        ahat = form.a * x
        bound = 1e-7 * (1.0 + np.linalg.norm(ahat) * np.linalg.norm(result.d))
        assert np.linalg.norm(ahat @ result.d) <= bound


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


def test_step_zero_direction_is_identity():
    x = np.array([1.0, 2.0])
    out = step(x, np.zeros(2), 0.5, zero_tol=1e-12)
    npt.assert_array_equal(out, x)


def test_find_interior_point_lana():
    form = to_equality_form(lana_instance())
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


def test_solve_affine_toy():
    sol, states = solve_affine(toy_form())
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 10.0, rtol=1e-6)
    npt.assert_allclose(sol.x, np.array([2.0, 2.0]), atol=1e-3)
    assert states[0].iteration == 0
    assert states[0].step_norm == np.inf
    assert [s.iteration for s in states] == list(range(len(states)))


def test_solve_affine_lana():
    form = to_equality_form(lana_instance())
    sol, states = solve_affine(form)
    assert sol.status is Status.OPTIMAL
    assert sol.iterations <= 500
    npt.assert_allclose(sol.objective, 765056.25, rtol=1e-4)
    budget = 1e-7 * (1.0 + np.linalg.norm(form.b))
    for state in states:
        assert state.x.min() > 0.0
        assert np.linalg.norm(form.a @ state.x - form.b) <= budget


def test_solve_affine_ascent_is_monotone():
    form = to_equality_form(lana_instance())
    _, states = solve_affine(form)
    objs = [s.objective for s in states]
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
    sol, states = solve_affine(to_equality_form(m))
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 2.0, rtol=1e-6)
    # trace objectives are reported in the model's own sense
    assert states[-1].objective == pytest.approx(2.0, rel=1e-6)


def test_solve_affine_iteration_limit():
    form = to_equality_form(lana_instance())
    sol, states = solve_affine(form, opts=IpmOptions(max_iter=2))
    assert sol.status is Status.ITERATION_LIMIT
    assert sol.iterations == 2


def test_solve_affine_agrees_with_simplex():
    for i in range(15):
        m = random_bounded_lp(rng_for(800 + i))
        target = solve_simplex(m)
        sol, _ = solve_affine(to_equality_form(m))
        assert sol.status is Status.OPTIMAL
        rel = abs(sol.objective - target.objective) / (1.0 + abs(target.objective))
        assert rel <= 1e-5


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
