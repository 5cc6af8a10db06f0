"""Tableau mechanics on hand-worked pivots plus end-to-end solves."""

import numpy as np
import numpy.testing as npt
import pytest

import lpduet.simplex
from conftest import lana_model, rng_for, random_bounded_lp, scaled_rows_lp
from lpduet import (
    Relation,
    Sense,
    SimplexOptions,
    Status,
    brute_force_optimum,
    build_model,
    solve_simplex,
    to_equality_form,
)
from lpduet.errors import ZeroPivot
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


def toy_model():
    return build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((1.0, 0.0), Relation.LE, 2.0)],
    )


def finite_row(t):
    return tuple(t.z_fin.tolist())


def row_tableau(z_fin, z_m):
    """A one-row tableau that only select_entering reads: just the objective row."""
    n = len(z_fin)
    full = np.zeros((3, n + 1))
    full[0, [0, n]] = 1.0
    full[1:, :n] = z_fin, z_m
    return Tableau(full, (0,))


def test_init_tableau_toy():
    t = init_tableau(to_big_m_form(toy_model()))
    assert t.basis == (2, 3)
    npt.assert_array_equal(t.rhs, np.array([4.0, 2.0]))
    assert finite_row(t) == (-3.0, -2.0, 0.0, 0.0)
    # No artificial column: the tableau starts in phase 2, with no M row.
    assert t.z_m is None and t.full.shape == (3, 5)
    assert t.obj_m.hex() == "0x0.0p+0"
    assert t.obj_fin == 0.0


def test_toy_pivots_by_hand():
    opts = SimplexOptions()
    t = init_tableau(to_big_m_form(toy_model()))

    col = select_entering(t, opts)
    assert col == 0
    row = select_leaving(t, col, opts)
    assert row == 1
    t = pivot(t, row, col)
    assert t.basis == (2, 0)
    assert finite_row(t) == (0.0, -2.0, 0.0, 3.0)
    assert t.obj_fin == 6.0
    npt.assert_array_equal(t.rhs, np.array([2.0, 2.0]))

    col = select_entering(t, opts)
    assert col == 1
    row = select_leaving(t, col, opts)
    assert row == 0
    t = pivot(t, row, col)
    assert t.basis == (1, 0)
    assert finite_row(t) == (0.0, 0.0, 2.0, 1.0)
    assert t.obj_fin == 10.0

    assert select_entering(t, opts) is None


def test_pivot_cleans_basic_columns_exactly():
    t = init_tableau(to_big_m_form(toy_model()))
    t = pivot(t, 1, 0)
    npt.assert_array_equal(t.body[:, 0], np.array([0.0, 1.0]))
    assert t.z_fin[0] == 0.0
    # With an artificial for the >= row, the M row is cleaned too.
    ge = build_model(
        Sense.MAX, ("x", "y"), (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((3.0, 0.0), Relation.GE, 1.0)],
    )
    t = pivot(init_tableau(to_big_m_form(ge)), 1, 0)
    npt.assert_array_equal(t.body[:, 0], np.array([0.0, 1.0]))
    assert t.z_fin[0] == 0.0 and t.z_m[0] == 0.0


def test_obj_m_reads_positive_zero_on_every_pivot_without_artificials(monkeypatch):
    seen = []

    def traced_pivot(*args):
        t = pivot(*args)
        seen.append(t.obj_m.hex())
        return t

    monkeypatch.setattr(lpduet.simplex, "pivot", traced_pivot)
    solve_simplex(toy_model())
    assert seen == [(0.0).hex()] * 2


def test_pivot_clears_rhs_dust_only_within_its_window():
    # Pivoting on (0, 0) subtracts row 0's rhs of 1 from rows 1 and 2: row 1
    # ends 3 ulps below zero, inside pivot_tol * (1 + max(rhs.max(), -rhs.min()))
    # = 1e-9 * 2, and row 2 ends at -0.5, far outside it.
    few_ulps = 3 * 2.0**-53
    full = np.array(
        [
            [1.0, 1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0, 1.0 - few_ulps],
            [1.0, 0.0, 0.0, 1.0, 0.5],
            [-1.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    t = pivot(Tableau(full, (1, 2, 3)), 0, 0)
    assert t.basis == (0, 2, 3)
    assert t.rhs[0] == 1.0
    assert t.rhs[1].hex() == "0x0.0p+0"
    assert t.rhs[2] == -0.5
    # Without the pivot's cleanup, row 1 would read the dust itself.
    assert (1.0 - few_ulps) - 1.0 == -few_ulps


def test_pivot_rejects_tiny_element():
    t = init_tableau(to_big_m_form(toy_model()))
    with pytest.raises(ZeroPivot):
        pivot(t, 1, 1)  # body[1, 1] is 0


def test_select_entering_snaps_m_residue_to_zero():
    # A 1e-17 M coefficient is rounding noise: column 1's finite part wins.
    t = row_tableau([-1.0, -2.0], [-1e-17, 0.0])
    assert select_entering(t, SimplexOptions()) == 1


def test_select_entering_orders_m_then_finite_then_index():
    t = row_tableau([-100.0, 7.0, 5.0, 5.0, 0.0], [0.0, -1.0, -1.0, -1.0, 0.0])
    assert select_entering(t, SimplexOptions()) == 2
    assert select_entering(t, SimplexOptions(anti_cycling=BLAND)) == 0
    assert select_entering(row_tableau([0.0, -1e-12], [1e-12, 0.0]), SimplexOptions()) is None


def test_select_leaving_breaks_ties_by_basic_index():
    m = build_model(
        Sense.MAX,
        ("x",),
        (1.0,),
        [((1.0,), Relation.LE, 2.0), ((1.0,), Relation.LE, 2.0)],
    )
    t = init_tableau(to_big_m_form(m))
    assert select_leaving(t, 0, SimplexOptions()) == 0


def test_solve_toy():
    sol = solve_simplex(toy_model())
    assert sol.status is Status.OPTIMAL
    assert sol.objective == 10.0
    npt.assert_allclose(sol.x, np.array([2.0, 2.0]))
    assert sol.binding == (0, 1)


def test_solve_lana():
    sol = solve_simplex(lana_model())
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 765056.25, rtol=1e-9)
    assert sol.iterations <= 100
    expected = np.array(
        [15025.944987, 37537.027507, 8800.0, 2200.0, 61487.027507, 2200.0]
    )
    npt.assert_allclose(sol.x, expected, rtol=1e-6)
    assert 4 in sol.binding  # the profit cap is attained


LANA_PIVOTS = {
    LARGEST_COEFFICIENT: [
        (0, 24), (14, 23), (2, 26), (16, 22), (5, 29), (1, 25), (4, 28), (3, 27),
        (19, 20), (15, 21), (9, 16), (6, 11), (18, 14), (8, 13), (20, 19), (14, 10),
    ],
    BLAND: [
        (0, 24), (1, 25), (2, 26), (3, 27), (4, 28), (5, 29), (14, 23), (9, 22),
        (8, 21), (6, 10),
    ],
}


@pytest.mark.parametrize("rule", [LARGEST_COEFFICIENT, BLAND])
def test_lana_pivot_sequence_is_pinned(rule):
    trace = solve_simplex(lana_model(), SimplexOptions(anti_cycling=rule)).trace
    assert [(enter, leave) for _, _, enter, leave in trace] == LANA_PIVOTS[rule]


def test_solve_lana_with_bland_rule():
    sol = solve_simplex(lana_model(), SimplexOptions(anti_cycling=BLAND))
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 765056.25, rtol=1e-9)


def test_minimization():
    m = build_model(
        Sense.MIN, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.GE, 2.0)]
    )
    sol = solve_simplex(m)
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 2.0)


def test_unbounded():
    m = build_model(Sense.MAX, ("x",), (1.0,), [((1.0,), Relation.GE, 1.0)])
    sol = solve_simplex(m)
    assert sol.status is Status.UNBOUNDED
    assert sol.x is None
    assert sol.objective is None


def test_infeasible():
    m = build_model(
        Sense.MAX,
        ("x",),
        (1.0,),
        [((1.0,), Relation.LE, 1.0), ((1.0,), Relation.GE, 2.0)],
    )
    sol = solve_simplex(m)
    assert sol.status is Status.INFEASIBLE


def test_iteration_limit():
    sol = solve_simplex(lana_model(), SimplexOptions(max_pivots=1))
    assert sol.status is Status.ITERATION_LIMIT
    assert sol.iterations == 1



@pytest.mark.parametrize(
    "field, value",
    [
        ("pivot_tol", 0.0),
        ("pivot_tol", float("nan")),  # every ratio test would fail: INFEASIBLE
        ("pivot_tol", float("inf")),
        ("max_pivots", 0),
        ("max_pivots", 2.5),  # a TypeError from range() deep in the solve
        ("max_pivots", True),
        ("anti_cycling", "dantzig"),
    ],
)
def test_simplex_options_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SimplexOptions(**{field: value})

def test_trace_has_one_row_per_pivot():
    sol = solve_simplex(toy_model())
    assert len(sol.trace) == sol.iterations == 2
    counts = [row[0] for row in sol.trace]
    assert counts == [1, 2]
    assert sol.trace[-1][1] == 10.0  # objective after the last pivot


def test_objective_monotone_over_random_instances(monkeypatch):
    # Each entering choice reads the tableau the previous pivot left, after
    # any drop of the M row: (obj_m, obj_fin) at the start and after each pivot.
    objs = []

    def traced_select_entering(t, *args):
        objs.append((t.obj_m, t.obj_fin))
        return select_entering(t, *args)

    monkeypatch.setattr(lpduet.simplex, "select_entering", traced_select_entering)
    for i in range(20):
        m = random_bounded_lp(rng_for(600 + i))
        objs.clear()
        sol = solve_simplex(m)
        assert sol.status is Status.OPTIMAL
        assert len(objs) == sol.iterations + 1
        for prev, cur in zip(objs, objs[1:]):
            slack = 1e-9 * (1.0 + abs(prev[1])) + 1e-12
            if cur[0] > prev[0] + 1e-12:
                continue
            assert abs(cur[0] - prev[0]) <= 1e-12
            assert cur[1] >= prev[1] - slack


def test_degenerate_model_still_terminates():
    # two identical rows force a degenerate vertex
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (1.0, 1.0),
        [
            ((1.0, 1.0), Relation.LE, 1.0),
            ((1.0, 1.0), Relation.LE, 1.0),
            ((1.0, 0.0), Relation.GE, 0.0),
        ],
    )
    sol = solve_simplex(m)
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 1.0)


@pytest.mark.parametrize("scale", [1e6, 1e10, 1e12, 1e-12])
def test_optimum_does_not_depend_on_the_scale_of_an_equality_row(scale):
    # The M row must be exact once no artificial is basic: rounding residue
    # left in it hides improving columns or, at 1e6, runs to the pivot limit.
    # At 1e-12 the row's entries lie below pivot_tol unless the equality
    # form scales the row back to unit size.
    for i in range(40):
        m = scaled_rows_lp(rng_for(i), scale)
        oracle = brute_force_optimum(to_equality_form(m))
        sol = solve_simplex(m)
        assert sol.status is Status.OPTIMAL, i
        assert abs(sol.objective - oracle.objective) <= 1e-9 * (1.0 + abs(oracle.objective)), i
