"""Cycling and exponential-path models: Beale's example and the Klee-Minty cube."""

import pytest

from conftest import beale_lp, klee_minty_lp
from lpduet import SimplexOptions, Status, brute_force_optimum, solve_affine, solve_simplex
from lpduet.model import to_big_m_form, to_equality_form
from lpduet.simplex import BLAND, init_tableau, pivot, select_entering, select_leaving

# (entering, leaving) column pairs. The first nine pivots are degenerate; after
# 3m = 9 of them the run switches to Bland's rule, which leaves the cycle at
# the eleventh pivot.
BEALE_PIVOTS = [
    (0, 4), (1, 5), (2, 0), (3, 1), (4, 2), (5, 3),
    (0, 4), (1, 5), (2, 0), (3, 1), (0, 6), (4, 3),
]


def test_beale_largest_coefficient_rule_cycles_with_period_6():
    opts = SimplexOptions()
    t = init_tableau(to_big_m_form(beale_lp()))
    start = t.basis
    bases = []
    for _ in range(12):
        enter = select_entering(t, opts)
        leave = select_leaving(t, enter, opts)
        t = pivot(t, leave, enter, opts.pivot_tol)
        bases.append(t.basis)
        assert t.obj_fin == 0.0
    assert bases[5] == bases[11] == start
    assert start not in bases[:5]


def test_beale_switches_to_bland_and_reaches_the_optimum():
    sol = solve_simplex(beale_lp())
    assert sol.status is Status.OPTIMAL
    assert sol.iterations == 12
    assert abs(sol.objective - 1.25) <= 1e-12
    assert [(e, l) for _, _, e, l in sol.trace] == BEALE_PIVOTS
    assert all(objective == 0.0 for _, objective, _, _ in sol.trace[:9])


def test_beale_under_bland_from_the_start():
    sol = solve_simplex(beale_lp(), SimplexOptions(anti_cycling=BLAND))
    assert sol.status is Status.OPTIMAL
    assert sol.iterations == 6
    assert abs(sol.objective - 1.25) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_klee_minty_visits_every_vertex(n):
    sol = solve_simplex(klee_minty_lp(n))
    assert sol.status is Status.OPTIMAL
    assert sol.iterations == 2**n - 1
    assert sol.objective == pytest.approx(100.0 ** (n - 1), rel=1e-12)


KNOWN_OPTIMA = [pytest.param(beale_lp(), 1.25, id="beale")] + [
    pytest.param(klee_minty_lp(n), 100.0 ** (n - 1), id=f"klee-minty-{n}") for n in range(2, 8)
]


@pytest.mark.parametrize("model, optimum", KNOWN_OPTIMA)
def test_affine_engine_and_oracle_reach_the_known_optimum(model, optimum):
    # The path the simplex walks on these models says nothing of the other
    # two: the affine engine cuts through the interior, and the oracle sees
    # every basis (3,432 candidates for Klee-Minty n = 7).
    form = to_equality_form(model)
    interior, _ = solve_affine(form)
    assert interior.status is Status.OPTIMAL
    assert interior.objective == pytest.approx(optimum, rel=1e-5)
    oracle = brute_force_optimum(form)
    assert oracle.status is Status.OPTIMAL
    assert oracle.objective == pytest.approx(optimum, rel=1e-9)
