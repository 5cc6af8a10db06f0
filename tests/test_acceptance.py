"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so a full run reads as a checklist. The
reference objective for the bundled LANA model is 765056.25, the value of its
binding profit cap.
"""

import json
import time

import numpy as np
import pytest

import lpduet.affine
import lpduet.simplex
from conftest import (
    lana_model,
    lana_reference,
    rng_for,
    random_bounded_lp,
    random_infeasible_lp,
    random_unbounded_lp,
)
from lpduet import (
    Status,
    brute_force_optimum,
    build_model,
    constraint_residuals,
    lana_lp_path,
    parse_lp_text,
    run_cli,
    solve_affine,
    solve_simplex,
    to_equality_form,
    write_lp_text,
    Relation,
    Sense,
)
from lpduet.model import to_big_m_form
from lpduet.simplex import SimplexOptions, init_tableau, pivot, select_entering, select_leaving

LANA_OPTIMUM = 765056.25


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def _rel(value: float, target: float) -> float:
    return abs(value - target) / (1.0 + abs(target))


def test_criterion_1_lana_simplex_via_cli(capsys):
    start = time.perf_counter()
    code = run_cli(["solve", str(lana_lp_path()), "--method", "simplex", "--json"])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and report["status"] == "optimal"
        and _rel(report["objective"], LANA_OPTIMUM) <= 1e-6
        and elapsed < 1.0
    )
    _verdict(1, "LANA optimum via simplex CLI, under one second", ok)


def test_criterion_2_oracle_confirms_lana():
    form = to_equality_form(lana_model())
    n_bases = 54264  # C(21, 15) candidate bases
    start = time.perf_counter()
    oracle = brute_force_optimum(form)
    elapsed = time.perf_counter() - start
    ok = (
        form.n_cols == 21
        and form.n_rows == 15
        and oracle.status is Status.OPTIMAL
        and 0 < oracle.iterations <= n_bases
        and _rel(oracle.objective, LANA_OPTIMUM) <= 1e-6
        and elapsed < 60.0
    )
    _verdict(2, "exhaustive basis enumeration matches the optimum", ok)


def test_criterion_3_lana_affine_interior_path():
    form = to_equality_form(lana_model())
    sol, rows = solve_affine(form)  # alpha defaults to 0.5
    # LANA has no equality row to drop: the residual covers every row
    iterates_ok = all(min_x > 0.0 and residual <= 1e-7 for _, _, _, min_x, residual in rows)
    ok = (
        sol.status is Status.OPTIMAL
        and sol.iterations <= 500
        and _rel(sol.objective, LANA_OPTIMUM) <= 1e-4
        and iterates_ok
    )
    # Published interior-point profits for this model exceed the profit cap,
    # whose coefficient row equals the objective row, so no feasible point
    # can attain them; the engine must not reproduce those figures.
    model = lana_model()
    cap = model.row_names.index("profit_cap")
    assert model.relations[cap] is Relation.LE
    np.testing.assert_array_equal(model.a[cap], model.objective)
    cap_rhs = model.b[cap]
    for reported in (765289.9244, 765121.8775):
        ok = ok and reported > cap_rhs + 1.0
    ok = ok and sol.objective <= cap_rhs + 1e-4 * (1.0 + cap_rhs)
    _verdict(3, "affine engine reaches the feasible optimum interiorly", ok)


def test_criterion_4_published_simplex_points_check_out():
    model = lana_model()
    qm = np.array([22856.0, 33619.0, 8800.0, 2200.0, 54579.0, 2200.0])
    winqsb = np.array([40053.0, 16750.0, 8801.0, 2200.0, 48971.0, 2201.0])
    qm_obj = float(model.objective @ qm)
    win_obj = float(model.objective @ winqsb)
    ok = (
        abs(qm_obj - 765056.0) <= 1.0
        and constraint_residuals(model, qm).feasible
        and abs(win_obj - 765005.0) <= 1.0
        and constraint_residuals(model, winqsb).feasible
        and win_obj < LANA_OPTIMUM
    )
    _verdict(4, "published vertex points are feasible and ranked correctly", ok)


def test_criterion_5a_simplex_invariants(monkeypatch):
    opts = SimplexOptions()
    ok = True
    # (obj_m, obj_fin) as each entering choice reads them: at the start and
    # after each pivot, once any M row is dropped.
    objs = []

    def traced_select_entering(t, *args):
        objs.append((t.obj_m, t.obj_fin))
        return select_entering(t, *args)

    monkeypatch.setattr(lpduet.simplex, "select_entering", traced_select_entering)
    for i in range(100):
        m = random_bounded_lp(rng_for(1000 + i))
        objs.clear()
        sol = solve_simplex(m)
        ok = ok and sol.status is Status.OPTIMAL and len(objs) == sol.iterations + 1
        for prev, cur in zip(objs, objs[1:]):
            slack = 1e-9 * (1.0 + abs(prev[1])) + 1e-12
            if cur[0] > prev[0] + 1e-12:
                continue
            ok = ok and abs(cur[0] - prev[0]) <= 1e-12 and cur[1] >= prev[1] - slack
        t = init_tableau(to_big_m_form(m))
        while True:
            col = select_entering(t, opts)
            if col is None:
                break
            row = select_leaving(t, col, opts)
            if row is None:
                break
            t = pivot(t, row, col, opts.pivot_tol)
            # an artificial has no stored column; every other basic column does
            for r, bcol in enumerate(t.basis):
                if bcol >= t.body.shape[1]:
                    continue
                unit = np.zeros(len(t.basis))
                unit[r] = 1.0
                ok = ok and np.array_equal(t.body[:, bcol], unit)
    _verdict(5, "a: objective monotone, basic columns stay unit columns", ok)


def test_criterion_5b_simplex_matches_oracle():
    ok = True
    for i in range(100):
        m = random_bounded_lp(rng_for(2000 + i))
        sol = solve_simplex(m)
        oracle = brute_force_optimum(to_equality_form(m))
        ok = (
            ok
            and sol.status is Status.OPTIMAL
            and oracle.status is Status.OPTIMAL
            and _rel(sol.objective, oracle.objective) <= 1e-7
        )
    _verdict(5, "b: simplex equals exhaustive enumeration on 100 models", ok)


def test_criterion_5cd_affine_invariants_and_agreement(monkeypatch):
    steps = []  # (x, d) of every direction the engine computes
    direction = lpduet.affine.projected_direction

    def recording(a, c, x):
        result = direction(a, c, x)
        steps.append((x.copy(), result.d))
        return result

    monkeypatch.setattr(lpduet.affine, "projected_direction", recording)
    ok_invariants = True
    ok_agreement = True
    for i in range(50):
        m = random_bounded_lp(rng_for(3000 + i))
        form = to_equality_form(m)
        target = solve_simplex(m)
        steps.clear()
        sol, rows = solve_affine(form)
        ok_agreement = (
            ok_agreement
            and sol.status is Status.OPTIMAL
            and _rel(sol.objective, target.objective) <= 1e-5
        )
        sign = 1.0 if m.sense is Sense.MAX else -1.0
        prev = None
        for _, objective, _, min_x, residual in rows:
            ok_invariants = ok_invariants and min_x > 0.0 and residual <= 1e-7
            if prev is not None:
                ok_invariants = (
                    ok_invariants
                    and sign * (objective - prev) >= -1e-9 * (1.0 + abs(prev))
                )
            prev = objective
        # the engine steps on the kept rows; every row of the form must hold
        budget = 1e-7 * (1.0 + np.linalg.norm(form.b))
        for x, d in steps:
            if x.size != form.n_cols:
                continue  # a phase-1 direction, with the artificial column
            ok_invariants = ok_invariants and np.linalg.norm(form.a @ x - form.b) <= budget
            ahat = form.a * x
            bound = 1e-7 * (1.0 + np.linalg.norm(ahat) * np.linalg.norm(d))
            ok_invariants = ok_invariants and np.linalg.norm(ahat @ d) <= bound
    _verdict(5, "c: interior iterates keep every invariant", ok_invariants)
    _verdict(5, "d: affine agrees with simplex on 50 models", ok_agreement)


def test_criterion_5e_detection():
    infeasible = sum(
        solve_simplex(random_infeasible_lp(rng_for(4000 + i))).status
        is Status.INFEASIBLE
        for i in range(20)
    )
    unbounded = sum(
        solve_simplex(random_unbounded_lp(rng_for(4500 + i))).status
        is Status.UNBOUNDED
        for i in range(10)
    )
    ok = infeasible == 20 and unbounded == 10
    _verdict(5, "e: infeasibility and unboundedness are always detected", ok)


def test_criterion_6_parser_round_trips():
    ok = all(
        parse_lp_text(write_lp_text(random_bounded_lp(rng_for(5000 + i))))
        == random_bounded_lp(rng_for(5000 + i))
        for i in range(100)
    )
    fixture = parse_lp_text(lana_lp_path().read_text(encoding="utf-8"))
    ok = ok and fixture == lana_reference()
    _verdict(6, "write/parse identity holds, bundled file matches", ok)


def test_criterion_7_hand_worked_toy():
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((1.0, 0.0), Relation.LE, 2.0)],
    )
    # manual vertex sweep of {x+y<=4, x<=2, x,y>=0}
    vertices = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 4.0)]
    by_hand = max(3.0 * x + 2.0 * y for x, y in vertices)
    sol_s = solve_simplex(m)
    sol_a, _ = solve_affine(to_equality_form(m))
    ok = (
        by_hand == 10.0
        and sol_s.status is Status.OPTIMAL
        and sol_s.objective == pytest.approx(10.0, abs=1e-9)
        and np.allclose(sol_s.x, [2.0, 2.0], atol=1e-9)
        and sol_a.status is Status.OPTIMAL
        and sol_a.objective == pytest.approx(10.0, rel=1e-6)
        and np.allclose(sol_a.x, [2.0, 2.0], atol=1e-3)
    )
    _verdict(7, "two-variable toy reaches 10 at (2, 2) on both engines", ok)
