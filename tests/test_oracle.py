"""Exhaustive basis enumeration against the iterative engines."""

import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import lpduet.oracle
from conftest import (
    near_duplicate_rows_lp,
    rng_for,
    random_bounded_lp,
    random_infeasible_lp,
    random_unbounded_lp,
)
from lpduet import (
    InfeasibleInterior,
    Relation,
    Sense,
    Status,
    TooLarge,
    brute_force_optimum,
    build_model,
    enumerate_basic_solutions,
    lana_instance,
    solve_affine,
    solve_simplex,
    to_equality_form,
)
from lpduet.model import independent_rows


def toy_form():
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((1.0, 0.0), Relation.LE, 2.0)],
    )
    return to_equality_form(m)


def redundant_rows_model():
    # three scalings of one equality row make the equality form taller than
    # it is wide; the oracle must still see the vertices
    return build_model(
        Sense.MAX,
        ("x", "y"),
        (1.0, 1.0),
        [
            ((1.0, 1.0), Relation.EQ, 2.0),
            ((2.0, 2.0), Relation.EQ, 4.0),
            ((3.0, 3.0), Relation.EQ, 6.0),
            ((1.0, 0.0), Relation.LE, 5.0),
        ],
    )


def contradictory_rows_model():
    return build_model(
        Sense.MAX,
        ("x", "y"),
        (1.0, 1.0),
        [
            ((1.0, 1.0), Relation.EQ, 2.0),
            ((2.0, 2.0), Relation.EQ, 5.0),
        ],
    )


def reference_basic_solutions(form):
    """The oracle's kernel before batching: one subset at a time through
    scipy.linalg.lu_factor/lu_solve, with the same row drop and pivot rule."""
    n = form.n_cols
    kept = independent_rows(form)
    if kept is None:
        return
    a, b = kept.a, kept.b
    if a.shape[0] == 0:
        yield (), np.zeros(n), True, 0.0
        return
    for cols in itertools.combinations(range(n), a.shape[0]):
        sub = a[:, cols]
        scale = float(np.abs(sub).max())
        if scale == 0.0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(sub, check_finite=False)
        if float(np.abs(np.diag(lu)).min()) < lpduet.oracle.SINGULAR_RTOL * scale:
            continue
        xb = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
        x = np.zeros(n)
        x[list(cols)] = xb
        yield cols, x, bool(xb.min() >= -lpduet.oracle.FEASIBLE_TOL), float(form.c @ x)


def reference_forms():
    yield "lana", to_equality_form(lana_instance())
    yield "redundant", to_equality_form(redundant_rows_model())
    yield "contradictory", to_equality_form(contradictory_rows_model())
    for i in range(40):
        yield f"bounded{i}", to_equality_form(random_bounded_lp(rng_for(1300 + i)))
    for i in range(10):
        yield f"infeasible{i}", to_equality_form(random_infeasible_lp(rng_for(1400 + i)))
        yield f"unbounded{i}", to_equality_form(random_unbounded_lp(rng_for(1500 + i)))


def test_enumeration_matches_the_per_subset_reference():
    for name, form in reference_forms():
        got = [
            (s.basis, s.x.tobytes(), s.feasible, repr(s.objective))
            for s in enumerate_basic_solutions(form)
        ]
        want = [
            (cols, x.tobytes(), feasible, repr(objective))
            for cols, x, feasible, objective in reference_basic_solutions(form)
        ]
        assert got == want, name


def counting(monkeypatch):
    calls = {"lu_factor": 0, "lu_solve": 0}
    for attribute in calls:
        kernel = getattr(lpduet.oracle, attribute)

        def wrapper(*args, _attribute=attribute, _kernel=kernel, **kwargs):
            calls[_attribute] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(lpduet.oracle, attribute, wrapper)
    return calls


@pytest.mark.parametrize(
    "make, factors, solves",
    [(toy_form, 6, 5), (lambda: to_equality_form(lana_instance()), 54_264, 20_466)],
    ids=["toy", "lana"],
)
def test_one_factor_per_candidate_and_one_solve_per_nonsingular_basis(
    monkeypatch, make, factors, solves
):
    form = make()
    calls = counting(monkeypatch)
    sol = brute_force_optimum(form)
    assert calls == {"lu_factor": factors, "lu_solve": solves}
    assert factors == math.comb(form.n_cols, form.n_rows)
    assert sol.iterations == solves


def test_budget_is_tested_before_the_rank(monkeypatch):
    # 52 slack rows put the rank in [52, 60]; C(112, k) is far over budget
    # for each such k, so no rank has to be computed to refuse
    rng = rng_for(42)
    a = rng.normal(size=(60, 60))
    relations = [Relation.LE] * 52 + [Relation.EQ] * 8
    m = build_model(
        Sense.MAX,
        tuple(f"x{j}" for j in range(60)),
        np.ones(60),
        [(a[i], relations[i], 100.0) for i in range(60)],
    )
    form = to_equality_form(m)
    assert form.n_cols == 112 and len(form.slack_rows) == 52

    def no_rank(*args, **kwargs):
        raise AssertionError("the rank was computed")

    monkeypatch.setattr(np.linalg, "svd", no_rank)
    with pytest.raises(TooLarge):
        brute_force_optimum(form)


def test_over_budget_inconsistent_system_refuses():
    # the equality rows contradict each other, but the size of the
    # enumeration is settled first
    rng = rng_for(43)
    a = rng.normal(size=(12, 40))
    rows = [(a[i], Relation.LE, 100.0) for i in range(10)]
    rows += [(a[10], Relation.EQ, 1.0), (2.0 * a[10], Relation.EQ, 5.0)]
    m = build_model(Sense.MAX, tuple(f"x{j}" for j in range(40)), np.ones(40), rows)
    with pytest.raises(TooLarge):
        brute_force_optimum(to_equality_form(m))


def test_enumerate_toy_bases():
    sols = list(enumerate_basic_solutions(toy_form()))
    # C(4, 2) = 6 subsets; column pair (1, 3) is singular, the rest invert
    assert len(sols) == 5
    assert all(s.basis == tuple(sorted(s.basis)) for s in sols)
    feasible = [s for s in sols if s.feasible]
    assert len(feasible) == 4
    best = max(s.objective for s in feasible)
    assert best == 10.0


def test_enumerate_nonbasic_entries_are_exactly_zero():
    form = toy_form()
    for s in enumerate_basic_solutions(form):
        nonbasic = [j for j in range(form.n_cols) if j not in s.basis]
        assert all(s.x[j] == 0.0 for j in nonbasic)


def test_enumerate_skips_singular_pairs():
    bases = [s.basis for s in enumerate_basic_solutions(toy_form())]
    assert (1, 2) not in bases  # y and the first slack only touch row 0


def test_brute_force_toy():
    sol = brute_force_optimum(toy_form())
    assert sol.status is Status.OPTIMAL
    assert sol.objective == 10.0
    npt.assert_allclose(sol.x, np.array([2.0, 2.0]))


def test_brute_force_keeps_first_optimal_basis_on_ties():
    # every vertex of x + y <= 1 with objective x + y scores 1 except the origin
    m = build_model(
        Sense.MAX, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.LE, 1.0)]
    )
    form = to_equality_form(m)
    sols = [s for s in enumerate_basic_solutions(form) if s.feasible]
    best = max(s.objective for s in sols)
    first = next(s for s in sols if s.objective == best)
    sol = brute_force_optimum(form)
    assert sol.objective == best
    npt.assert_array_equal(sol.x[: form.n_structural], first.x[: form.n_structural])


def test_brute_force_infeasible():
    m = build_model(
        Sense.MAX,
        ("x",),
        (1.0,),
        [((1.0,), Relation.LE, 1.0), ((1.0,), Relation.GE, 2.0)],
    )
    sol = brute_force_optimum(to_equality_form(m))
    assert sol.status is Status.INFEASIBLE
    assert sol.x is None


def test_brute_force_guards_combinatorial_blowup():
    rng = rng_for(41)
    a = rng.normal(size=(10, 50))
    m = build_model(
        Sense.MAX,
        tuple(f"x{j}" for j in range(50)),
        np.ones(50),
        [(a[i], Relation.LE, 100.0) for i in range(10)],
    )
    with pytest.raises(TooLarge):
        brute_force_optimum(to_equality_form(m))


def test_brute_force_matches_simplex_on_random_instances():
    for i in range(20):
        m = random_bounded_lp(rng_for(900 + i))
        target = solve_simplex(m)
        sol = brute_force_optimum(to_equality_form(m))
        assert target.status is Status.OPTIMAL
        assert sol.status is Status.OPTIMAL
        rel = abs(sol.objective - target.objective) / (1.0 + abs(target.objective))
        assert rel <= 1e-7


def test_brute_force_handles_redundant_equality_rows():
    m = redundant_rows_model()
    sol = brute_force_optimum(to_equality_form(m))
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 2.0)
    assert solve_simplex(m).status is Status.OPTIMAL
    interior, _ = solve_affine(to_equality_form(m))
    assert interior.status is Status.OPTIMAL
    assert interior.binding == (0, 1, 2)  # every copy of the row binds
    npt.assert_allclose(interior.objective, 2.0, rtol=1e-6)


def test_brute_force_detects_contradictory_equality_rows():
    m = contradictory_rows_model()
    form = to_equality_form(m)
    assert list(enumerate_basic_solutions(form)) == []
    assert brute_force_optimum(form).status is Status.INFEASIBLE
    assert solve_simplex(m).status is Status.INFEASIBLE
    with pytest.raises(InfeasibleInterior):
        solve_affine(form)


@pytest.mark.parametrize("rhs", [1e6, 1e8])
def test_copies_with_large_rhs_apart_by_1e5_relative_are_infeasible(rhs):
    rows = [((1.0,), Relation.EQ, rhs), ((1.0,), Relation.EQ, rhs * (1 + 1e-5))]
    form = to_equality_form(build_model(Sense.MAX, ("x",), (1.0,), rows))
    assert list(enumerate_basic_solutions(form)) == []
    assert brute_force_optimum(form).status is Status.INFEASIBLE
    with pytest.raises(InfeasibleInterior):
        solve_affine(form)


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-14])
def test_oracle_and_affine_agree_on_near_duplicate_rows(eps):
    # rows this close are one row to both; the oracle keeps one copy and so
    # still finds bases, and the affine engine keeps its normal equations SPD
    for i in range(10):
        form = to_equality_form(near_duplicate_rows_lp(rng_for(6000 + i), eps))
        oracle = brute_force_optimum(form)
        interior, _ = solve_affine(form)
        assert oracle.status is Status.OPTIMAL, i
        assert interior.status is Status.OPTIMAL, i
        assert abs(interior.objective - oracle.objective) <= 1e-5 * max(1.0, abs(oracle.objective)), i


def test_brute_force_minimization_sense():
    m = build_model(
        Sense.MIN, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.GE, 2.0)]
    )
    sol = brute_force_optimum(to_equality_form(m))
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 2.0)
