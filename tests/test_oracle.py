"""Exhaustive basis enumeration against the iterative engines."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import lpduet.oracle
from conftest import (
    lana_model,
    near_duplicate_rows_lp,
    rng_for,
    random_bounded_lp,
    random_infeasible_lp,
    random_unbounded_lp,
    scaled_rows_lp,
)
from lpduet import (
    DimensionMismatch,
    NonFiniteInput,
    Relation,
    Sense,
    SimplexOptions,
    Status,
    TooLarge,
    brute_force_optimum,
    build_model,
    parse_lp_text,
    solve_affine,
    solve_simplex,
    to_equality_form,
)
from lpduet.model import independent_rows, solution_at


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
    """The oracle's kernel one subset at a time through
    scipy.linalg.lu_factor/lu_solve, with the same row drop and pivot rule. A
    subset of columns is basic exactly when the p x p system of the
    constraints it makes tight (p structural variables) is nonsingular: x_j =
    0 for each nonbasic structural j, then the structural part of each
    nonbasic slack or surplus column's row, then the kept = rows, each row
    divided by its largest |entry|. A basic slack's value comes from its
    unscaled row."""
    n = form.n_cols
    kept = independent_rows(form)
    if kept is None:
        return
    m, p = kept.a.shape[0], kept.n_structural
    if m == 0:
        yield (), np.zeros(n), True, 0.0
        return
    slack = kept.slack_rows
    eq = [i for i in range(m) if i not in slack]
    coef = kept.a[slack, p + np.arange(slack.size)]

    def scaled(row, rhs):
        largest = float(np.abs(row).max())
        return (row / largest, rhs / largest) if largest > 0.0 else (row, rhs)

    table = [scaled(row, 0.0) for row in np.eye(p)]
    table += [scaled(kept.a[i, :p], kept.b[i]) for i in slack]
    table += [scaled(kept.a[i, :p], kept.b[i]) for i in eq]
    for cols in itertools.combinations(range(n), m):
        tight = [j for j in range(n) if j not in cols] + list(range(n, len(table)))
        sub = np.array([table[j][0] for j in tight])
        rhs = np.array([table[j][1] for j in tight])
        scale = float(np.abs(sub).max())
        if scale == 0.0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(sub, check_finite=False)
        if float(np.abs(np.diag(lu)).min()) < lpduet.oracle.SINGULAR_RTOL * scale:
            continue
        structural = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
        slacks = (kept.b[slack] - (kept.a[slack, :p] * structural).sum(axis=1)) / coef
        xb = np.concatenate([structural, slacks])[list(cols)]
        x = np.zeros(n)
        x[list(cols)] = xb
        yield cols, x, bool(xb.min() >= -lpduet.oracle.FEASIBLE_TOL), float(form.c @ x)


def square_basis_solutions(form):
    """The oracle's earlier kernel, one subset at a time: each row of the kept
    A and b divided by its largest |entry|, slack coefficient included, and
    each candidate basis factored as the m x m submatrix of its columns."""
    n = form.n_cols
    kept = independent_rows(form)
    if kept is None:
        return
    row_scale = np.abs(kept.a).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    a, b = kept.a / row_scale[:, None], kept.b / row_scale
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


def basic_solutions(form):
    """(basis, x, feasible, objective) for each basis _nonsingular_batches
    yields, in its order, in the layout of reference_basic_solutions: the
    basis is the complement of the yielded nonbasic columns, x the point."""
    for nonbasic, points in lpduet.oracle._nonsingular_batches(form):
        for omitted, x in zip(nonbasic.tolist(), points):
            cols = tuple(j for j in range(form.n_cols) if j not in omitted)
            yield cols, x, bool((x >= -lpduet.oracle.FEASIBLE_TOL).all()), float(form.c @ x)


def enumeration(solutions):
    return [
        (cols, x.tobytes(), feasible, repr(objective))
        for cols, x, feasible, objective in solutions
    ]


# Every row zero and consistent: no row is kept, and the only basic solution is the origin.
RANK_ZERO = ["min: x;\nc1: 0 x = 0;\n", "min: x;\nc1: 0 x = 0;\nc2: 0 x = 0;\n"]

EDGE_FORMS = {
    # more structural variables than rows: each system is larger than m x m
    "wide": "max: x + y + z + w;\nc: x + 2 y + 3 z + 4 w <= 10;\n",
    # inequality rows with no structural part: their slacks must be basic
    "zero rows": "max: x + y;\nc1: x + y <= 4;\nc2: 0 x + 0 y <= 3;\nc3: 0 x + 0 y >= -1;\n",
    # e3 = e1 + e2: one of the three = rows is dropped before the systems are built
    "dependent": "max: x + y;\ne1: x + y = 2;\ne2: x - y = 0;\ne3: 2 x = 2;\nc: x <= 5;\n",
    "min": "min: x + 2 y;\nc1: x + y >= 2;\nc2: x - y <= 1;\n",
    "rank 0": RANK_ZERO[0],
    # a row far smaller than its slack coefficient is not a zero row
    "tiny row": "max: x + y;\nc: 1e-11 x + 1e-11 y <= 1;\n",
    # every column is basic: no nonbasic set, only the = rows are tight
    "all basic": "max: x + y;\ne1: x + y = 2;\ne2: x - y = 0;\n",
}


def reference_forms():
    yield "lana", to_equality_form(lana_model())
    yield "redundant", to_equality_form(redundant_rows_model())
    yield "contradictory", to_equality_form(contradictory_rows_model())
    for i in range(40):
        yield f"bounded{i}", to_equality_form(random_bounded_lp(rng_for(1300 + i)))
    for i in range(10):
        yield f"infeasible{i}", to_equality_form(random_infeasible_lp(rng_for(1400 + i)))
        yield f"unbounded{i}", to_equality_form(random_unbounded_lp(rng_for(1500 + i)))
    for name, text in EDGE_FORMS.items():
        yield name, to_equality_form(parse_lp_text(text))
    # 8-12 structural variables: numpy sums a slack row's 8 or more products
    # pairwise, not left to right
    drawn = (random_bounded_lp(rng_for(1600 + i), max_vars=12, max_rows=4) for i in itertools.count())
    wide = itertools.islice((m for m in drawn if m.n_vars >= 8), 4)
    for i, model in enumerate(wide):
        yield f"wide{i}", to_equality_form(model)


def test_enumeration_matches_the_per_subset_reference():
    for name, form in reference_forms():
        got = enumeration(basic_solutions(form))
        assert got == enumeration(reference_basic_solutions(form)), name


def ties_form():
    # every vertex of x + y <= 1 with objective x + y scores 1 except the origin
    m = build_model(
        Sense.MAX, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.LE, 1.0)]
    )
    return to_equality_form(m)


def reference_optimum(form, kernel=reference_basic_solutions):
    """brute_force_optimum over a per-subset kernel: the first feasible basis
    whose objective lies within the tie band of the largest."""
    solutions = list(kernel(form))
    feasible = [(x, objective) for _, x, ok, objective in solutions if ok]
    if not feasible:
        return solution_at(form, Status.INFEASIBLE, len(solutions))
    best = max(objective for _, objective in feasible)
    floor = best - lpduet.oracle.TIE_RTOL * (1.0 + abs(best))
    x = next(x for x, objective in feasible if objective >= floor)
    return solution_at(form, Status.OPTIMAL, len(solutions), x)


def fingerprint(sol):
    x = None if sol.x is None else sol.x.tobytes()
    return sol.status, x, repr(sol.objective), sol.iterations, sol.binding


def test_optimum_matches_the_best_per_subset_reference():
    for name, form in [*reference_forms(), ("ties", ties_form())]:
        assert fingerprint(brute_force_optimum(form)) == fingerprint(reference_optimum(form)), name


def test_tight_systems_match_the_square_bases():
    # the m x m kernel and the p x p one find the same bases and the same
    # feasibility; the points agree to rounding
    for name, form in [*reference_forms(), ("ties", ties_form())]:
        got, want = list(basic_solutions(form)), list(square_basis_solutions(form))
        assert [(cols, ok) for cols, _, ok, _ in got] == [(cols, ok) for cols, _, ok, _ in want], name
        for (_, x, _, _), (_, y, _, _) in zip(got, want):
            assert np.abs(x - y).max(initial=0.0) <= 1e-10 * (1.0 + np.abs(y).max(initial=0.0)), name
        sol, ref = brute_force_optimum(form), reference_optimum(form, square_basis_solutions)
        assert (sol.status, sol.iterations, sol.binding) == (ref.status, ref.iterations, ref.binding), name
        if ref.x is not None:
            assert np.abs(sol.x - ref.x).max() <= 1e-10 * (1.0 + np.abs(ref.x).max()), name


def test_lana_optimum_is_the_first_basis_in_the_tie_band():
    # 18 optimal bases tie within the band; the largest rounded objective
    # belongs to (0-9, 12, 13, 14, 16, 19), which strict improvement would keep
    form = to_equality_form(lana_model())
    feasible = [(cols, x, objective) for cols, x, ok, objective in basic_solutions(form) if ok]
    best = max(objective for _, _, objective in feasible)
    floor = best - lpduet.oracle.TIE_RTOL * (1.0 + abs(best))
    tied = [(cols, x) for cols, x, objective in feasible if objective >= floor]
    assert len(tied) == 18
    cols, x = tied[0]
    assert cols == (*range(10), 11, 12, 13, 14, 19)
    sol = brute_force_optimum(form)
    npt.assert_array_equal(sol.x, x[: form.n_structural])
    assert sol.binding == (4, 9, 10, 11, 12, 14)
    assert sol.trace == []


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
    [
        (toy_form, 6, 5),
        (lambda: to_equality_form(lana_model()), 54_264, 20_466),
        # the empty basis is one candidate: its system is x = 0
        (lambda: to_equality_form(parse_lp_text(RANK_ZERO[0])), 1, 1),
    ],
    ids=["toy", "lana", "rank 0"],
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


# 54,264 leaves 4, 0 and 264 over; LANA's blocks of nonbasic sets end at 1,
# 7, 28, ..., so batches of 7 straddle them and one of 10**6 holds them all
@pytest.mark.parametrize("batch", [5, 7, 1000, 10**6])
@pytest.mark.parametrize(
    "make, factors, solves",
    [(toy_form, 6, 5), (lambda: to_equality_form(lana_model()), 54_264, 20_466)],
    ids=["toy", "lana"],
)
def test_answers_do_not_depend_on_the_batch_size(monkeypatch, make, factors, solves, batch):
    form = make()
    want_bases = enumeration(basic_solutions(form))
    want_optimum = fingerprint(brute_force_optimum(form))
    monkeypatch.setattr(lpduet.oracle, "_BATCH", batch)
    calls = counting(monkeypatch)
    assert enumeration(basic_solutions(form)) == want_bases
    assert calls == {"lu_factor": factors, "lu_solve": solves}
    assert fingerprint(brute_force_optimum(form)) == want_optimum
    assert calls == {"lu_factor": 2 * factors, "lu_solve": 2 * solves}


@pytest.mark.parametrize("batch", [1, 7, 10**6])
def test_nonbasic_sets_are_the_complements_of_the_bases_in_order(batch):
    for n in range(10):
        for m in range(n + 1):  # m = n leaves every column basic
            batches = list(lpduet.oracle._descending_subsets(n, n - m, batch))
            want = [[j for j in range(n) if j not in cols] for cols in itertools.combinations(range(n), m)]
            assert np.concatenate(batches).tolist() == want, (n, m)
            assert all(len(rows) == batch for rows in batches[:-1]), (n, m)
            assert all(rows.dtype == np.uint8 for rows in batches), (n, m)


@pytest.mark.parametrize("n, k", [(256, 2), (257, 2), (300, 299)])
def test_nonbasic_sets_past_255_columns_are_not_wrapped(n, k):
    got = np.concatenate(list(lpduet.oracle._descending_subsets(n, k, 1000)))
    assert got.dtype == np.intp
    npt.assert_array_equal(got, list(itertools.combinations(range(n), k))[::-1])


def second_call_peak(form):
    brute_force_optimum(form)
    tracemalloc.start()
    try:
        brute_force_optimum(form)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_allocates_little_on_lana():
    # the nonbasic-set table is uint8 (77.5 KB on LANA); as int64 it alone
    # would take about 620 KB
    assert second_call_peak(to_equality_form(lana_model())) < 512 * 1024


def test_oracle_memory_per_candidate_stays_small(monkeypatch):
    # A second LANA call peaked at 458 KB at _BATCH = 384 and 710 KB at 768:
    # about 0.65 KB per candidate of a batch, most of it the candidate's 6 x 6
    # system (288 bytes) and its LU pivots (about 150). Building each batch's
    # K x 15 x 6 slack products at once takes it to about 1.15 KB.
    form = to_equality_form(lana_model())
    batch = lpduet.oracle._BATCH
    peak = second_call_peak(form)
    monkeypatch.setattr(lpduet.oracle, "_BATCH", 2 * batch)
    doubled = second_call_peak(form)
    assert peak < 500 * 1024
    assert doubled - peak < 800 * batch


@pytest.mark.parametrize("p", [*range(1, 41), 127, 128, 129, 135, 136, 137, 256, 300, 1000])
def test_pairwise_sum_has_the_bytes_of_numpys_row_sums(p):
    # each oracle slack must have the bytes that (slack_a * x).sum() gives
    rng = rng_for(8000 + p)
    rows = rng.normal(size=(12, p)) * 10.0 ** rng.integers(-8, 9, size=(12, p))
    rows[rng.random((12, p)) < 0.2] = 0.0
    rows[0] = -0.0
    rows[1, ::2] = -0.0
    rows[2] = rows[2, 0]
    rows[3, 1::2] = -rows[3, ::2][: p // 2]
    terms = [rows[:, j].copy() for j in range(p)]
    got = 0.0 + lpduet.oracle._pairwise_sum(lambda j: terms[j].copy(), 0, p)
    assert got.tobytes() == rows.sum(axis=1).tobytes()


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


def test_budget_is_tested_again_at_the_rank():
    # 20 distinct = rows, each given twice: C(40, 40) = 1 passes the first
    # test, but the rank is 20 and C(40, 20) candidates exceed the budget
    rng = rng_for(44)
    a = rng.uniform(0.5, 1.5, size=(20, 40))
    witness = rng.uniform(0.5, 2.0, 40)
    rows = [(a[i % 20], Relation.EQ, float(a[i % 20] @ witness)) for i in range(40)]
    m = build_model(Sense.MAX, tuple(f"x{j}" for j in range(40)), np.ones(40), rows)
    form = to_equality_form(m)
    assert form.a.shape == (40, 40) and independent_rows(form).a.shape == (20, 40)
    with pytest.raises(TooLarge, match=f"{math.comb(40, 20)} candidate bases"):
        brute_force_optimum(form)


def test_rank_zero_system_has_only_the_origin():
    for text in RANK_ZERO:
        form = to_equality_form(parse_lp_text(text))
        # the one column is nonbasic, and the point is x = 0
        [(nonbasic, points)] = lpduet.oracle._nonsingular_batches(form)
        assert (nonbasic.shape, nonbasic.dtype, points.shape, points.dtype) == (
            (1, 1), np.uint8, (1, 1), np.float64
        )
        assert (nonbasic.tolist(), points.tolist()) == ([[0]], [[0.0]])
        sol = brute_force_optimum(form)
        # every row is an = row, and those always bind
        assert (sol.status, sol.objective, sol.iterations) == (Status.OPTIMAL, 0.0, 1), text
        assert sol.binding == tuple(range(form.n_rows)), text
        npt.assert_array_equal(sol.x, [0.0])


def test_enumerate_toy_bases():
    sols = list(basic_solutions(toy_form()))
    # C(4, 2) = 6 subsets; column pair (1, 3) is singular, the rest invert
    assert len(sols) == 5
    assert all(cols == tuple(sorted(cols)) for cols, _, _, _ in sols)
    feasible = [objective for _, _, ok, objective in sols if ok]
    assert len(feasible) == 4
    assert max(feasible) == 10.0


def test_enumerate_nonbasic_entries_are_exactly_zero():
    forms = {"toy": toy_form(), "lana": to_equality_form(lana_model())}
    forms.update((name, to_equality_form(parse_lp_text(text))) for name, text in EDGE_FORMS.items())
    for name, form in forms.items():
        for cols, x, _, _ in basic_solutions(form):
            nonbasic = [j for j in range(form.n_cols) if j not in cols]
            assert all(x[j] == 0.0 for j in nonbasic), (name, cols)


def test_enumerate_skips_singular_pairs():
    bases = [cols for cols, _, _, _ in basic_solutions(toy_form())]
    assert (1, 2) not in bases  # y and the first slack only touch row 0


def test_brute_force_toy():
    sol = brute_force_optimum(toy_form())
    assert sol.status is Status.OPTIMAL
    assert sol.objective == 10.0
    npt.assert_allclose(sol.x, np.array([2.0, 2.0]))


def test_brute_force_keeps_first_optimal_basis_on_ties():
    form = ties_form()
    sols = [(x, objective) for _, x, ok, objective in basic_solutions(form) if ok]
    best = max(objective for _, objective in sols)
    first = next(x for x, objective in sols if objective == best)
    sol = brute_force_optimum(form)
    assert sol.objective == best
    npt.assert_array_equal(sol.x[: form.n_structural], first[: form.n_structural])


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
    assert list(basic_solutions(form)) == []
    assert brute_force_optimum(form).status is Status.INFEASIBLE
    assert solve_simplex(m).status is Status.INFEASIBLE
    affine, rows = solve_affine(form)
    assert (affine.status, affine.iterations, rows) == (Status.INFEASIBLE, 0, [])


# (array, index, value) set in the equality form of "max: 3x + 2y; cap: x +
# y <= 4; fix: x - y = 0;", whose row 0 is the <= row and row 1 the = row.
NON_FINITE = {
    "nan in a <= row": ("a", (0, 0), np.nan),
    "inf in a <= row": ("a", (0, 1), np.inf),
    "inf in b": ("b", 0, np.inf),
    "nan in c": ("c", 1, np.nan),
    "nan in an = row": ("a", (1, 0), np.nan),
}


@pytest.mark.parametrize("engine", [brute_force_optimum, solve_affine], ids=["oracle", "affine"])
@pytest.mark.parametrize("entry", NON_FINITE)
def test_a_hand_built_form_with_nan_or_infinity_is_refused(entry, engine):
    # A StandardForm built by hand skips build_model's finiteness checks.
    form = to_equality_form(parse_lp_text("max: 3x + 2y;\ncap: x + y <= 4;\nfix: x - y = 0;\n"))
    field, index, value = NON_FINITE[entry]
    array = getattr(form, field).copy()
    array[index] = value
    with pytest.raises(NonFiniteInput):
        engine(dataclasses.replace(form, **{field: array}))


# Fields changed one at a time in the equality form of "max: 3x + 2y; cap: x
# + y <= 4; wall: x <= 2; floor: y >= 1;": 3 rows, 5 columns, slack rows
# [0, 1, 2] after 2 structural columns.
MISMATCHED = {
    "short-c": lambda form: {"c": form.c[:-1]},
    "long-b": lambda form: {"b": np.append(form.b, 1.0)},
    "short-b": lambda form: {"b": form.b[:-1]},
    "slack-row-out-of-range": lambda form: {"slack_rows": np.array([0, 1, 5])},
    "n-structural": lambda form: {"n_structural": 3},
    "slack-rows-unordered": lambda form: {"slack_rows": np.array([1, 0, 2])},
    "slack-rows-not-a-vector": lambda form: {"slack_rows": np.array([[0, 1, 2]])},
}


@pytest.mark.parametrize("case", MISMATCHED)
@pytest.mark.parametrize("engine", [brute_force_optimum, solve_affine], ids=["oracle", "affine"])
def test_a_hand_built_form_with_mismatched_shapes_is_refused(engine, case):
    # Unchecked, each ends in a numpy error or warning, or, for the long b,
    # in an oracle verdict of optimal.
    form = to_equality_form(parse_lp_text("max: 3x + 2y;\ncap: x + y <= 4;\nwall: x <= 2;\nfloor: y >= 1;\n"))
    with pytest.raises(DimensionMismatch):
        engine(dataclasses.replace(form, **MISMATCHED[case](form)))


@pytest.mark.parametrize("rhs", [1e6, 1e8])
def test_copies_with_large_rhs_apart_by_1e5_relative_are_infeasible(rhs):
    rows = [((1.0,), Relation.EQ, rhs), ((1.0,), Relation.EQ, rhs * (1 + 1e-5))]
    form = to_equality_form(build_model(Sense.MAX, ("x",), (1.0,), rows))
    assert list(basic_solutions(form)) == []
    assert brute_force_optimum(form).status is Status.INFEASIBLE
    affine, rows = solve_affine(form)
    assert (affine.status, affine.iterations, rows) == (Status.INFEASIBLE, 0, [])


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


@pytest.mark.parametrize("scale", [1e10, 1e12, 1e-12])
def test_optimum_does_not_depend_on_the_scale_of_an_equality_row(scale):
    # a pivot compared with the largest entry of the whole basis, not of its
    # own row, takes every basis that needs the scaled row for singular
    for i in range(40):
        plain = brute_force_optimum(to_equality_form(scaled_rows_lp(rng_for(7000 + i), 1.0)))
        scaled = brute_force_optimum(to_equality_form(scaled_rows_lp(rng_for(7000 + i), scale)))
        assert plain.status is Status.OPTIMAL, i
        assert scaled.status is Status.OPTIMAL, i
        assert abs(scaled.objective - plain.objective) <= 1e-9 * (1.0 + abs(plain.objective)), i


@pytest.mark.parametrize(
    "text",
    [
        "max: x + y;\nc: 1e-11 x + 1e-11 y <= 1;\n",
        # the 1 x 1 system of r1 settles {x, s2}; the 2 x 2 basis block
        # [[1e-11, 0], [1, 1]] has a pivot of 1e-11 against an entry of 1
        "max: x;\nr1: 1e-11 x <= 1;\nr2: x <= 2e11;\n",
    ],
    ids=["one-row", "two-rows"],
)
def test_rows_far_below_their_slack_coefficient_keep_their_vertices(text):
    # the simplex's ratio test skips column entries within pivot_tol of zero,
    # so it needs a tolerance below 1e-11 to see these rows at all
    m = parse_lp_text(text)
    target = solve_simplex(m, SimplexOptions(pivot_tol=1e-13))
    sol = brute_force_optimum(to_equality_form(m))
    assert target.status is Status.OPTIMAL
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 1e11, rtol=1e-12)
    npt.assert_allclose(sol.objective, target.objective, rtol=1e-12)


def test_brute_force_minimization_sense():
    m = build_model(
        Sense.MIN, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.GE, 2.0)]
    )
    sol = brute_force_optimum(to_equality_form(m))
    assert sol.status is Status.OPTIMAL
    npt.assert_allclose(sol.objective, 2.0)
