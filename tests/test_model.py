"""Model construction, canonical forms, Big-M structure, residual reports."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import lana_model, rng_for, random_bounded_lp
from lpduet import (
    DimensionMismatch,
    EmptyModel,
    NonFiniteInput,
    Relation,
    Sense,
    Status,
    brute_force_optimum,
    build_model,
    constraint_residuals,
    solve_affine,
    solve_simplex,
    to_equality_form,
)
from lpduet.model import independent_rows, solution_at, to_big_m_form
from lpduet.simplex import init_tableau


def toy_model():
    return build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [
            ((1.0, 1.0), Relation.LE, 4.0),
            ((1.0, 0.0), Relation.LE, 2.0),
        ],
    )


def test_build_model_shapes_and_names():
    m = toy_model()
    assert m.sense is Sense.MAX
    assert m.variable_names == ("x", "y")
    assert m.n_constraints == 2
    assert m.row_names == ("c1", "c2")
    assert m.a.shape == (2, 2)
    assert m.b.shape == (2,)
    npt.assert_array_equal(m.objective, np.array([3.0, 2.0]))


def test_build_model_flips_negative_rhs():
    m = build_model(
        Sense.MIN,
        ("x",),
        (1.0,),
        [((2.0,), Relation.LE, -4.0)],
    )
    assert m.b[0] == 4.0
    assert m.relations[0] is Relation.GE
    npt.assert_array_equal(m.a[0], np.array([-2.0]))


def test_build_model_rejects_bad_input():
    with pytest.raises(EmptyModel):
        build_model(Sense.MAX, (), (), [])
    with pytest.raises(EmptyModel):
        build_model(Sense.MAX, ("x",), (1.0,), [])
    with pytest.raises(DimensionMismatch):
        build_model(Sense.MAX, ("x",), (1.0, 2.0), [((1.0,), Relation.LE, 1.0)])
    with pytest.raises(DimensionMismatch):
        build_model(Sense.MAX, ("x",), (1.0,), [((1.0, 2.0), Relation.LE, 1.0)])
    with pytest.raises(NonFiniteInput, match="^objective has a non-finite coefficient$"):
        build_model(Sense.MAX, ("x",), (np.nan,), [((1.0,), Relation.LE, 1.0)])
    with pytest.raises(ValueError):
        build_model(Sense.MAX, ("x", "x"), (1.0, 2.0), [((1.0, 1.0), Relation.LE, 1.0)])
    with pytest.raises(ValueError):
        build_model(Sense.MAX, ("2bad",), (1.0,), [((1.0,), Relation.LE, 1.0)])
    with pytest.raises(NonFiniteInput, match="^constraint 'c1' has a non-finite coefficient$"):
        build_model(Sense.MAX, ("x", "y"), (1.0, 1.0), [((1.0, np.nan), Relation.LE, 1.0)])
    with pytest.raises(NonFiniteInput, match="'cap' has a non-finite rhs"):
        build_model(Sense.MAX, ("x",), (1.0,), [("cap", (1.0,), Relation.LE, np.inf)])
    with pytest.raises(ValueError, match="duplicate constraint name 'cap'"):
        build_model(
            Sense.MAX,
            ("x",),
            (1.0,),
            [("cap", (1.0,), Relation.LE, 1.0), ("cap", (2.0,), Relation.LE, 3.0)],
        )
    with pytest.raises(ValueError, match="invalid constraint name 'max'"):
        build_model(Sense.MAX, ("x",), (1.0,), [("max", (1.0,), Relation.LE, 1.0)])


def test_build_model_reads_sense_and_relation_strings():
    built = build_model(
        "MAX",
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), "<=", 4.0), ((1.0, 0.0), ">=", 1.0), ((0.0, 1.0), "=", 2.0)],
    )
    assert built == build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [
            ((1.0, 1.0), Relation.LE, 4.0),
            ((1.0, 0.0), Relation.GE, 1.0),
            ((0.0, 1.0), Relation.EQ, 2.0),
        ],
    )
    assert built.sense is Sense.MAX
    assert built.relations == (Relation.LE, Relation.GE, Relation.EQ)


def test_model_equality_is_structural():
    assert toy_model() == toy_model()
    other = build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((1.0, 0.0), Relation.LE, 3.0)],
    )
    assert toy_model() != other
    # A non-model is left to the other operand, so == falls back to identity.
    assert toy_model().__eq__("toy") is NotImplemented
    assert toy_model() != "toy"


def test_lana_instance_census():
    m = lana_model()
    assert m.sense is Sense.MAX
    assert len(m.variable_names) == 6
    assert m.n_constraints == 15
    assert m.a.shape == (15, 6)
    assert m.relations.count(Relation.GE) == 9
    assert m.relations.count(Relation.LE) == 6
    assert m.relations.count(Relation.EQ) == 0
    npt.assert_array_equal(
        m.objective, np.array([8.073, 6.398, 3.9965, 5.943, 5.52175, 7.1955])
    )
    cap = m.row_names.index("profit_cap")
    assert m.b[cap] == 765056.25
    npt.assert_array_equal(m.a[cap], m.objective)
    assert m.b[m.row_names.index("k6_max")] == 6500.0


def test_to_equality_form_column_layout():
    model = lana_model()
    form = to_equality_form(model)
    assert form.a.shape == (15, 21)
    assert form.n_structural == 6
    npt.assert_array_equal(form.a[:, :6], model.a)
    assert not form.negated
    assert np.all(form.b >= 0.0)
    # one column per inequality row, in row order: +1 for a slack, -1 for a surplus
    npt.assert_array_equal(form.slack_rows, np.arange(15))
    signs = form.a[form.slack_rows, 6 + np.arange(15)]
    assert list(signs).count(1.0) == 6
    assert list(signs).count(-1.0) == 9
    for i, sign in zip(form.slack_rows, signs):
        assert sign == (1.0 if model.relations[i] is Relation.LE else -1.0)
    # each added column has exactly one nonzero entry
    assert np.count_nonzero(form.a[:, 6:]) == 15


@pytest.mark.parametrize("factor", [1e6, 1e-12])
def test_independent_rows_keeps_scaled_rows_and_drops_near_copies(factor):
    # e2 is independent of e1 at any scale; e3 is e1 to 1e-14 relative
    witness = np.array([1.0, 2.0, 0.5])
    e1 = np.array([1.0, 2.0, 0.5])
    e2 = factor * np.array([2.0, 1.0, 1.0])
    e3 = e1 * (1.0 + 1e-14 * np.array([1.0, -1.0, 0.5]))
    rows = [(e1, Relation.EQ, e1 @ witness), (np.ones(3), Relation.LE, 10.0),
            (e2, Relation.EQ, e2 @ witness), (e3, Relation.EQ, e3 @ witness)]
    form = to_equality_form(build_model(Sense.MAX, ("x", "y", "z"), np.ones(3), rows))
    kept = independent_rows(form)
    rows = [next(i for i in range(4) if np.array_equal(row, form.a[i])) for row in kept.a]
    assert rows in ([0, 1, 2], [1, 2, 3])  # the cap, e2, and one of e1 and e3
    npt.assert_array_equal(kept.b, form.b[rows])
    npt.assert_array_equal(kept.slack_rows, [rows.index(1)])
    assert kept.c is form.c and kept.n_structural == 3


def test_independent_rows_copies_nothing_when_no_row_drops():
    lana = to_equality_form(lana_model())  # no equality rows: no rank is taken
    assert independent_rows(lana) is lana
    form = to_equality_form(random_bounded_lp(rng_for(1300)))  # two equality rows
    assert form.n_rows - len(form.slack_rows) == 2
    assert independent_rows(form) is form


def test_independent_rows_refuses_inconsistent_rows():
    rows = [((1.0, 1.0), Relation.EQ, 2.0), ((2.0, 2.0), Relation.EQ, 5.0),
            ((1.0, 0.0), Relation.LE, 1.0)]
    form = to_equality_form(build_model(Sense.MAX, ("x", "y"), (1.0, 1.0), rows))
    assert independent_rows(form) is None
    zero = to_equality_form(build_model(Sense.MAX, ("x",), (1.0,), [((0.0,), Relation.EQ, 1.0)]))
    assert independent_rows(zero) is None


@pytest.mark.parametrize("rhs", [1e6, 1e8])
def test_independent_rows_judges_copies_by_the_feasibility_tolerance(rhs):
    # the copies are one row; their rhs must agree to 1e-6 * (1 + |rhs|)
    def form(*rows):
        return to_equality_form(build_model(Sense.MAX, ("x", "y"), (1.0, 1.0), rows))

    big = ((0.0, 1.0), Relation.EQ, 1e8)
    assert independent_rows(form(((1.0, 0.0), Relation.EQ, rhs),
                                 ((1.0, 0.0), Relation.EQ, rhs * (1 + 1e-5)))) is None
    assert independent_rows(form(big, ((1.0, 0.0), Relation.EQ, 1.0),
                                 ((1.0, 0.0), Relation.EQ, 1.001))) is None
    kept = independent_rows(form(big, ((1.0, 0.0), Relation.EQ, rhs),
                                 ((1.0, 0.0), Relation.EQ, rhs * (1 + 1e-8))))
    assert kept.n_rows == 2


def binding_at(form, x_full):
    return solution_at(form, Status.OPTIMAL, 0, np.array(x_full)).binding


def test_to_equality_form_gives_equality_rows_no_column():
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (1.0, 1.0),
        [
            ((1.0, 1.0), Relation.EQ, 3.0),
            ((1.0, 0.0), Relation.GE, 1.0),
            ((0.0, 1.0), Relation.EQ, 1.0),
            ((1.0, 2.0), Relation.LE, 9.0),
        ],
    )
    form = to_equality_form(m)
    assert form.n_structural == 2
    npt.assert_array_equal(form.slack_rows, [1, 3])
    npt.assert_array_equal(form.a[:, 2:], [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    # equality rows stay binding; an inequality row binds when its column is zero
    assert binding_at(form, [2.0, 1.0, 1.0, 5.0]) == (0, 2)
    assert binding_at(form, [2.0, 1.0, 0.0, 5.0]) == (0, 1, 2)
    # the >= and = rows start on their artificials (columns 4-6), the <= row on its slack
    assert init_tableau(to_big_m_form(m)).basis == (4, 5, 6, 3)


def test_to_equality_form_negates_minimization():
    m = build_model(Sense.MIN, ("x",), (5.0,), [((1.0,), Relation.GE, 2.0)])
    form = to_equality_form(m)
    assert form.negated
    assert form.c[0] == -5.0


def test_equality_form_feasibility_transfer():
    rng = rng_for(21)
    points = rng_for(22)
    for _ in range(20):
        m = random_bounded_lp(rng)
        form = to_equality_form(m)
        assert form.a.shape == (m.n_constraints, form.n_cols)
        assert form.n_structural == len(m.variable_names)
        # Reference: read each added column's row off the matrix, row by row.
        n = form.n_structural
        owner = {int(np.flatnonzero(form.a[:, j])[0]): j for j in range(n, form.n_cols)}
        x_full = points.uniform(0.0, 1.0, form.n_cols) * (points.random(form.n_cols) < 0.5)
        expected = tuple(
            i
            for i in range(form.n_rows)
            if i not in owner or abs(x_full[owner[i]]) <= 1e-6 * (1.0 + abs(form.b[i]))
        )
        solution = solution_at(form, Status.OPTIMAL, 0, x_full)
        assert solution.binding == expected
        npt.assert_array_equal(solution.x, x_full[:n])
        bm = to_big_m_form(m)
        artificial = {row: form.n_cols + k for k, row in enumerate(bm.artificial_rows.tolist())}
        assert init_tableau(bm).basis == tuple(
            artificial.get(i, owner.get(i)) for i in range(form.n_rows)
        )


def test_to_big_m_form_lana_structure():
    model = lana_model()
    bm = to_big_m_form(model)
    t = init_tableau(bm)
    assert t.body.shape == (15, 21)
    assert len(bm.artificial_rows) == 9
    assert bm.artificial_rows.tolist() == [
        i for i, rel in enumerate(model.relations) if rel is not Relation.LE
    ]
    artificial_cols = [t.basis[row] for row in bm.artificial_rows]
    assert artificial_cols == list(range(21, 30))
    # each basic artificial carries the -M penalty and no finite cost, and
    # has no stored column: z_m is minus the sum of the artificial rows and
    # obj_m minus the sum of their rhs
    npt.assert_allclose(t.z_m, -bm.base.a[bm.artificial_rows].sum(axis=0), atol=1e-12)
    assert t.obj_m == pytest.approx(-bm.base.b[bm.artificial_rows].sum(), rel=1e-15)
    assert t.obj_fin == 0.0
    basis = t.basis
    assert len(basis) == 15
    stored = [(row, col) for row, col in enumerate(basis) if col < 21]
    assert len(stored) == 6
    for row, col in stored:
        assert t.z_m[col] == 0.0
        assert t.z_fin[col] == 0.0
    rows, cols = zip(*stored)
    npt.assert_array_equal(t.body[:, list(cols)], np.eye(15)[:, list(rows)])


def test_constraint_residuals_reports_binding_rows():
    m = toy_model()
    form = to_equality_form(m)
    report = constraint_residuals(m, np.array([2.0, 2.0]))
    assert report.feasible
    npt.assert_allclose(report.residuals, np.zeros(2), atol=1e-12)
    assert binding_at(form, [2.0, 2.0, 0.0, 0.0]) == (0, 1)

    inside = constraint_residuals(m, np.array([1.0, 1.0]))
    assert inside.feasible
    npt.assert_allclose(inside.residuals, np.array([2.0, 1.0]))
    assert binding_at(form, [1.0, 1.0, 2.0, 1.0]) == ()

    outside = constraint_residuals(m, np.array([3.0, 3.0]))
    assert not outside.feasible


def test_constraint_residuals_rejects_negative_point():
    m = toy_model()
    assert not constraint_residuals(m, np.array([-1.0, 0.0])).feasible


def test_constraint_residuals_rejects_a_point_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match="point has 3 entries for 2 variables"):
        constraint_residuals(toy_model(), np.ones(3))


def test_constraint_residuals_equality_row():
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (1.0, 0.0),
        [((1.0, 1.0), Relation.EQ, 2.0), ((1.0, 0.0), Relation.LE, 5.0)],
    )
    on = constraint_residuals(m, np.array([1.0, 1.0]))
    assert on.feasible
    off = constraint_residuals(m, np.array([1.0, 0.5]))
    assert not off.feasible


def _residuals_row_by_row(model, x, tol=1e-6):
    residuals, feasible, binding = [], bool(np.all(x >= -tol)), []
    for i in range(model.n_constraints):
        lhs = float(model.a[i] @ x)
        rhs = float(model.b[i])
        relation = model.relations[i]
        if relation is Relation.LE:
            r = rhs - lhs
        elif relation is Relation.GE:
            r = lhs - rhs
        else:
            r = abs(lhs - rhs)
        row_tol = tol * (1.0 + abs(rhs))
        if (r > row_tol) if relation is Relation.EQ else (r < -row_tol):
            feasible = False
        if abs(r) <= row_tol:
            binding.append(i)
        residuals.append(r)
    return np.array(residuals), feasible, tuple(binding)


def test_constraint_residuals_matches_row_by_row_reference():
    rng = rng_for(23)
    points = rng_for(24)
    checked = 0
    while checked < 20:
        m = random_bounded_lp(rng)
        if Relation.EQ not in m.relations:
            continue
        checked += 1
        solution = solve_simplex(m)
        vertex = solution.x
        candidates = [
            vertex,  # feasible, with its binding rows
            vertex + points.uniform(-1e-9, 1e-9, m.n_vars),  # still within tolerance
            vertex + points.uniform(-1.0, 1.0, m.n_vars),  # off the equality rows
            -vertex - 1.0,  # negative entries
        ]
        for x in candidates:
            expected, feasible, _ = _residuals_row_by_row(m, x)
            report = constraint_residuals(m, x)
            npt.assert_allclose(report.residuals, expected, rtol=0.0, atol=1e-12)
            assert report.feasible == feasible
        # the binding rows the simplex reports are those the reference finds
        assert solution.binding == _residuals_row_by_row(m, vertex)[2]
        assert constraint_residuals(m, vertex).feasible
        assert not constraint_residuals(m, candidates[3]).feasible


def test_evaluate_objective():
    form = to_equality_form(toy_model())
    solution = solution_at(form, Status.OPTIMAL, 2, np.array([2.0, 2.0, 0.0, 0.0]))
    assert solution.status is Status.OPTIMAL and solution.iterations == 2
    npt.assert_array_equal(solution.x, np.array([2.0, 2.0]))
    assert solution.objective == 10.0


def test_structural_values_and_native_objective():
    m = build_model(Sense.MIN, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.GE, 2.0)])
    form = to_equality_form(m)
    solution = solution_at(form, Status.OPTIMAL, 1, np.array([1.5, 0.5, 0.0]))
    npt.assert_array_equal(solution.x, np.array([1.5, 0.5]))
    assert solution.objective == 2.0
    assert solution.binding == (0,)


def test_solution_at_reports_native_objective():
    m = build_model(Sense.MIN, ("x", "y"), (1.0, 1.0), [((1.0, 1.0), Relation.GE, 2.0)])
    form = to_equality_form(m)
    # a MIN model at zero reports 0.0, as model.objective @ x does, not -0.0
    assert repr(solution_at(form, Status.OPTIMAL, 0, np.zeros(3)).objective) == "0.0"

    none = solution_at(form, Status.INFEASIBLE, 3)
    assert (none.x, none.objective, none.iterations, none.binding) == (None, None, 3, ())


def test_every_engine_reports_the_objective_of_its_point():
    minimize = build_model(
        Sense.MIN,
        ("x", "y"),
        (1.0, 1.0),
        [((1.0, 1.0), Relation.GE, 2.0), ((1.0, 0.0), Relation.LE, 5.0)],
    )
    rng = rng_for(25)
    models = [lana_model(), toy_model(), minimize] + [random_bounded_lp(rng) for _ in range(30)]
    for model in models:
        form = to_equality_form(model)
        for solution in (solve_simplex(model), solve_affine(form)[0], brute_force_optimum(form)):
            assert solution.status is Status.OPTIMAL
            assert solution.objective == float(model.objective @ solution.x)
