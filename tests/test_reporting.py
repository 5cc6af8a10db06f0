"""Report rendering and iteration trace files."""

import json

import numpy as np
import pytest

from conftest import lana_model
from lpduet import (
    IPM_TRACE_HEADER,
    SIMPLEX_TRACE_HEADER,
    Relation,
    Sense,
    build_model,
    build_report,
    parse_lp_text,
    solve_affine,
    solve_simplex,
    to_equality_form,
    write_iteration_trace,
    write_report_pair,
    write_solution_report,
)
from lpduet.affine import find_interior_point


def toy_model():
    return build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((1.0, 0.0), Relation.LE, 2.0)],
    )


def toy_report():
    m = toy_model()
    return build_report("simplex", m, solve_simplex(m), 1.25), m


def test_build_report_fields():
    report, _ = toy_report()
    assert report["method"] == "simplex"
    assert report["status"] == "optimal"
    assert report["objective"] == 10.0
    assert report["variables"] == [{"name": "x", "value": 2.0}, {"name": "y", "value": 2.0}]
    assert sorted(report["binding_constraints"]) == ["c1", "c2"]
    assert report["iterations"] == 2
    assert report["wall_time_ms"] == 1.25


def test_build_report_key_order():
    report, _ = toy_report()
    assert list(report) == [
        "method",
        "status",
        "objective",
        "variables",
        "binding_constraints",
        "iterations",
        "wall_time_ms",
    ]


def test_json_report_round_trips():
    report, _ = toy_report()
    text = write_solution_report(report, format="json")
    assert json.loads(text) == report


def test_human_report_layout():
    report, model = toy_report()
    text = write_solution_report(report, format="human", model=model)
    assert "method:     simplex" in text
    assert "objective:  10.000000" in text
    assert "variable" in text and "lower bound" in text
    assert text.endswith("\n")


def test_human_report_marks_lower_bounds():
    model = lana_model()
    sol = solve_simplex(model)
    report = build_report("simplex", model, sol, 0.0)
    text = write_solution_report(report, format="human", model=model)
    # k4 sits exactly on its lower bound; k1 is well above its own
    assert ">= 2200 (binding)" in text
    assert ">= 11000 (above)" in text
    assert "binding: " in text


def test_lower_bound_note_takes_the_first_bound_row():
    # Two single-variable >= rows on x: the first one is the one reported.
    m = build_model(
        Sense.MIN,
        ("x", "y"),
        (1.0, 1.0),
        [((2.0, 0.0), Relation.GE, 2.0), ((1.0, 0.0), Relation.GE, 3.0), ((0.0, 1.0), Relation.GE, 1.0)],
    )
    report = build_report("simplex", m, solve_simplex(m), 0.0)
    text = write_solution_report(report, format="human", model=m)
    assert "3.000000  >= 1 (above)" in text
    assert "1.000000  >= 1 (binding)" in text
    # -y >= 0 bounds y from above, so it is no lower-bound row.
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (1.0, 1.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((0.0, -1.0), Relation.GE, 0.0), ((1.0, 0.0), Relation.GE, 1.0)],
    )
    report = build_report("simplex", m, solve_simplex(m), 0.0)
    text = write_solution_report(report, format="human", model=m)
    assert "4.000000  >= 1 (above)\n" in text
    assert "0.000000  -\n" in text


@pytest.mark.parametrize(
    "text, note, binding",
    [
        # x prints as 0.001, on its bound, but row c's surplus (1000 x - 1)
        # stays above its tolerance, so c does not bind
        ("max: -x - y; c: 1000 x >= 1; d: y >= 0.001; cap: x + y <= 5;", ">= 0.001 (above)", "d"),
        # x ends 1.9e-5 below its bound while row c's surplus is within tolerance
        ("max: -x; c: 0.001 x >= 1; cap: x <= 5000;", ">= 1000 (binding)", "c"),
    ],
    ids=["value-on-bound", "value-below-bound"],
)
def test_lower_bound_label_follows_the_binding_line(text, note, binding):
    m = parse_lp_text(text)
    sol, _ = solve_affine(to_equality_form(m))
    report = build_report("affine", m, sol, 0.0)
    assert report["binding_constraints"] == [binding]
    lines = write_solution_report(report, format="human", model=m).splitlines()
    assert next(line for line in lines if line.startswith("x ")).endswith(note)


@pytest.mark.parametrize("names", [("K1", "K2"), ("quantity_of_k1", "k2")])
def test_values_end_under_the_value_header(names):
    # Names shorter than "variable" must not pull the values left of their header.
    m = build_model(Sense.MAX, names, (1.0, 2.0), [((1.0, 1.0), Relation.LE, 15025.944987)])
    report = build_report("simplex", m, solve_simplex(m), 0.0)
    lines = write_solution_report(report, format="human", model=m).splitlines()
    header = next(line for line in lines if line.startswith("variable"))
    end = header.index("value") + len("value")
    rows = [line for line in lines if line.startswith(names)]
    assert len(rows) == 2
    for line in rows:
        value = line.split()[1]
        assert line.index(value) + len(value) == end


def test_unknown_format_rejected():
    report, _ = toy_report()
    with pytest.raises(ValueError):
        write_solution_report(report, format="yaml")
    with pytest.raises(ValueError):
        write_report_pair(report, report, format="yaml")


def test_report_without_point_has_no_variable_block():
    m = build_model(Sense.MAX, ("x",), (1.0,), [((1.0,), Relation.GE, 1.0)])
    report = build_report("simplex", m, solve_simplex(m), 0.0)
    assert report["objective"] is None
    assert report["variables"] == []
    text = write_solution_report(report, format="human", model=m)
    assert "objective:  -" in text


def test_report_pair_delta_line():
    report, model = toy_report()
    sol_i, _ = solve_affine(to_equality_form(model))
    second = build_report("affine", model, sol_i, 2.0)
    text = write_report_pair(report, second, format="human", model=model)
    assert "objective delta (simplex - affine):" in text
    both = json.loads(write_report_pair(report, second, format="json"))
    assert [d["method"] for d in both] == ["simplex", "affine"]


def test_ipm_trace_rows_are_scaled():
    # Row 0 is the phase-1 point; the residual is scaled by 1 + ||b||.
    form = to_equality_form(toy_model())
    _, rows = solve_affine(form)
    x0 = find_interior_point(form)
    residual = np.linalg.norm(form.b - form.a @ x0) / (1.0 + np.linalg.norm(form.b))
    assert rows[0] == (0, form.c @ x0, np.inf, x0.min(), residual)


def test_write_ipm_trace(tmp_path):
    _, rows = solve_affine(to_equality_form(toy_model()))
    out = tmp_path / "trace.csv"
    write_iteration_trace(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == IPM_TRACE_HEADER
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "inf"


def test_write_simplex_trace(tmp_path):
    rows = [
        (1, 6.0, 0, 3),
        (2, 10, 1, 2),  # an int objective is still written as a float
    ]
    out = tmp_path / "trace.csv"
    write_iteration_trace(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == SIMPLEX_TRACE_HEADER
    assert lines[1] == "1,6.0,0,3"
    assert lines[2] == "2,10.0,1,2"


def test_write_trace_coerces_numpy_scalars(tmp_path):
    rows = [(1, np.float64(88803.0), np.int64(0), np.int64(24))]
    out = tmp_path / "trace.csv"
    write_iteration_trace(rows, out)
    line = out.read_text().splitlines()[1]
    assert line == "1,88803.0,0,24"
    assert "np." not in line


def test_write_empty_trace_is_an_error(tmp_path):
    with pytest.raises(ValueError):
        write_iteration_trace([], tmp_path / "trace.csv")
    with pytest.raises(ValueError):
        write_iteration_trace([(1, 6.0, 0)], tmp_path / "trace.csv")
