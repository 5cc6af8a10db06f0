"""LP text parsing and writing: grammar, errors, round trips."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import lana_reference, rng_for, random_bounded_lp
from lpduet import (
    ParseError,
    Relation,
    Sense,
    build_model,
    lana_instance,
    lana_lp_path,
    parse_lp_text,
    write_lp_text,
)


def test_parse_minimal_model():
    m = parse_lp_text("max: 3x + 2y;\ncap: x + y <= 4;\nwall: x <= 2;")
    assert m.sense is Sense.MAX
    assert m.variable_names == ("x", "y")
    npt.assert_array_equal(m.objective, np.array([3.0, 2.0]))
    assert m.constraints[0].name == "cap"
    assert m.constraints[0].relation is Relation.LE
    assert m.constraints[0].rhs == 4.0


def test_parse_accepts_comments_stars_and_signs():
    text = """# a comment line
min: -x + 2.5 * y;  # trailing comment
low: x - y >= -1;
pin: 2x + 0.5y = 3;
"""
    m = parse_lp_text(text)
    assert m.sense is Sense.MIN
    npt.assert_array_equal(m.objective, np.array([-1.0, 2.5]))
    # negative rhs rows are flipped at build time
    low = m.constraints[0]
    assert low.relation is Relation.LE
    assert low.rhs == 1.0
    npt.assert_array_equal(low.coeffs, np.array([-1.0, 1.0]))
    assert m.constraints[1].relation is Relation.EQ


def test_parse_default_coefficient_and_accumulation():
    m = parse_lp_text("max: x + x + y;\ncap: y + x <= 1;")
    npt.assert_array_equal(m.objective, np.array([2.0, 1.0]))
    # variable order follows first appearance in the text
    assert m.variable_names == ("x", "y")
    npt.assert_array_equal(m.constraints[0].coeffs, np.array([1.0, 1.0]))


def test_parse_variable_only_in_constraint():
    m = parse_lp_text("max: x;\ncap: x + z <= 4;")
    assert m.variable_names == ("x", "z")
    npt.assert_array_equal(m.objective, np.array([1.0, 0.0]))


def test_parse_errors_carry_position():
    cases = [
        ("x + y <= 4;", 1, 1),
        ("max: x + y", 1, 11),
        ("max: x + y;\nrow: x + 3 <= 4;", 2, 12),
        ("max: x;\nrow: x <= ;", 2, 11),
        ("max: x;\nrow: x < 4;", 2, 8),
        ("max: x;\nrow x <= 4;", 2, 5),
        ("max: x;\nrow: x <= 4", 2, 12),
        ("max: x;\nrow: x <= 4;\nrow: x >= 1;", 3, 1),
        ("max: x;\nmax: x <= 4;", 2, 1),
        ("max: x;\nrow: x ? 4;", 2, 8),
        ("min: 2 3 x;", 1, 8),
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as err:
            parse_lp_text(text)
        assert err.value.line == line, text
        assert err.value.col == col, text
        assert str(err.value).startswith(f"line {line}, column {col}: ")


def test_parse_rejects_empty_text():
    with pytest.raises(ParseError):
        parse_lp_text("")
    with pytest.raises(ParseError):
        parse_lp_text("# only a comment\n")


def test_parse_objective_alone_is_rejected():
    with pytest.raises(ParseError, match="no constraints"):
        parse_lp_text("max: x;")


def test_write_then_parse_is_identity():
    m = build_model(
        Sense.MAX,
        ("x", "y"),
        (3.0, 2.0),
        [((1.0, 1.0), Relation.LE, 4.0), ((1.0, 0.0), Relation.LE, 2.0)],
    )
    assert parse_lp_text(write_lp_text(m)) == m


def test_round_trip_random_models():
    for i in range(25):
        m = random_bounded_lp(rng_for(500 + i))
        assert parse_lp_text(write_lp_text(m)) == m


def test_round_trip_preserves_awkward_floats():
    m = build_model(
        Sense.MIN,
        ("a", "b"),
        (0.1 + 0.2, -1e-17),
        [((1.0 / 3.0, 7e300), Relation.GE, 1e-12)],
    )
    again = parse_lp_text(write_lp_text(m))
    assert again == m


def test_shipped_fixture_matches_builtin_instance():
    text = lana_lp_path().read_text(encoding="utf-8")
    assert parse_lp_text(text) == lana_reference()
    assert lana_instance() == lana_reference()


def test_writer_emits_parseable_header():
    text = write_lp_text(lana_instance())
    assert text.splitlines()[0].startswith("max:")
    assert text.endswith(";\n")
