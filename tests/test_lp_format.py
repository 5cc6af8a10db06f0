"""LP text parsing and writing: grammar, errors, round trips."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, lana_model, lana_reference, rng_for, random_bounded_lp
from lpduet import (
    LpError,
    ParseError,
    Relation,
    Sense,
    build_model,
    lana_lp_path,
    parse_lp_text,
    write_lp_text,
)


def test_parse_minimal_model():
    m = parse_lp_text("max: 3x + 2y;\ncap: x + y <= 4;\nwall: x <= 2;")
    assert m.sense is Sense.MAX
    assert m.variable_names == ("x", "y")
    npt.assert_array_equal(m.objective, np.array([3.0, 2.0]))
    assert m.row_names == ("cap", "wall")
    assert m.relations[0] is Relation.LE
    assert m.b[0] == 4.0


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
    assert m.row_names[0] == "low"
    assert m.relations[0] is Relation.LE
    assert m.b[0] == 1.0
    npt.assert_array_equal(m.a[0], np.array([-1.0, 1.0]))
    assert m.relations[1] is Relation.EQ


def test_parse_default_coefficient_and_accumulation():
    m = parse_lp_text("max: x + x + y;\ncap: y + x <= 1;")
    npt.assert_array_equal(m.objective, np.array([2.0, 1.0]))
    # variable order follows first appearance in the text
    assert m.variable_names == ("x", "y")
    npt.assert_array_equal(m.a[0], np.array([1.0, 1.0]))


def test_parse_variable_only_in_constraint():
    m = parse_lp_text("max: x;\ncap: x + z <= 4;")
    assert m.variable_names == ("x", "z")
    npt.assert_array_equal(m.objective, np.array([1.0, 0.0]))


def test_parse_errors_carry_position():
    expected_semi = "expected ';' to end the statement"
    cases = [
        ("x + y <= 4;", 1, 1, "model must start with 'max:' or 'min:'"),
        ("max: x + y", 1, 11, expected_semi),
        ("max: x + y;\nrow: x + 3 <= 4;", 2, 12, "expected a variable name after the coefficient"),
        ("max: x;\nrow: x <= ;", 2, 11, "expected a number"),
        ("max: x;\nrow: x < 4;", 2, 8, "unexpected character '<'"),
        ("max: x;\nrow x <= 4;", 2, 5, "expected ':' after the constraint name"),
        ("max: x;\nrow: x <= 4", 2, 12, expected_semi),
        ("max: x;\nrow: x <= 4;\nrow: x >= 1;", 3, 1, "duplicate constraint name 'row'"),
        (
            "max: x;\nmax: x <= 4;",
            2,
            1,
            "objective is already defined; 'max'/'min' cannot name a constraint",
        ),
        ("max: x;\nrow: x ? 4;", 2, 8, "unexpected character '?'"),
        ("min: 2 3 x;", 1, 8, "expected a variable name after the coefficient"),
        ("max: x;\r\nrow: x <= 4\r\n", 3, 1, expected_semi),
        ("# c\n# d ; e\nmax: x;\nrow: x ? 4;", 4, 8, "unexpected character '?'"),
        ("max: x;\n\trow: x <=\t$;", 2, 12, "unexpected character '$'"),
        # Only space, tab, CR and LF separate tokens.
        ("max: x;\x0crow: x <= 4;", 1, 8, "unexpected character '\\x0c'"),
        ("max: x;\nrow: x\xa0<= 4;", 2, 7, "unexpected character '\\xa0'"),
        ("max: x;\nrow: x <= 4 # no semi", 2, 22, expected_semi),
        ("@max: x;", 1, 1, "unexpected character '@'"),
    ]
    for text, line, col, message in cases:
        with pytest.raises(ParseError) as err:
            parse_lp_text(text)
        assert err.value.line == line, text
        assert err.value.col == col, text
        assert str(err.value) == f"line {line}, column {col}: {message}", text


def test_numbers_are_ascii_decimals():
    # U+0663 ARABIC-INDIC DIGIT THREE is a Unicode digit, but not a number here
    with pytest.raises(ParseError) as err:
        parse_lp_text("max: \u0663x;")
    assert str(err.value) == "line 1, column 6: unexpected character '\u0663'"
    assert (err.value.line, err.value.col) == (1, 6)
    # and a number does not run on into one: not 13 x, but an error at column 7
    with pytest.raises(ParseError, match="column 7: unexpected character '\u0663'"):
        parse_lp_text("max: 1\u0663x;\nc: x <= 1;")


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
        # The rhs -1 flips the second row, which turns b's 0.0 into -0.0.
        [((1.0 / 3.0, 7e300), Relation.GE, 1e-12), ((1.0, 0.0), Relation.GE, -1.0)],
    )
    assert np.signbit(m.a[1, 1])
    again = parse_lp_text(write_lp_text(m))
    assert again == m


def test_shipped_fixture_matches_builtin_instance():
    text = lana_lp_path().read_text(encoding="utf-8")
    assert parse_lp_text(text) == lana_reference()


def test_writer_emits_parseable_header():
    text = write_lp_text(lana_model())
    assert text.splitlines()[0].startswith("max:")
    assert text.endswith(";\n")


_NUMBERS = ["0", "2", "2.5", ".5", "7.", "3e2", "1E-3", "1e308", "1e999"]
_NAMES = ["x", "y", "z2", "max", "row"]
_PIECES = _NUMBERS + _NAMES + ["min", ":", ";", "<=", ">=", "=", "+", "-", "*"]
_BAD = ["@", "?", "<", ".", "\x0c", "\xa0", "\u2212"]
# A plain space is listed three times so that most gaps are one.
_GAPS = ["", " ", " ", " ", "\t", "\r\n", "\n", "# note\n", "# ; <= 1\n"]


@st.composite
def _expr_tokens(draw):
    tokens = []
    for k in range(draw(st.integers(1, 3))):
        if k or draw(st.booleans()):
            tokens.append(draw(st.sampled_from("+-")))
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from(_NUMBERS)))
            if draw(st.booleans()):
                tokens.append("*")
        tokens.append(draw(st.sampled_from(_NAMES)))
    return tokens


@st.composite
def _lp_like_text(draw):
    """A model in the grammar, then a few grammar pieces or bad characters
    spliced in or cut out, with whitespace and comments between tokens."""
    tokens = [draw(st.sampled_from(["max", "min"])), ":", *draw(_expr_tokens()), ";"]
    for k in range(draw(st.integers(1, 3))):
        tokens += [f"r{k}", ":", *draw(_expr_tokens()), draw(st.sampled_from(["<=", ">=", "="]))]
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from("+-")))
        tokens += [draw(st.sampled_from(_NUMBERS)), ";"]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()):
            tokens.insert(at, draw(st.sampled_from(_PIECES + _BAD)))
        elif at < len(tokens):
            del tokens[at]
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(tokens), max_size=len(tokens)))
    text = "".join(token + gap for token, gap in zip(tokens, gaps))
    return text + draw(st.sampled_from(["", "# end"]))


@seed(SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(_lp_like_text())
def test_parser_raises_only_lp_errors_and_round_trips(text):
    try:
        model = parse_lp_text(text)
    except LpError:
        return
    assert parse_lp_text(write_lp_text(model)) == model
