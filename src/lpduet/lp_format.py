"""Line-oriented LP text format.

Grammar (statements end with ';', '#' comments run to end of line):

    file       := objective constraint*
    objective  := ("max" | "min") ":" expr ";"
    constraint := NAME ":" expr ("<=" | ">=" | "=") ["+"|"-"] NUMBER ";"
    expr       := ["+"|"-"] term (("+"|"-") term)*
    term       := NUMBER ["*"] IDENT | IDENT

Whitespace between tokens is space, tab, CR and LF only, so CRLF files parse.
Identifiers match [A-Za-z_][A-Za-z0-9_]*; numbers are plain ASCII decimals
with an optional exponent, no thousands separators. A ParseError starts its
message with the 1-based position "line L, column C"; only LF starts a new
line. A bare identifier means coefficient 1. Variables are collected in
first-appearance order, objective first. The tokens come from one findall;
the grammar is checked on the string of their kinds, and the terms are summed
in text order into one matrix by array operations. The writer emits a
canonical dense form (every variable in every row, coefficients as exact
shortest float representations) so parse(write(m)) reproduces m exactly,
except that a -0.0 coefficient reads back as 0.0.
"""

from __future__ import annotations

import itertools
import math
import re
from pathlib import Path

import numpy as np

from .errors import ParseError
from .model import LPModel, Relation, Sense, build_model

# One match per token: the whitespace (space, tab, CR, LF only) and comments
# in front of it, then the token itself as the only group: a number, an
# identifier, a two-character relation, or any one character (punctuation or
# a character no token accepts). The group is empty at the end of the text.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (
      (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?
    | [A-Za-z_][A-Za-z0-9_]*
    | <= | >=
    | \Z
    | .
    )
    """,
    re.VERBOSE | re.ASCII,
)

# A token's kind is one character: "n" number, "i" identifier, "r" relation,
# the punctuation itself, "$" the end of the text and "?" anything else.
_PUNCTUATION = {
    "<=": "r", ">=": "r", "=": "r", "+": "+", "-": "-", "*": "*", ":": ":", ";": ";", "": "$"
}
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("0123456789.")

# expr over the token kinds: a longest run of terms, each but the first signed.
_EXPR_RE = re.compile(r"[+-]?(?:n\*?i|i)(?:[+-](?:n\*?i|i))*")

_SIGN = {"+": 1.0, "-": -1.0}


def _kind(token: str) -> str:
    if token in _PUNCTUATION:
        return _PUNCTUATION[token]
    if token[0] in _IDENT_START:
        return "i"
    if token[0] in _NUMBER_START and token != ".":
        return "n"
    return "?"


def _error(text: str, index: int, message: str) -> ParseError:
    """A ParseError at token number index, with its 1-based line and column."""
    pos = next(itertools.islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def parse_lp_text(text: str) -> LPModel:
    """Parse LP text into a validated model. Raises ParseError with position."""
    tokens = _TOKEN_RE.findall(text)
    kind_of = {token: _kind(token) for token in set(tokens)}
    kinds = "".join(map(kind_of.__getitem__, tokens))

    def fail(i: int, message: str):
        raise _error(text, i, message)

    def expect(i: int, kind: str, what: str) -> None:
        if kinds[i] != kind:
            fail(i, f"expected {what}")

    def expr(i: int) -> int:
        """The index after the expression at token i."""
        match = _EXPR_RE.match(kinds, i)
        end = match.end() if match else i
        if match is None or kinds[end] in "+-":
            term = end + (kinds[end] in "+-")
            if kinds[term] == "n":
                after = term + 1 + (kinds[term + 1] == "*")
                fail(after, "expected a variable name after the coefficient")
            fail(term, "expected a term (coefficient and/or variable)")
        return end

    bad = kinds.find("?")
    if bad >= 0:
        fail(bad, f"unexpected character {tokens[bad]!r}")
    expect(0, "i", "'max' or 'min' at the start of the model")
    if tokens[0] not in ("max", "min"):
        fail(0, "model must start with 'max:' or 'min:'")
    sense = Sense.MAX if tokens[0] == "max" else Sense.MIN
    expect(1, ":", "':' after the objective sense")
    i = expr(2)
    expect(i, ";", "';' to end the statement")
    i += 1

    rows: dict[str, tuple[Relation, float]] = {}
    while kinds[i] != "$":
        expect(i, "i", "a constraint name")
        name = tokens[i]
        if name in ("max", "min"):
            fail(i, "objective is already defined; 'max'/'min' cannot name a constraint")
        if name in rows:
            fail(i, f"duplicate constraint name {name!r}")
        expect(i + 1, ":", "':' after the constraint name")
        i = expr(i + 2)
        expect(i, "r", "a relation ('<=', '>=' or '=')")
        relation = Relation(tokens[i])
        i += 1
        sign = 1.0
        if kinds[i] in "+-":
            sign = _SIGN[tokens[i]]
            i += 1
        expect(i, "n", "a number")
        expect(i + 1, ";", "';' to end the statement")
        rows[name] = (relation, sign * float(tokens[i]))
        i += 2
    if not rows:
        fail(i, "model has no constraints")

    # Every identifier not followed by ':' is the variable of a term. The
    # term's coefficient is the number before it (or before its '*'), else 1,
    # with the sign in front of the term; its row of the matrix is the
    # statement it is in (0 the objective, k the k-th constraint).
    kind_arr = np.frombuffer(kinds.encode(), dtype="S1")
    token_arr = np.array(tokens, dtype=object)
    var = np.flatnonzero((kind_arr[:-1] == b"i") & (kind_arr[1:] != b":"))
    number = var - 1 - (kind_arr[var - 1] == b"*")
    has_number = kind_arr[number] == b"n"
    start = np.where(has_number, number, var)
    coeffs = np.ones(len(var))
    coeffs[has_number] = token_arr[number[has_number]].astype(float)
    coeffs *= np.where(kind_arr[start - 1] == b"-", -1.0, 1.0)
    statement = np.searchsorted(np.flatnonzero(kind_arr == b";"), var)
    var_names = token_arr[var].tolist()
    column = {name: j for j, name in enumerate(dict.fromkeys(var_names))}
    cols = np.fromiter(map(column.__getitem__, var_names), dtype=np.intp, count=len(var))
    matrix = np.zeros((len(rows) + 1, len(column)))
    # Terms are summed in text order; a sum that overflows stays infinite,
    # and build_model rejects it.
    with np.errstate(over="ignore"):
        np.add.at(matrix, (statement, cols), coeffs)
    constraints = [(name, row, *rows[name]) for name, row in zip(rows, matrix[1:])]
    return build_model(sense, tuple(column), matrix[0], constraints)


def float_text(value) -> str:
    """The shortest decimal that reads back as the same float: float(text) == value."""
    return repr(float(value))


def _expr(coeffs, names) -> str:
    parts = []
    for j, name in enumerate(names):
        coeff = float(coeffs[j])
        # The sign bit, not coeff < 0: a flipped row can hold -0.0, and "+ -0.0" does not parse.
        negative = math.copysign(1.0, coeff) < 0
        if not parts:
            parts.append(f"{'-' if negative else ''}{float_text(abs(coeff))} {name}")
        elif negative:
            parts.append(f"- {float_text(-coeff)} {name}")
        else:
            parts.append(f"+ {float_text(coeff)} {name}")
    return " ".join(parts)


def write_lp_text(model: LPModel) -> str:
    """Serialize a model to canonical LP text; parse_lp_text inverts exactly."""
    names = model.variable_names
    lines = [f"{model.sense.value}: {_expr(model.objective, names)};"]
    for name, coeffs, relation, rhs in zip(model.row_names, model.a, model.relations, model.b):
        lines.append(f"{name}: {_expr(coeffs, names)} {relation.value} {float_text(rhs)};")
    return "\n".join(lines) + "\n"


def lana_lp_path() -> Path:
    """Filesystem path of the bundled LANA fixture."""
    return Path(__file__).with_name("data") / "lana.lp"
