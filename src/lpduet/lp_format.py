"""Line-oriented LP text format.

Grammar (statements end with ';', '#' comments run to end of line):

    file       := objective constraint*
    objective  := ("max" | "min") ":" expr ";"
    constraint := NAME ":" expr ("<=" | ">=" | "=") ["+"|"-"] NUMBER ";"
    expr       := ["+"|"-"] term (("+"|"-") term)*
    term       := NUMBER ["*"] IDENT | IDENT

Whitespace between tokens is space, tab, CR and LF only, so CRLF files parse.
Identifiers match [A-Za-z_][A-Za-z0-9_]*; numbers are plain decimals with an
optional exponent, no thousands separators. A ParseError starts its message
with the 1-based position "line L, column C"; only LF starts a new line.
A bare identifier means coefficient 1. Variables are collected in
first-appearance order, objective first. The writer emits a canonical dense
form (every variable in every row, coefficients as exact shortest float
representations) so parse(write(m)) reproduces m exactly, except that a
-0.0 coefficient reads back as 0.0.
"""

from __future__ import annotations

import importlib.resources
import math
import re
from pathlib import Path

import numpy as np

from .errors import ParseError
from .model import LPModel, Relation, Sense, build_model

# One match per token: the whitespace (space, tab, CR, LF only) and comments
# in front of it, then the token itself as the named group. "eof" matches at
# the end of the text; "bad" takes any character no other kind accepts.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:
      (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<rel><=|>=|=)
    | (?P<sign>[+-])
    | (?P<star>\*)
    | (?P<colon>:)
    | (?P<semi>;)
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

_SIGN = {"+": 1.0, "-": -1.0}


def _error(text: str, pos: int, message: str) -> ParseError:
    """A ParseError at offset pos, with its 1-based line and column."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """Kind, text and start offset of every token, up to and including "eof"."""
    kinds, texts, starts = [], [], []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        start = match.start(kind)
        if kind == "bad":
            raise _error(text, start, f"unexpected character {text[start]!r}")
        kinds.append(kind)
        texts.append(match[kind])
        starts.append(start)
        if kind == "eof":
            break
    return kinds, texts, starts


def parse_lp_text(text: str) -> LPModel:
    """Parse LP text into a validated model. Raises ParseError with position."""
    kinds, texts, starts = _scan(text)

    def fail(i: int, message: str):
        raise _error(text, starts[i], message)

    def expect(i: int, kind: str, what: str) -> str:
        if kinds[i] != kind:
            fail(i, f"expected {what}")
        return texts[i]

    def expr(i: int) -> tuple[list[tuple[float, str]], int]:
        """The terms of the expression at token i, and the index after it."""
        terms: list[tuple[float, str]] = []
        while True:
            sign = 1.0
            if kinds[i] == "sign":
                sign = _SIGN[texts[i]]
                i += 1
            elif terms:
                return terms, i
            kind = kinds[i]
            if kind == "number":
                coeff = sign * float(texts[i])
                i += 1
                if kinds[i] == "star":
                    i += 1
                terms.append((coeff, expect(i, "ident", "a variable name after the coefficient")))
            elif kind == "ident":
                terms.append((sign, texts[i]))
            else:
                fail(i, "expected a term (coefficient and/or variable)")
            i += 1

    head = expect(0, "ident", "'max' or 'min' at the start of the model")
    if head not in ("max", "min"):
        fail(0, "model must start with 'max:' or 'min:'")
    sense = Sense.MAX if head == "max" else Sense.MIN
    expect(1, "colon", "':' after the objective sense")
    objective_terms, i = expr(2)
    expect(i, "semi", "';' to end the statement")
    i += 1

    var_order: dict[str, int] = {}
    for _, name in objective_terms:
        var_order.setdefault(name, len(var_order))

    rows: list[tuple[str, list[tuple[float, str]], Relation, float]] = []
    seen: set[str] = set()
    while kinds[i] != "eof":
        name = expect(i, "ident", "a constraint name")
        if name in ("max", "min"):
            fail(i, "objective is already defined; 'max'/'min' cannot name a constraint")
        if name in seen:
            fail(i, f"duplicate constraint name {name!r}")
        seen.add(name)
        expect(i + 1, "colon", "':' after the constraint name")
        terms, i = expr(i + 2)
        relation = Relation(expect(i, "rel", "a relation ('<=', '>=' or '=')"))
        i += 1
        sign = 1.0
        if kinds[i] == "sign":
            sign = _SIGN[texts[i]]
            i += 1
        rhs = sign * float(expect(i, "number", "a number"))
        expect(i + 1, "semi", "';' to end the statement")
        i += 2
        for _, var in terms:
            var_order.setdefault(var, len(var_order))
        rows.append((name, terms, relation, rhs))
    if not rows:
        fail(i, "model has no constraints")

    names = tuple(var_order)
    objective = np.zeros(len(names))
    constraints = []
    # A sum that overflows stays infinite, and build_model rejects it.
    with np.errstate(over="ignore"):
        for coeff, var in objective_terms:
            objective[var_order[var]] += coeff
        for name, terms, relation, rhs in rows:
            coeffs = np.zeros(len(names))
            for coeff, var in terms:
                coeffs[var_order[var]] += coeff
            constraints.append((name, coeffs, relation, rhs))
    return build_model(sense, names, objective, constraints)


def _fmt(value: float) -> str:
    # repr of a float is its shortest exact decimal form; float(repr(v)) == v.
    return repr(float(value))


def _expr(coeffs, names) -> str:
    parts = []
    for j, name in enumerate(names):
        coeff = float(coeffs[j])
        # The sign bit, not coeff < 0: a flipped row can hold -0.0, and "+ -0.0" does not parse.
        negative = math.copysign(1.0, coeff) < 0
        if not parts:
            parts.append(f"-{_fmt(-coeff)} {name}" if negative else f"{_fmt(coeff)} {name}")
        elif negative:
            parts.append(f"- {_fmt(-coeff)} {name}")
        else:
            parts.append(f"+ {_fmt(coeff)} {name}")
    return " ".join(parts)


def write_lp_text(model: LPModel) -> str:
    """Serialize a model to canonical LP text; parse_lp_text inverts exactly."""
    names = model.variable_names
    lines = [f"{model.sense.value}: {_expr(model.objective, names)};"]
    for name, coeffs, relation, rhs in zip(model.row_names, model.a, model.relations, model.b):
        lines.append(f"{name}: {_expr(coeffs, names)} {relation.value} {_fmt(rhs)};")
    return "\n".join(lines) + "\n"


def lana_lp_path() -> Path:
    """Filesystem path of the bundled LANA fixture."""
    return Path(str(importlib.resources.files("lpduet").joinpath("data/lana.lp")))


def lana_instance() -> LPModel:
    """The bundled LANA production-planning model (six products, 15 rows)."""
    return parse_lp_text(lana_lp_path().read_text(encoding="utf-8"))
