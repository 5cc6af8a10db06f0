"""Line-oriented LP text format.

Grammar (statements end with ';', '#' comments run to end of line):

    file       := objective constraint*
    objective  := ("max" | "min") ":" expr ";"
    constraint := NAME ":" expr ("<=" | ">=" | "=") NUMBER ";"
    expr       := ["+"|"-"] term (("+"|"-") term)*
    term       := NUMBER ["*"] IDENT | IDENT

Identifiers match [A-Za-z_][A-Za-z0-9_]*; numbers are plain decimals with an
optional exponent, no thousands separators. A bare identifier means
coefficient 1. Variables are collected in first-appearance order, objective
first. The writer emits a canonical dense form (every variable in every row,
coefficients as exact shortest float representations) so parse(write(m))
reproduces m exactly.
"""

from __future__ import annotations

import importlib.resources
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError
from .model import LPModel, Relation, Sense, build_model

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r]+|\#[^\n]*)
    | (?P<nl>\n)
    | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<rel><=|>=|=)
    | (?P<sign>[+-])
    | (?P<star>\*)
    | (?P<colon>:)
    | (?P<semi>;)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        if kind == "nl":
            line += 1
            line_start = match.end()
        elif kind != "skip":
            tokens.append(_Token(kind, match.group(), line, pos - line_start + 1))
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_expr(self) -> list[tuple[float, str]]:
        terms: list[tuple[float, str]] = []
        first = True
        while True:
            sign = 1.0
            tok = self.peek()
            if tok.kind == "sign":
                sign = -1.0 if tok.text == "-" else 1.0
                self.advance()
            elif not first:
                break
            tok = self.peek()
            if tok.kind == "number":
                coeff = float(self.advance().text)
                if self.peek().kind == "star":
                    self.advance()
                name_tok = self.expect("ident", "a variable name after the coefficient")
                terms.append((sign * coeff, name_tok.text))
            elif tok.kind == "ident":
                terms.append((sign, self.advance().text))
            else:
                self.fail("expected a term (coefficient and/or variable)")
            first = False
            if self.peek().kind != "sign":
                break
        if not terms:
            self.fail("empty expression")
        return terms

    def parse_signed_number(self) -> float:
        sign = 1.0
        if self.peek().kind == "sign":
            sign = -1.0 if self.advance().text == "-" else 1.0
        tok = self.expect("number", "a number")
        return sign * float(tok.text)


def parse_lp_text(text: str) -> LPModel:
    """Parse LP text into a validated model. Raises ParseError with position."""
    parser = _Parser(_tokenize(text))

    head = parser.expect("ident", "'max' or 'min' at the start of the model")
    if head.text not in ("max", "min"):
        raise ParseError("model must start with 'max:' or 'min:'", head.line, head.col)
    sense = Sense.MAX if head.text == "max" else Sense.MIN
    parser.expect("colon", "':' after the objective sense")
    objective_terms = parser.parse_expr()
    parser.expect("semi", "';' to end the statement")

    var_order: dict[str, int] = {}
    for _, name in objective_terms:
        var_order.setdefault(name, len(var_order))

    rows: list[tuple[str, list[tuple[float, str]], Relation, float]] = []
    seen: set[str] = set()
    while parser.peek().kind != "eof":
        name_tok = parser.expect("ident", "a constraint name")
        if name_tok.text in ("max", "min"):
            raise ParseError(
                "objective is already defined; 'max'/'min' cannot name a constraint",
                name_tok.line,
                name_tok.col,
            )
        if name_tok.text in seen:
            raise ParseError(
                f"duplicate constraint name {name_tok.text!r}", name_tok.line, name_tok.col
            )
        seen.add(name_tok.text)
        parser.expect("colon", "':' after the constraint name")
        terms = parser.parse_expr()
        rel_tok = parser.expect("rel", "a relation ('<=', '>=' or '=')")
        rhs = parser.parse_signed_number()
        parser.expect("semi", "';' to end the statement")
        for _, var in terms:
            var_order.setdefault(var, len(var_order))
        rows.append((name_tok.text, terms, Relation(rel_tok.text), rhs))
    if not rows:
        tok = parser.peek()
        raise ParseError("model has no constraints", tok.line, tok.col)

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
        if not parts:
            parts.append(f"-{_fmt(-coeff)} {name}" if coeff < 0 else f"{_fmt(coeff)} {name}")
        elif coeff < 0:
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
