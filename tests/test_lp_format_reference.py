"""parse_lp_text against a reference copy of the per-token parser it replaced.

The reference scans with one re.Match per token (kind, text and offset lists)
and adds each term into its row with a scalar +=. On every text both parsers
must build byte-identical models, or raise the same error with the same
message, line and column. Only texts with a non-ASCII digit may differ: the
reference read one as a number, and parse_lp_text rejects it.
"""

import re

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, random_bounded_lp, rng_for
from lpduet import LpError, ParseError, lana_lp_path, parse_lp_text, write_lp_text
from lpduet.model import LPModel, Relation, Sense, build_model

# --- reference: the per-token scanner and parser, copied verbatim ---

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


def reference_parse_lp_text(text: str) -> LPModel:
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


# --- comparison ---


def outcome(parse, text):
    """The model's bytes, or the error's type, message and position."""
    try:
        m = parse(text)
    except LpError as err:
        return type(err).__name__, str(err), getattr(err, "line", None), getattr(err, "col", None)
    return (
        m.sense,
        m.variable_names,
        m.objective.tobytes(),
        m.row_names,
        m.a.tobytes(),
        m.relations,
        m.b.tobytes(),
    )


def check_same(text):
    with np.errstate(invalid="ignore"):  # inf - inf in a row: both parsers give NaN
        got = outcome(parse_lp_text, text)
        want = outcome(reference_parse_lp_text, text)
    if got != want:
        # allowed only where parse_lp_text stops at a non-ASCII digit
        bad = re.search(r"unexpected character '(.)'$", got[1]) if got[0] == "ParseError" else None
        assert bad and bad[1].isdigit() and not bad[1].isascii(), text


def dense_text(rng, m, n):
    """A dense m x n model in the shape of the benchmark's generated files:
    three-decimal coefficients, "+ c x" / "- c x" terms, mixed relations."""
    names = [f"x{j + 1}" for j in range(n)]

    def expr(coeffs):
        parts = []
        for k, (c, name) in enumerate(zip(coeffs, names)):
            sign = "-" if c < 0 else "+"
            if k == 0:
                parts.append(f"{'-' if c < 0 else ''}{abs(c)} {name}")
            else:
                parts.append(f"{sign} {abs(c)} {name}")
        return " ".join(parts)

    coeffs = np.round(rng.uniform(-1.0, 1.0, (m + 1, n)), 3)
    lines = [f"max: {expr(coeffs[0])};"]
    for i in range(m):
        relation = ("<=", ">=", "=")[i % 3]
        lines.append(f"r{i + 1}: {expr(coeffs[i + 1])} {relation} {round(rng.uniform(1, 50), 3)};")
    return "\n".join(lines) + "\n"


def test_same_models_on_the_bundled_and_written_files():
    check_same(lana_lp_path().read_text(encoding="utf-8"))
    check_same(dense_text(rng_for(8000), 60, 120))
    for i in range(25):
        check_same(write_lp_text(random_bounded_lp(rng_for(8100 + i))))


_NUMBERS = ["0", "2", "2.5", ".5", "7.", "3e2", "1E-3", "1e308", "1e999", "0.1", "1e-320"]
_NAMES = ["x", "y", "z2", "_w", "max", "min", "e"]
_GAPS = ["", " ", " ", " ", "\t", "\r\n", "\n", "# note\n", "# ; <= 1\n", " # x\r\n"]
# Replacement characters: grammar pieces, whitespace, and characters no
# token accepts, among them a non-ASCII digit.
_REPLACEMENTS = list("x1.e+-*:;<=>_ \t\r\n#") + ["@", "\x0c", "\xa0", "\u2212", "\u0663"]


@st.composite
def _expr_tokens(draw):
    tokens = []
    for k in range(draw(st.integers(1, 4))):
        if k or draw(st.booleans()):
            tokens.append(draw(st.sampled_from("+-")))
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from(_NUMBERS)))
            if draw(st.booleans()):
                tokens.append("*")
        tokens.append(draw(st.sampled_from(_NAMES)))
    return tokens


@st.composite
def _lp_text(draw):
    """A model in the grammar, with comments, '*', bare and repeated
    variables, leading signs, CRLF and overflowing numbers; then, in most
    draws, with one token dropped, truncated or with one character replaced."""
    tokens = [draw(st.sampled_from(["max", "min"])), ":", *draw(_expr_tokens()), ";"]
    for k in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3]))):
        name = draw(st.sampled_from([f"r{k}"] * 8 + ["r0", "max"]))
        tokens += [name, ":", *draw(_expr_tokens()), draw(st.sampled_from(["<=", ">=", "="]))]
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from("+-")))
        tokens += [draw(st.sampled_from(_NUMBERS)), ";"]
    edit = draw(st.sampled_from(["none", "none", "drop", "truncate", "replace", "replace"]))
    if edit == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(tokens), max_size=len(tokens)))
    text = "".join(token + gap for token, gap in zip(tokens, gaps))
    if edit == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif edit == "replace" and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.sampled_from(_REPLACEMENTS)) + text[at + 1 :]
    return text


@seed(SEED)
@settings(max_examples=400, deadline=None, database=None)
@given(_lp_text())
def test_same_model_or_same_error_as_the_reference(text):
    check_same(text)


def test_same_errors_at_hand_picked_texts():
    for text in (
        "max: x @ y ? z;",
        "max: x + ;\nc: x ? 1;",
        "max: 2 * ;",
        "max: 2 * * x;",
        "max: x + 2 * 3 y;",
        "max: - 2 *",
        "max: x;\nc: x + 3 * <= 1;",
        "max: x;\nc: 3 * - x <= 1;",
        "max: x;\nc: + <= 1;",
    ):
        check_same(text)


def test_repeated_terms_sum_in_text_order():
    # 1e308 + 1e308 overflows before - 1e308 can pull it back, and
    # 1e16 + 1 - 1e16 loses the 1: only text order gives these bits
    for text in (
        "max: 1e308 x + 1e308 x - 1e308 x;\nc: x <= 1;",
        "max: 1e16 x + x - 1e16 x + y;\nc: 1e16 y + y - 1e16 y + x <= 1;",
        "max: 0.1 x + 0.2 x + 0.3 x - 0.6 x + y;\nc: -0 x + y <= 1;",
    ):
        check_same(text)


def test_only_a_non_ascii_digit_may_differ():
    text = "max: \u0663x;\nc: x <= 1;"
    assert outcome(reference_parse_lp_text, text)[0] is Sense.MAX  # read as 3 x
    check_same(text)
