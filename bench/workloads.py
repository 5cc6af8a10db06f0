"""Seeded model generators for the benchmark workloads.

Every model is held as plain arrays (sense, c, A, relations, rhs) that the
benchmark owns, and is handed to lpduet only as LP text written here. The
same arrays feed the independent reference solve, so no answer the checks
rely on passes through lpduet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("lana", "dense-mixed")

# The random stream of a workload: numpy.random.default_rng((seed, stream)).
_STREAM = {"dense-mixed": 1}

# Model counts and shapes. A run cycles through its models for as long as it
# measures; more models per seed make the per-seed median steadier.
DENSE_MODELS, DENSE_ROWS, DENSE_VARS, DENSE_EQ_ROWS = 24, 60, 120, 8

LANA_LP = Path("src/lpduet/data/lana.lp")


@dataclass(frozen=True, eq=False)
class Model:
    """max/min c.x subject to a_i.x (rel_i) rhs_i, x >= 0."""

    name: str
    sense: str
    names: tuple[str, ...]
    c: np.ndarray
    a: np.ndarray
    rel: tuple[str, ...]
    rhs: np.ndarray
    rows: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape


def _names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{j + 1}" for j in range(n))


def _num(value: float) -> str:
    # repr is the shortest decimal that reads back to the same float.
    return repr(float(value))


def _expr(coeffs: np.ndarray) -> str:
    parts = [f"{'-' if v < 0 else '+'} {_num(abs(v))} x{j + 1}" for j, v in enumerate(coeffs)]
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def lp_text(model: Model) -> str:
    """Dense LP text in lpduet's format: every variable appears in every row."""
    lines = [f"{model.sense}: {_expr(model.c)};"]
    for i, row in enumerate(model.a):
        lines.append(f"{model.rows[i]}: {_expr(row)} {model.rel[i]} {_num(model.rhs[i])};")
    return "\n".join(lines) + "\n"


def dense_mixed(seed: int) -> list[Model]:
    """Dense feasible, bounded LPs mixing <=, >= and = rows.

    Rows are anchored at a strictly positive witness point, so the model is
    feasible; the first row caps the sum of the variables, so x >= 0 and that
    row bound every objective. Max and min sense alternate.
    """
    rng = np.random.default_rng((seed, _STREAM["dense-mixed"]))
    m, n = DENSE_ROWS, DENSE_VARS
    models = []
    for k in range(DENSE_MODELS):
        w = rng.uniform(0.5, 2.0, n)
        a = np.round(rng.uniform(-1.0, 1.0, (m, n)), 3)
        a[0] = 1.0
        lhs = a @ w
        margin = np.round(rng.uniform(0.5, 5.0, m), 2)
        kinds = np.array(["<="] * m, dtype=object)
        kinds[1 + rng.permutation(m - 1)[: DENSE_EQ_ROWS]] = "="
        rest = [i for i in range(1, m) if kinds[i] != "="]
        for i in rest:
            kinds[i] = "<=" if rng.random() < 0.5 else ">="
        rhs = np.empty(m)
        for i in range(m):
            if kinds[i] == "<=":
                rhs[i] = np.ceil(lhs[i] * 100) / 100 + margin[i]
            elif kinds[i] == ">=":
                rhs[i] = np.floor(lhs[i] * 100) / 100 - margin[i]
            else:
                rhs[i] = np.round(lhs[i], 2)
        rhs[0] = np.round(w.sum() * 1.5, 2)
        c = np.round(rng.uniform(-1.0, 1.0, n), 3)
        sense = "max" if k % 2 == 0 else "min"
        models.append(
            Model(f"dense{k + 1:02d}", sense, _names("x", n), c, a, tuple(kinds), rhs, _names("r", m))
        )
    return models


_TERM_RE = re.compile(r"([+-]?)\s*(\d+\.?\d*(?:[eE][+-]?\d+)?)?\s*\*?\s*([A-Za-z_]\w*)")


def read_lana(text: str) -> Model:
    """The benchmark's own reading of lana.lp: terms are [sign] [number] name."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    statements = [s.strip() for s in body.split(";") if s.strip()]
    head, objective = statements[0].split(":", 1)
    names: list[str] = []
    parsed = []
    for stmt in statements[1:]:
        row_name, rest = stmt.split(":", 1)
        lhs, rel, rhs = re.split(r"(<=|>=|=)", rest)
        parsed.append((row_name.strip(), lhs, rel, float(rhs)))

    def terms(expr: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for sign, num, var in _TERM_RE.findall(expr):
            if var not in names:
                names.append(var)
            out[var] = out.get(var, 0.0) + (-1.0 if sign == "-" else 1.0) * float(num or 1.0)
        return out

    c_terms = terms(objective)
    row_terms = [terms(lhs) for _, lhs, _, _ in parsed]
    c = np.array([c_terms.get(v, 0.0) for v in names])
    a = np.array([[t.get(v, 0.0) for v in names] for t in row_terms])
    return Model(
        "lana",
        head.strip(),
        tuple(names),
        c,
        a,
        tuple(rel for _, _, rel, _ in parsed),
        np.array([rhs for _, _, _, rhs in parsed]),
        tuple(row_name for row_name, _, _, _ in parsed),
    )


def make_models(workload: str, seed: int, root: Path = Path(".")) -> list[tuple[Model, str]]:
    """(model, LP text) pairs for one workload and seed."""
    if workload == "lana":
        text = (root / LANA_LP).read_text(encoding="utf-8")
        return [(read_lana(text), text)]
    if workload != "dense-mixed":
        raise ValueError(f"unknown workload {workload!r}")
    return [(mdl, lp_text(mdl)) for mdl in dense_mixed(seed)]
