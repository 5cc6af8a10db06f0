"""Shared fixtures and seeded random-model generators for the test suite.

Set LPDUET_SEED to reseed every randomized path; runs are deterministic for a
given seed.
"""

import os
from pathlib import Path

import numpy as np

from lpduet import LPModel, Relation, Sense, build_model, lana_lp_path, parse_lp_text

SEED = int(os.environ.get("LPDUET_SEED", "20250822"))
ROOT = Path(__file__).resolve().parents[1]


def benchmark_wrapped() -> list:
    """bench/tracing.py's WRAPPED: (module, attribute, metric) per traced function.

    The file's source runs in a fresh namespace, so nothing is imported under
    bench/ and no bytecode is written there.
    """
    tracing = ROOT / "bench" / "tracing.py"
    namespace = {"__name__": "bench_tracing"}
    exec(compile(tracing.read_text(encoding="utf-8"), str(tracing), "exec"), namespace)
    return namespace["WRAPPED"]


def rng_for(tag: int) -> np.random.Generator:
    """Independent deterministic stream per test case."""
    return np.random.default_rng((SEED, tag))


def lana_model() -> LPModel:
    """The bundled LANA production-planning model, parsed from lana.lp."""
    return parse_lp_text(lana_lp_path().read_text(encoding="utf-8"))


def lana_reference() -> LPModel:
    """The LANA model written out by hand, to check the bundled lana.lp against."""
    profit = (8.073, 6.398, 3.9965, 5.943, 5.52175, 7.1955)
    rows = [
        ("total_min", (1, 1, 1, 1, 1, 1), Relation.GE, 74500),
        ("total_max", (1, 1, 1, 1, 1, 1), Relation.LE, 130000),
        ("revenue_min", (29.601, 19.194, 21.5811, 22.923, 21.2375, 19.188),
         Relation.GE, 1823806.45),
        ("profit_min", profit, Relation.GE, 467663.125),
        ("profit_cap", profit, Relation.LE, 765056.25),
        ("line_a_cap", (0.5, 1, 0.5, 0.25, 0, 0), Relation.LE, 50000),
        ("line_b_cap", (0.25, 0, 0.25, 0.25, 0.5, 0), Relation.LE, 40000),
        ("line_c_cap", (0.25, 0, 0.25, 0.5, 0.5, 1), Relation.LE, 40000),
        ("k1_min", (1, 0, 0, 0, 0, 0), Relation.GE, 11000),
        ("k2_min", (0, 1, 0, 0, 0, 0), Relation.GE, 2200),
        ("k3_min", (0, 0, 1, 0, 0, 0), Relation.GE, 8800),
        ("k4_min", (0, 0, 0, 1, 0, 0), Relation.GE, 2200),
        ("k5_min", (0, 0, 0, 0, 1, 0), Relation.GE, 4400),
        ("k6_min", (0, 0, 0, 0, 0, 1), Relation.GE, 2200),
        ("k6_max", (0, 0, 0, 0, 0, 1), Relation.LE, 6500),
    ]
    return build_model(Sense.MAX, ("K1", "K2", "K3", "K4", "K5", "K6"), profit, rows)


def random_bounded_lp(rng: np.random.Generator, max_vars: int = 6, max_rows: int = 6) -> LPModel:
    """A feasible bounded maximization LP.

    Feasibility: rows are anchored at a strictly positive witness point.
    Boundedness: the first row caps the variable sum, and x >= 0 does the rest.
    """
    n = int(rng.integers(1, max_vars + 1))
    witness = rng.uniform(0.5, 3.0, n)
    rows = [(np.ones(n), Relation.LE, float(witness.sum() * rng.uniform(1.5, 3.0)))]
    for _ in range(int(rng.integers(0, max_rows))):
        coeffs = rng.uniform(-2.0, 2.0, n)
        anchored = float(coeffs @ witness)
        margin = float(rng.uniform(0.1, 2.0))
        pick = rng.random()
        if pick < 0.45:
            rows.append((coeffs, Relation.LE, anchored + margin))
        elif pick < 0.9:
            rows.append((coeffs, Relation.GE, anchored - margin))
        else:
            rows.append((coeffs, Relation.EQ, anchored))
    rows = rows[: max_rows]
    c = rng.uniform(-3.0, 3.0, n)
    names = tuple(f"x{j + 1}" for j in range(n))
    return build_model(Sense.MAX, names, c, rows)


def random_infeasible_lp(rng: np.random.Generator) -> LPModel:
    """Two parallel rows with an empty gap between them, plus filler."""
    n = int(rng.integers(1, 5))
    coeffs = rng.uniform(0.5, 2.0, n)
    level = float(rng.uniform(1.0, 10.0))
    gap = float(rng.uniform(0.5, 5.0))
    rows = [
        (coeffs, Relation.LE, level),
        (coeffs.copy(), Relation.GE, level + gap),
    ]
    for _ in range(int(rng.integers(0, 3))):
        rows.append((rng.uniform(-1.0, 1.0, n), Relation.LE, float(rng.uniform(5.0, 20.0))))
    names = tuple(f"x{j + 1}" for j in range(n))
    return build_model(Sense.MAX, names, rng.uniform(-2.0, 2.0, n), rows)


def random_unbounded_lp(rng: np.random.Generator) -> LPModel:
    """Positive objective with only lower bounds: every ray improves."""
    n = int(rng.integers(1, 5))
    rows = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, Relation.GE, float(rng.uniform(0.0, 5.0))))
    names = tuple(f"x{j + 1}" for j in range(n))
    return build_model(Sense.MAX, names, rng.uniform(0.5, 3.0, n), rows)


# Dependent equality rows: both engines solve on one copy of the row.
DUPLICATE_ROWS = (
    "max: 3x + 2y + z;\n"
    "e1: 1000x + 1000y + 1000z = 4000000;\n"
    "e2: 1000x + 1000y + 1000z = 4000000;\n"
    "c: x <= 2000;\n"
)


def near_duplicate_rows_lp(rng: np.random.Generator, eps: float) -> LPModel:
    """A feasible bounded LP of 2-5 variables with a sum cap and two equality
    rows, e2 a copy of e1 with each coefficient perturbed by relative eps.

    Both rows hold at a strictly positive witness point, so e2 stays
    consistent with e1; at eps = 0 the two rows are identical.
    """
    n = int(rng.integers(2, 6))
    witness = rng.uniform(0.5, 3.0, n)
    e1 = rng.uniform(0.5, 2.0, n)
    e2 = e1 * (1.0 + eps * rng.uniform(-1.0, 1.0, n))
    rows = [
        ("cap", np.ones(n), Relation.LE, float(witness.sum() * rng.uniform(1.5, 3.0))),
        ("e1", e1, Relation.EQ, float(e1 @ witness)),
        ("e2", e2, Relation.EQ, float(e2 @ witness)),
    ]
    names = tuple(f"x{j + 1}" for j in range(n))
    return build_model(Sense.MAX, names, rng.uniform(-3.0, 3.0, n), rows)


def scaled_rows_lp(rng: np.random.Generator, scale: float) -> LPModel:
    """A feasible bounded LP of 2-5 variables with a sum cap, one <= row, one
    >= row and two equality rows, e2's coefficients and rhs multiplied by scale.

    Every row holds at a strictly positive witness point. The draws do not
    depend on scale, so one rng seed gives the same LP at every scale, and at
    scale 1 no row is scaled.
    """
    n = int(rng.integers(2, 6))
    witness = rng.uniform(0.5, 3.0, n)
    le, ge, e1, e2 = rng.uniform(-2.0, 2.0, (4, n))
    margins = rng.uniform(0.1, 2.0, 2)
    rows = [
        ("cap", np.ones(n), Relation.LE, float(witness.sum() * rng.uniform(1.5, 3.0))),
        ("le", le, Relation.LE, float(le @ witness + margins[0])),
        ("ge", ge, Relation.GE, float(ge @ witness - margins[1])),
        ("e1", e1, Relation.EQ, float(e1 @ witness)),
        ("e2", e2 * scale, Relation.EQ, float(e2 @ witness) * scale),
    ]
    names = tuple(f"x{j + 1}" for j in range(n))
    return build_model(Sense.MAX, names, rng.uniform(-3.0, 3.0, n), rows)


def scaled_row_lp(rng: np.random.Generator, row: str, scale: float) -> LPModel:
    """scaled_rows_lp(rng, 1.0) with its row ``row`` (``cap``, ``le`` or
    ``ge``), coefficients and rhs, multiplied by scale; the other rows are
    unchanged, so every scale of one rng seed has the same feasible set."""
    model = scaled_rows_lp(rng, 1.0)
    factors = np.where(np.array(model.row_names) == row, scale, 1.0)
    rows = zip(model.row_names, model.a * factors[:, np.newaxis], model.relations, model.b * factors)
    return build_model(model.sense, model.variable_names, model.objective, list(rows))


def beale_lp() -> LPModel:
    """Beale's cycling example (Naval Res. Logist. Q. 2, 1955).

    Under the largest-coefficient rule with ties to the smallest index, the
    degenerate pivots from the slack basis cycle with period 6. The optimum
    is 5/4 at x4 = 1, x6 = 1.
    """
    rows = [
        ((0.25, -8.0, -1.0, 9.0), Relation.LE, 0.0),
        ((0.5, -12.0, -0.5, 3.0), Relation.LE, 0.0),
        ((0.0, 0.0, 1.0, 0.0), Relation.LE, 1.0),
    ]
    return build_model(Sense.MAX, ("x4", "x5", "x6", "x7"), (0.75, -20.0, 0.5, -6.0), rows)


def klee_minty_lp(n: int) -> LPModel:
    """The Klee-Minty cube (1972) in n variables.

    Maximize sum_j 10^(n-1-j) x_j subject to, for each row i,
    2 sum_{j<i} 10^(i-j) x_j + x_i <= 100^i. The largest-coefficient rule
    visits all 2^n vertices; the optimum is 100^(n-1).
    """
    rows = []
    for i in range(n):
        coeffs = [2.0 * 10.0 ** (i - j) for j in range(i)] + [1.0] + [0.0] * (n - 1 - i)
        rows.append((coeffs, Relation.LE, 100.0**i))
    c = [10.0 ** (n - 1 - j) for j in range(n)]
    names = tuple(f"x{j + 1}" for j in range(n))
    return build_model(Sense.MAX, names, c, rows)

