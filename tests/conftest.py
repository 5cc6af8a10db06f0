"""Shared fixtures and seeded random-model generators for the test suite.

Set LPDUET_SEED to reseed every randomized path; runs are deterministic for a
given seed.
"""

import os

import numpy as np
import pytest

from lpduet import LPModel, Relation, Sense, build_model, lana_instance

SEED = int(os.environ.get("LPDUET_SEED", "20250822"))


def rng_for(tag: int) -> np.random.Generator:
    """Independent deterministic stream per test case."""
    return np.random.default_rng((SEED, tag))


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


@pytest.fixture(scope="session")
def lana():
    return lana_instance()
