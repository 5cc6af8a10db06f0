"""Fast tests of the benchmark's own parts: python3 -m pytest bench -q"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
from reference import Bracket  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402
from workloads import Model, make_models  # noqa: E402


def toy() -> Model:
    """max 3x + 2y  s.t.  x + y <= 4,  x <= 2:  optimum 10 at (2, 2)."""
    return Model(
        "toy", "max", ("x", "y"), np.array([3.0, 2.0]),
        np.array([[1.0, 1.0], [1.0, 0.0]]), ("<=", "<="), np.array([4.0, 2.0]), ("r1", "r2"),
    )


def test_generators_are_deterministic_per_seed():
    first = [text for _, text in make_models("dense-mixed", 7, ROOT)]
    again = [text for _, text in make_models("dense-mixed", 7, ROOT)]
    other = [text for _, text in make_models("dense-mixed", 8, ROOT)]
    assert first == again
    assert first != other


def test_generated_models_are_feasible_and_bounded():
    model, _ = make_models("dense-mixed", 3, ROOT)[0]
    assert checks.highs(model).status == "optimal"


def test_lana_reading_pins_the_optimum():
    (model, _), = make_models("lana", 0, ROOT)
    assert model.shape == (15, 6)
    assert checks.lana_problems(model, checks.highs(model)) == []
    assert checks.oracle_candidates(model) == 54_264


def test_checker_accepts_the_optimum():
    model = toy()
    answer = checks.highs(model)
    assert answer == checks.Answer("optimal", 10.0)
    assert checks.engine_problems(
        model, answer, "optimal", 10.0, np.array([2.0, 2.0]), checks.EXACT_RTOL, "t") == []


def test_checker_rejects_a_perturbed_objective():
    model = toy()
    problems = checks.engine_problems(
        model, checks.highs(model), "optimal", 10.0 + 1e-4, np.array([2.0, 2.0]),
        checks.EXACT_RTOL, "t")
    assert any("vs HiGHS" in p for p in problems)


def test_checker_rejects_an_infeasible_point():
    model = toy()
    problems = checks.engine_problems(
        model, checks.highs(model), "optimal", 10.0, np.array([2.5, 1.5]),
        checks.AFFINE_RTOL, "t")
    assert any("row 2" in p for p in problems)


def test_checker_rejects_a_wrong_status():
    model = toy()
    problems = checks.engine_problems(
        model, checks.highs(model), "unbounded", None, None, checks.EXACT_RTOL, "t")
    assert problems == ["t: status unbounded, HiGHS says optimal"]


def test_checker_rejects_an_objective_beating_the_optimum():
    model = toy()
    problems = checks.engine_problems(
        model, checks.highs(model), "optimal", 10.0 + 1e-4, np.array([2.0, 2.0 + 5e-5]),
        checks.AFFINE_RTOL, "t")
    assert any("beats the optimum" in p for p in problems)


def test_checker_rejects_a_refusal_under_budget_and_a_bad_cli_run():
    model = toy()
    answer = checks.highs(model)
    assert checks.oracle_problems(model, answer, 6, True, None, None, None)
    assert checks.cli_problems(model, answer, 1, "")
    assert checks.report_problems("[]", [("simplex", "optimal", 10.0)])


def _originals():
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _ in WRAPPED
    }


def test_traced_check_restores_every_wrapped_attribute():
    before = _originals()
    tracer = Tracer()
    with tracer.installed():
        assert all(
            getattr(importlib.import_module(mod), attr) is not fn
            for (mod, attr), fn in before.items()
        )
        case = harness.Case(toy(), "max: 3 x + 2 y;\nr1: x + y <= 4;\nr2: x <= 2;\n",
                            Path("toy.lp"), checks.highs(toy()), checks.oracle_candidates(toy()))
        out = harness.crosscheck(case.text, lambda name: tracer.span(harness.STAGE_METRIC[name]))
    assert _originals() == before
    assert harness.outcome_problems(case, out) == []
    assert tracer.counts["oracle.candidates"] == case.candidates == 6
    assert tracer.absent == []


def test_wrappers_are_restored_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _originals() == before


def test_a_missing_function_is_reported_absent(monkeypatch):
    import lpduet.oracle

    monkeypatch.delattr(lpduet.oracle, "lu_solve")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["lpduet.oracle.lu_solve"]
    assert not hasattr(lpduet.oracle, "lu_solve")


def test_a_long_stage_is_sampled_and_the_readings_are_not_timed():
    bracket = Bracket()
    with bracket.stage("busy"):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    # One reading before, at least two during the stage, one after.
    assert len(bracket.refs) >= 4
    assert 0.25 < bracket.raw["busy"] < 0.3
