"""Names that tools outside the package rely on."""

import importlib
import json

import pytest

from conftest import benchmark_wrapped, rng_for, random_infeasible_lp
from lpduet import (
    Status,
    brute_force_optimum,
    build_report,
    parse_lp_text,
    solve_affine,
    solve_simplex,
    to_equality_form,
    write_lp_text,
    write_report_pair,
)

@pytest.mark.parametrize(
    "module_name, attribute", [(m, a) for m, a, _ in benchmark_wrapped()], ids=lambda v: v
)
def test_benchmark_wrapped_attributes_exist(module_name, attribute):
    # The benchmark's per-layer metrics read 0 for an attribute it cannot find.
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None))


def test_benchmark_wrapped_attributes_are_called(monkeypatch):
    # A wrapped attribute the engines no longer call would read 0 just the same.
    calls = {}
    for module_name, attribute, _ in benchmark_wrapped():
        module = importlib.import_module(module_name)
        name = f"{module_name}.{attribute}"
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(module, attribute), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attribute, counted)
    model = parse_lp_text("max: 3x + 2y;\ncap: x + y <= 4;\nwall: x <= 2;\nfloor: y >= 1;\n")
    solve_simplex(model)
    solve_affine(to_equality_form(model))
    brute_force_optimum(to_equality_form(model))
    assert [name for name, count in calls.items() if count == 0] == []


def test_benchmark_call_sequence_reports_infeasible_models():
    # bench/crosscheck.py's public calls, in its order: every engine answers
    # an infeasible model with a status, and neither report stops on it.
    for k in range(100):
        lp = parse_lp_text(write_lp_text(random_infeasible_lp(rng_for(3000 + k))))
        simplex = solve_simplex(lp)
        form = to_equality_form(lp)
        affine, rows = solve_affine(form)
        oracle = brute_force_optimum(form)
        assert (simplex.status, affine.status, oracle.status) == (Status.INFEASIBLE,) * 3, k
        assert rows == [] and rows is affine.trace, k
        assert oracle.trace == [], k
        reports = json.loads(
            write_report_pair(
                build_report("simplex", lp, simplex, 1.0), build_report("affine", lp, affine, 1.0), "json"
            )
        )
        assert [r["status"] for r in reports] == ["infeasible", "infeasible"], k
