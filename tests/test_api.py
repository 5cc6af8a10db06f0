"""Names that tools outside the package rely on."""

import importlib
from pathlib import Path

import pytest

from lpduet import (
    brute_force_optimum,
    parse_lp_text,
    solve_affine,
    solve_simplex,
    to_equality_form,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped():
    # Run the file's source in a fresh namespace: nothing is imported under
    # bench/ and no bytecode is written there.
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["WRAPPED"]


@pytest.mark.parametrize(
    "module_name, attribute", [(m, a) for m, a, _ in _wrapped()], ids=lambda v: v
)
def test_benchmark_wrapped_attributes_exist(module_name, attribute):
    # The benchmark's per-layer metrics read 0 for an attribute it cannot find.
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None))


def test_benchmark_wrapped_attributes_are_called(monkeypatch):
    # A wrapped attribute the engines no longer call would read 0 just the same.
    calls = {}
    for module_name, attribute, _ in _wrapped():
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
