"""The benchmark's tracing wrappers name functions that exist in lpduet.

bench/tracing.py records a wrapped attribute that lpduet no longer has as
absent and reads its metrics as 0, so a rename here would silently blank a
per-layer metric. This test only reads bench/tracing.py.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _wrapped():
    spec = importlib.util.spec_from_file_location("_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize("module_name, attribute, metric", _wrapped())
def test_traced_attribute_resolves_to_a_callable_in_src(module_name, attribute, metric):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute} ({metric})"
