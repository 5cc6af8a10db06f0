"""The benchmark's tracing wrappers name functions that exist in lpduet.

bench/tracing.py records a wrapped attribute that lpduet no longer has as
absent and reads its metrics as 0, so a rename here would silently blank a
per-layer metric. This test only reads bench/tracing.py.
"""

import importlib
from pathlib import Path

import pytest

from conftest import ROOT, benchmark_wrapped


@pytest.mark.parametrize("module_name, attribute, metric", benchmark_wrapped())
def test_traced_attribute_resolves_to_a_callable_in_src(module_name, attribute, metric):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute} ({metric})"
