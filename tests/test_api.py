"""Names that tools outside the package rely on."""

import importlib
from pathlib import Path

import pytest

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
