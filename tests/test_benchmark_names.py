"""The names the benchmark wraps in mm1game still exist and are callable.

``perfbench/tracing.py`` replaces module attributes by name when it traces a
run; a renamed or deleted function would only fail there, under ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()
_NAMES = [(module, attr) for module, attr, _, _ in _tracing.LIBRARY_WRAPS] + [
    (module, attr) for _, module, attr, _, _ in _tracing.BENCHMARK_CALLS
]


@pytest.mark.parametrize("module,attr", _NAMES, ids=[f"{m}.{a}" for m, a in _NAMES])
def test_every_wrapped_name_is_a_callable_attribute(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
