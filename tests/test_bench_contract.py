"""The benchmark traces package functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("module, func", _targets())
def test_traced_function_exists(module, func):
    assert callable(getattr(importlib.import_module(f"relistab.{module}"), func, None))
