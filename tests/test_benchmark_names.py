"""The benchmark in ``perfbench/`` traces ginar functions by name. A name that
no longer resolves silently reads as 0 there, so every traced name is checked
here, inside the test suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,attr", tracing.FUNCTIONS, ids=[f"{m}.{a}" for m, a in tracing.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"ginar.{module}"), attr, None))


def test_sample_sum_resolves():
    # the tracer counts the method on every subclass that defines it
    module_name, base_name, method = tracing.SAMPLE_SUM
    module = importlib.import_module(f"ginar.{module_name}")
    base = getattr(module, base_name, None)
    assert isinstance(base, type)
    assert any(
        isinstance(cls, type) and issubclass(cls, base) and method in cls.__dict__ for cls in vars(module).values()
    )


def test_pool_resolves():
    module, attr = tracing.POOL
    assert callable(getattr(importlib.import_module(f"ginar.{module}"), attr, None))
