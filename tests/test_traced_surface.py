"""The names the benchmark's tracer wraps exist in the library.

`perfbench/tracing.py` replaces gvcalc functions and arithmetic methods by
name.  A name that is renamed, inlined or turned into a method would drop
out of every traced run without an error, so its per-layer counts would
silently read 0.  This test reads the tracer's name tables (the file is not
changed) and checks each name against the package.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from gvcalc.field import MultiPoly, RatFn  # noqa: E402

SPANS = [(module, name) for module, names in tracing.SPAN_FUNCTIONS.items() for name in names]
METHODS = [(cls, name) for cls, names in tracing.ARITHMETIC.items() for name in names]


def test_every_traced_module_is_a_gvcalc_module():
    assert set(tracing.SPAN_FUNCTIONS) <= set(tracing.MODULES)
    for module in tracing.MODULES:
        importlib.import_module(f"gvcalc.{module}")


@pytest.mark.parametrize("module, name", SPANS, ids=[f"{m}.{n}" for m, n in SPANS])
def test_span_function_is_a_module_level_function(module, name):
    fn = getattr(importlib.import_module(f"gvcalc.{module}"), name, None)
    assert inspect.isfunction(fn), f"gvcalc.{module}.{name} is not a function"
    assert fn.__module__ == f"gvcalc.{module}"
    assert fn.__qualname__ == name


@pytest.mark.parametrize("cls, name", METHODS, ids=[f"{c}.{n}" for c, n in METHODS])
def test_arithmetic_method_is_defined_on_its_class(cls, name):
    assert name in {"MultiPoly": MultiPoly, "RatFn": RatFn}[cls].__dict__
