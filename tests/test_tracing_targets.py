"""The benchmark's span tracer (bench/spans.py) rebinds program functions by
name; every name it lists must still exist, or `bench/run.py --trace 1`
breaks. Its cap-abort counter also imports the cap exception by name. This
is the fast check of that contract: it loads the tracer by path and resolves
each name, without running the benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr,span", _spans().TARGETS)
def test_tracing_target_resolves(module_name, attr, span):
    module = importlib.import_module(f"xorgames.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # The tracer patches the class attribute itself, not an inherited one.
        target = vars(getattr(module, cls_name)).get(meth)
    else:
        target = getattr(module, attr, None)
    assert inspect.isfunction(target), f"{span}: xorgames.{module_name}.{attr} is gone"


def test_cap_abort_exception_resolves():
    # `_on_refute_error` counts a refutation as a cap abort by this class; a
    # failed self-check (AssertionError) must not count as one.
    assert "WordLengthCapExceeded" in inspect.getsource(_spans()._on_refute_error)
    cls = getattr(importlib.import_module("xorgames.refutation"), "WordLengthCapExceeded", None)
    assert inspect.isclass(cls) and issubclass(cls, Exception), (
        "xorgames.refutation.WordLengthCapExceeded is gone"
    )
    assert not issubclass(cls, AssertionError)
