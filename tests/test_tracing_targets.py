"""The benchmark's span tracer (bench/spans.py) rebinds program functions by
name; every name it lists must still exist, or `bench/run.py --trace 1`
breaks. This is the fast check of that contract: it loads the target list
by path and resolves each entry, without running the benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,attr,span", _targets())
def test_tracing_target_resolves(module_name, attr, span):
    module = importlib.import_module(f"xorgames.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # The tracer patches the class attribute itself, not an inherited one.
        target = vars(getattr(module, cls_name)).get(meth)
    else:
        target = getattr(module, attr, None)
    assert inspect.isfunction(target), f"{span}: xorgames.{module_name}.{attr} is gone"
