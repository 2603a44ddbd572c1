"""The traced benchmark reads span names from ``BENCHMARK.json``: each
``module.function`` in a ``*.self_s`` or ``*.calls`` entry of its
``per_layer`` list must stay a function defined in that qcb module, or the
traced run fails on the missing name."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def span_names():
    entries = json.loads(BENCHMARK.read_text())["per_layer"]
    names = [e["name"].rsplit(".", 1) for e in entries]
    # module.function.metric; "ed.self_s" is a module total, not a span
    return sorted({span for span, metric in names
                   if metric in ("self_s", "calls") and span.count(".") == 1})


def test_span_list_is_not_empty():
    assert "ed.full_spectrum" in span_names()


@pytest.mark.parametrize("span", span_names())
def test_named_span_is_a_qcb_function(span):
    module, function = span.split(".")
    mod = importlib.import_module(f"qcb.{module}")
    obj = getattr(mod, function, None)
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, span
