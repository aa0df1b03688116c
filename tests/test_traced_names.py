"""The benchmark times the functions named in perfbench/spans.py TRACED.

A traced function that is renamed or deleted stops a traced benchmark run;
this check finds it without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_layer(monkeypatch):
    traced = load_spans(monkeypatch).TRACED
    assert traced
    missing = [
        f"pulsestab.{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"pulsestab.{layer}"), name, None))
    ]
    assert missing == []
