"""The benchmark's tracer wraps package bindings by name; a binding that is
renamed or deleted would only show up as an AttributeError in every traced
benchmark run."""
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_entry_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.ENTRY_POINTS
               if not callable(getattr(module, attr, None))]
    assert missing == []
