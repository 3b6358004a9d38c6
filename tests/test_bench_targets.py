"""The benchmark's tracer patches package functions by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr in spans.TARGETS.values()
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert spans.TARGETS and missing == []
