"""The benchmark traces the functions that benchmark/spans.py lists in
PUBLIC and looks each one up by name, so deleting or renaming one breaks
every traced run. This reads that list (without changing it) and checks
that each name still resolves."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"cstarreg.{mod}.{name}" for mod, names in spans.PUBLIC.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cstarreg.{mod}"), name, None))]
    assert missing == []
