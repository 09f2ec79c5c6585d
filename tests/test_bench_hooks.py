"""The benchmark's hook points: every function that hopbench/spans.py wraps
for a traced run must still exist under the name it wraps."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "hopbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("hopbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, *_ in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert spans.TARGETS and not missing, missing
