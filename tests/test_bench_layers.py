"""The benchmark's trace harness names program functions by string.

``bench/run.py --trace 1`` wraps every function listed in
``bench/spans.py:LAYERS`` and fails with AttributeError if one is gone, so
each must still resolve to a callable in its ``plumbweave`` module.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"plumbweave.{mod}.{name}"
        for mod, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"plumbweave.{mod}"), name, None))
    ]
    assert missing == []
