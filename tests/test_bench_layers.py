"""The benchmark's trace harness names program functions by string.

``bench/run.py --trace 1`` wraps every function listed in
``bench/spans.py:LAYERS`` and fails with AttributeError if one is gone, so
each must still resolve to a callable in its ``plumbweave`` module.  The
benchmark's own checks (``bench/tests``) must pass on the program as well.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def test_benchmark_checks_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
