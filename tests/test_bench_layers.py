"""The benchmark's layer tracer names functions that must exist in facegcn.

`perfbench/tracing.py` wraps each function in its LAYERS table by name, so a
rename or deletion here would break `perfbench/run.py --trace 1` only when
the benchmark runs; this test catches it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{name}" for module, names in tracing.LAYERS.items() for name in names
        if not callable(getattr(importlib.import_module(f"facegcn.{module}"), name, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("facegcn.stgcn_net").SGD.step)
    assert {span.split(".")[0] for span in tracing.ATTRIBUTES} <= set(tracing.LAYERS)
