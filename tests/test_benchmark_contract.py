"""The benchmark's tracer wraps nrtlab functions by name; every name must resolve.

perfbench/tracing.py lists its targets as (layer, function, observer).
A target that no longer exists on nrtlab.<layer> breaks `--trace 1`
runs, so this checks the list against the package as it stands.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_nrtlab_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = [f"{layer}.{name}" for layer, name, _ in targets if not callable(getattr(importlib.import_module(f"nrtlab.{layer}"), name, None))]
    assert missing == []
