"""The benchmark's tracer wraps nrtlab functions by name; every name must resolve.

perfbench/tracing.py lists its targets as (layer, function, observer).
A target that no longer exists on nrtlab.<layer> breaks `--trace 1`
runs, so this checks the list against the package as it stands.  The
workloads and the tracer also read attributes of what those functions
return, and those must stay readable too.
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


def test_results_keep_the_attributes_the_benchmark_reads():
    # perfbench/workloads.py pairs fit.g with the gap trace and reads a
    # sweep's values and verdict; tracing.py reads order and n_retained.
    from nrtlab.geometry import DiskRegion
    from nrtlab.harmonic import BoundaryData
    from nrtlab.indicator import Verdict, indicator_sweep, runge_fit

    fit = runge_fit(0.5, DiskRegion((1.3, 0.0), 0.25), 2.0, 8)
    assert isinstance(fit.g, BoundaryData)
    assert isinstance(fit.dx_p0, float)
    assert fit.order == 8
    assert isinstance(fit.n_retained, int)
    curve = indicator_sweep(DiskRegion((0.2, 0.0), 0.5), 2.0, 1e-3, [4, 8])
    assert curve.values.shape == (2,)
    assert curve.verdict is Verdict.BOUNDED
