"""Self-tests of the benchmark's own arithmetic, oracles and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import cmath
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import nrtlab  # noqa: E402
import nrtlab.cli  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(1, 51)]
    value, pct = workloads.tail(samples[::-1])
    assert value == 40.0 and pct == 80.0
    assert sum(s > value for s in samples) == workloads.TAIL_BEYOND
    assert workloads.tail(samples[:11]) == (1.0, 100.0 / 11)
    with pytest.raises(ValueError):
        workloads.tail(samples[:10])


def test_block_tail_is_the_median_of_per_block_tails():
    # Passes of 60 ops make blocks of two passes; the fifth pass joins the last block.
    passes = [[float(p * 1000 + i) for i in range(60)] for p in range(5)]
    value, pct, size, count = workloads.block_tail([v for p in passes for v in p], 60)
    assert (size, count) == (120, 2) and pct == 100.0 * 110 / 120
    assert value == statistics.median([workloads.tail(passes[0] + passes[1])[0], workloads.tail(sum(passes[2:], []))[0]])
    # A run shorter than one block is one block.
    assert workloads.block_tail(passes[0], 60)[:4] == (*workloads.tail(passes[0]), 60, 1)


def test_self_time_subtracts_covered_child_intervals():
    # Overlapping children count once; a child running past the end is clipped.
    assert tracing.self_time(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0), (9.0, 12.0)]) == 5.0
    assert tracing.self_time(0.0, 10.0, []) == 10.0
    assert tracing.self_time(0.0, 10.0, [(0.0, 10.0), (4.0, 6.0)]) == 0.0


def test_recorder_links_parents_and_self_time():
    rec = tracing.Recorder()
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            sum(range(10000))
    assert inner.parent == outer.id and outer.children == [inner]
    assert outer.self_time == pytest.approx(outer.duration - inner.duration, abs=1e-12)


def _bound_to(original):
    return [space[key] for space, key in tracing._bindings(original)]


def test_patched_wraps_every_binding_and_restores_it():
    targets = [(layer, func, getattr(getattr(nrtlab, layer), func)) for layer, func, _ in tracing.TARGETS]
    quad = nrtlab.geometry.build_disk_quadrature
    before = {func: len(_bound_to(orig)) for _, func, orig in targets}
    rec = tracing.Recorder()
    with tracing.patched(rec):
        wrapped = nrtlab.geometry.build_disk_quadrature
        assert wrapped is not quad
        assert nrtlab.build_disk_quadrature is wrapped and nrtlab.indicator.build_disk_quadrature is wrapped
        assert nrtlab.cli.RUNNERS["indicator"] is nrtlab.cli.run_indicator
        for _, func, orig in targets:
            assert _bound_to(orig) == [], f"{func} still bound unwrapped"
        nrtlab.indicator.indicator_sweep(nrtlab.DiskRegion((0.0, 0.0), 0.5), 2.0, 1e-3, [4, 8])
    for _, func, orig in targets:
        assert len(_bound_to(orig)) == before[func], f"{func} not restored everywhere"
    names = [s.name for s in rec.spans]
    assert names.count("indicator.assemble_gram") == 2 and names.count("geometry.build_disk_quadrature") == 2
    by_id = {s.id: s for s in rec.spans}
    for s in rec.spans:
        if s.name == "geometry.build_disk_quadrature":
            assert by_id[s.parent].name == "indicator.assemble_gram"
            assert s.counts["nodes"] > 0
        if s.name == "indicator.assemble_gram":
            assert s.counts["flops"] > 0


def test_oracles_match_shipped_path_where_it_is_accurate():
    assert workloads.oracle_selfcheck() == []


def test_disk_series_closed_forms():
    # Centred disk: only k = 1 contributes, I = eps 2 pi / sqrt(D_1).
    d1 = math.pi * 0.5**2 * (1 + 0.25 / 4)
    for n in (1, 8, 32):
        assert oracles.disk_series(0.0, 0.5, n) == pytest.approx(1e-3 * 2 * math.pi / math.sqrt(d1), rel=1e-14)
    # Off the origin the terms grow like (|c| / rho)^(2k): the rate per order tends to log(|c| / rho).
    rate = math.log(oracles.disk_series(1.3, 0.25, 64) / oracles.disk_series(1.3, 0.25, 63))
    assert rate == pytest.approx(math.log(1.3 / 0.25), rel=0.01)


def test_enclosure_and_runge_targets():
    for tau, phi in ((1.0, 0.0), (50.0, 0.7)):
        assert oracles.enclosure_target(tau, phi) == pytest.approx(nrtlab.enclosure_closed_form(tau, phi), rel=1e-15)
        assert cmath.phase(-oracles.enclosure_target(tau, phi)) == pytest.approx(-phi)
    assert oracles.runge_target(0.25) == pytest.approx(8 * math.pi)


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        130 |     nrtlab.geometry\n"
        "import time:        40 |        900 | nrtlab\n"
    )
    assert tracing.parse_importtime(text) == {"nrtlab.geometry": 130e-6, "nrtlab": 900e-6}


def test_run_passes_counts_raised_nonfinite_and_changed_outputs():
    calls = {"n": 0}

    def do(op):
        calls["n"] += 1
        if op == "raise":
            raise RuntimeError("boom")
        if op == "nan":
            return (float("nan"),)
        if op == "drift":
            return (float(calls["n"]),)
        return (1.0,)

    pool = ["ok", "raise", "nan", "drift"] * 2
    out = workloads.run_passes(pool, do, seconds=0.0)
    # A run takes more than TAIL_BEYOND ops, so here two whole passes.
    assert out.passes == 2 and out.attempted == 16
    # raise and nan fail on both passes, drift only when it differs from pass one.
    assert out.failed == 2 * 2 + 2 * 2 + 2
    assert out.first[0] == (1.0,) and out.first[1] is None and out.first[2] is None
