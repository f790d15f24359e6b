"""Outside-in layer trace: wrap nrtlab's public functions, record spans.

The wrappers live in the benchmark, not in the program.  `patched`
replaces a function at every nrtlab module attribute that binds it
(and inside module-level dicts such as the CLI's RUNNERS table), so a
call is traced whichever import path the caller used, and puts every
original back on exit.  Spans stay in memory and are written once, at
the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field


def _file_bytes(*paths) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p))}


def _quadrature(span, args, result):
    return {"nodes": result.size}


def _assemble_gram(span, args, result):
    # 6 dim^2 nodes: three dim x nodes by nodes x dim products (values,
    # x and y gradients), 2 flops per multiply-add.  Computed, not counted.
    nodes = sum(c.counts.get("nodes", 0) for c in span.children if c.name == "geometry.build_disk_quadrature")
    return {"flops": 6 * result.dim * result.dim * nodes}


def _sup(span, args, result):
    return {"n_retained": result.n_retained, "n_total": result.n_total, "unbounded": int(result.unbounded)}


def _runge(span, args, result):
    return {"n_retained": result.n_retained, "n_total": 2 * result.order + 1}


def _enclosure(span, args, result):
    from nrtlab.checks import required_enclosure_order

    order = args.get("quad_order")
    if order is None:
        order = required_enclosure_order(args["tau"], args["boundary_radius"])
    return {"quad_nodes": int(order)}


def _svg(span, args, result):
    return _file_bytes(args["path"])


def _outputs(span, args, result):
    out, name = args["out_dir"], args["name"]
    return _file_bytes(os.path.join(out, f"{name}.csv"), os.path.join(out, f"{name}.json"))


# Wrapped functions as (layer, function, observer).  An observer turns a
# call's bound arguments and result into counts kept on its span.
TARGETS = (
    ("geometry", "build_disk_quadrature", _quadrature),
    ("harmonic", "boundary_pairing", None),
    ("harmonic", "dirichlet_disk_solve", None),
    ("harmonic", "gap_neumann_trace", None),
    ("indicator", "indicator_sweep", None),
    ("indicator", "assemble_gram", _assemble_gram),
    ("indicator", "sup_indicator", _sup),
    ("indicator", "runge_fit", _runge),
    ("indicator", "blow_up_diagnostic", None),
    ("checks", "gradient_identity", None),
    ("checks", "sign_map", None),
    ("checks", "sign_indefiniteness_certificate", None),
    ("checks", "enclosure_indicator", _enclosure),
    ("checks", "enclosure_sweep", None),
    ("svgplot", "line_chart", _svg),
    ("svgplot", "sign_panels", _svg),
    ("cli", "write_outputs", _outputs),
    ("cli", "run_verify_identity", None),
    ("cli", "run_indicator", None),
    ("cli", "run_runge", None),
    ("cli", "run_sign_map", None),
    ("cli", "run_enclosure", None),
)


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self_time(self.start, self.end, [(c.start, c.end) for c in self.children])


def self_time(start: float, end: float, child_intervals) -> float:
    """Span duration minus the part of [start, end] its children cover."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(child_intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


class Recorder:
    """In-memory span store for one process; not thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent.id if parent else None, self.op, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children.append(s)

    def wrap(self, name: str, fn, observe=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                s.counts.update(observe(s, bound.arguments, result))
            return result

        return traced

    def records(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name, "start": s.start,
             "end": s.end, "self_s": s.self_time, "counts": s.counts}
            for s in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def _bindings(original):
    """Every (namespace, key) under nrtlab's modules that holds `original`."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "nrtlab" or name.startswith("nrtlab.")):
            continue
        space = vars(mod)
        for key, value in list(space.items()):
            if value is original:
                found.append((space, key))
            elif isinstance(value, dict) and not key.startswith("__"):
                found.extend((value, k) for k, v in value.items() if v is original)
    return found


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Trace every TARGETS function at every binding for the duration of the block."""
    undo = []
    try:
        for layer, func, observe in TARGETS:
            original = getattr(importlib.import_module(f"nrtlab.{layer}"), func)
            wrapper = recorder.wrap(f"{layer}.{func}", original, observe)
            for space, key in _bindings(original):
                space[key] = wrapper
                undo.append((space, key, original))
        yield recorder
    finally:
        for space, key, original in reversed(undo):
            space[key] = original


def aggregate(records) -> dict:
    """Per span name: calls, summed self and total seconds, summed counts."""
    out: dict[str, dict] = {}
    for r in records:
        agg = out.setdefault(r["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += r["self_s"]
        agg["total_s"] += r["end"] - r["start"]
        for key, value in r["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out.setdefault(m.group(3).strip(), int(m.group(2)) * 1e-6)
    return out
