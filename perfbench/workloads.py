"""The three workloads: inputs from the seed, timed passes, closed-form scoring.

Each workload has a fixed pool of ops built from the seed.  A run times
whole passes over its pool until the requested seconds are used up, so
every run sees the same mix of ops, and it scores each distinct op once,
from the first pass.  Later passes must reproduce the first pass exactly;
an op that raises, returns a nonfinite value or differs from its first
pass counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nrtlab
import oracles
import tracing
from oracles import BOUNDARY_RADIUS, EPS

HERE = Path(__file__).resolve().parent

ORDERS = (4, 8, 16, 24, 32)
RUNGE_ORDERS = (16, 32, 48, 64)
RUNGE_TS = (0.5, 0.25, 0.125)
TAUS = (1.0, 10.0, 20.0, 50.0, 100.0)
CLI_COMMANDS = ("verify-identity", "indicator", "runge", "sign-map", "enclosure")

# Disks keep |c| + rho <= REACH inside the ambient radius 2, and stay out
# of the band | |c| / rho - 1 | < TANGENT_BAND, where the origin sits near
# the boundary and the program refuses or the growth is only polynomial.
REACH = 1.9
TANGENT_BAND = 0.1
REGION_PER_CLASS = 50
# (class, |c|/rho range, radius range).  Stratified draws in each class
# keep the class mix, and so the shares, close across seeds.
REGION_CLASSES = (
    ("centred-inside", (0.0, 0.2), (0.1, 0.8)),
    ("offcentre-inside", (0.2, 1.0 - TANGENT_BAND), (0.1, 0.8)),
    ("near-outside", (1.0 + TANGENT_BAND, 2.0), (0.1, 0.8)),
    ("far-outside", (2.0, 6.0), (0.1, 0.6)),
)
# Disks in every seed's map.  (1.3,0;0.25) and (0,0;0.5) are the CLI's
# default regions; (0.365,0;0.546) contains the origin, so it is exactly
# Bounded, yet the shipped sweep calls it BlowUp from its float64
# discarded_share flag.  Keeping it makes that defect show on any seed.
REGION_ANCHORS = (((0.0, 0.0), 0.5), ((1.3, 0.0), 0.25), ((0.365, 0.0), 0.546))
# The CLI's Runge region, on which the N=16, t=0.5 fit misses 2 pi / t
# by 1.21e-2, is in every seed's probe route for the same reason.
PROBE_ANCHOR = ((1.3, 0.0), 0.25)
PROBE_DISKS_PER_ORDER = 3
# Eight angles per tau put dozens of tau=100 samples (the slowest op) in
# every run, so the tail rank stays inside that group from run to run.
ENCLOSURE_PHIS = 8

EXACT_RTOL_SERIES = 1e-6
EXACT_RTOL_RUNGE = 1e-2
EXACT_RTOL_ENCLOSURE = 1e-8
IDENTITY_ATOL = 1e-9
SIGN_CENTER_RTOL = 1e-12
# op_tail_ms is the highest percentile with at least this many samples
# beyond it, so a run takes more ops than that whatever its seconds.
TAIL_BEYOND = 10
# The tail is taken in blocks of whole passes holding at least this many
# ops, and the median over blocks is reported: one burst of host noise
# then moves one block, not the run's single most extreme ranks.
TAIL_BLOCK_OPS = 100
# A hung subcommand is a failed op, not a hung run.
CLI_TIMEOUT = 120


@dataclass
class Score:
    exact_hits: int = 0
    exact_total: int = 0
    verdict_right: int = 0
    verdict_total: int = 0
    wrong: list = field(default_factory=list)

    def exact(self, ok: bool) -> None:
        self.exact_total += 1
        self.exact_hits += bool(ok)

    def verdict(self, got: str, want: str, label: str) -> None:
        self.verdict_total += 1
        self.verdict_right += got == want
        if got != want:
            self.wrong.append(f"{label}: {got} (geometry says {want})")


@dataclass
class Outcome:
    """Timings and first-pass outputs of one run over a pool."""

    latencies: list
    pass_walls: list
    first: list
    failed: int
    peak_rss_mb: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def passes(self) -> int:
        return len(self.pass_walls)

    @property
    def wall(self) -> float:
        return sum(self.pass_walls)


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def block_tail(latencies, per_pass: int) -> tuple[float, float, int, int]:
    """(value, percentile, block size, blocks) of the median block tail.

    Blocks are runs of whole passes with at least TAIL_BLOCK_OPS ops; the
    passes left over join the last block, and a run shorter than one
    block is one block.
    """
    size = per_pass * max(1, math.ceil(TAIL_BLOCK_OPS / per_pass))
    count = max(1, len(latencies) // size)
    blocks = [latencies[i * size:(i + 1) * size] for i in range(count - 1)] + [latencies[(count - 1) * size:]]
    tails = [tail(b)[0] for b in blocks]
    return statistics.median(tails), tail(blocks[0])[1], len(blocks[0]), count


def _more(start: float, seconds: float, done: int) -> bool:
    return done <= TAIL_BEYOND or time.perf_counter() - start < seconds


def _finite(out) -> bool:
    if isinstance(out, tuple):
        return all(_finite(v) for v in out)
    if isinstance(out, complex):
        return math.isfinite(out.real) and math.isfinite(out.imag)
    if isinstance(out, float):
        return math.isfinite(out)
    return True


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)


def _place(rng, dist: float) -> tuple[float, float]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return (dist * math.cos(angle), dist * math.sin(angle))


def run_passes(pool, do, seconds: float, recorder=None) -> Outcome:
    """Closed loop, one client: whole passes over the pool until time is up."""
    first = [None] * len(pool)
    latencies = []
    pass_walls = []
    failed = 0
    notes = []
    start = time.perf_counter()
    while _more(start, seconds, len(latencies)):
        passes = len(pass_walls)
        pass_start = time.perf_counter()
        for i, op in enumerate(pool):
            if recorder is not None:
                recorder.op = len(latencies)
            scope = recorder.span("op") if recorder is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with scope:
                    out = do(op)
            except Exception as exc:  # one failed op must not end the run
                out = None
                notes.append(f"op {i} {op!r} raised {exc!r}")
            latencies.append(time.perf_counter() - t0)
            if out is None or not _finite(out):
                failed += 1
                if out is not None:
                    notes.append(f"op {i} {op!r} gave a nonfinite value {out!r}")
                    out = None
            elif passes > 0 and out != first[i]:
                failed += 1
                notes.append(f"op {i} {op!r} differs from its first pass")
            if passes == 0:
                first[i] = out
        pass_walls.append(time.perf_counter() - pass_start)
    return Outcome(latencies, pass_walls, first, failed, notes=notes)


# ---------------------------------------------------------------- region-map


def region_pool(seed: int) -> list:
    """Anchors plus REGION_PER_CLASS disks per class, as ((cx, cy), rho)."""
    rng = np.random.default_rng(seed)
    pool = list(REGION_ANCHORS)
    for _name, (q_lo, q_hi), (r_lo, r_hi) in REGION_CLASSES:
        radii = _stratified(rng, r_lo, r_hi, REGION_PER_CLASS)
        fractions = _stratified(rng, 0.0, 1.0, REGION_PER_CLASS)
        for rho, u in zip(radii, fractions):
            top = min(q_hi, (REACH - rho) / rho)
            q = q_lo + u * (top - q_lo)
            pool.append((_place(rng, q * rho), float(rho)))
    return pool


def region_op(disk):
    center, rho = disk
    curve = nrtlab.indicator.indicator_sweep(
        nrtlab.geometry.DiskRegion(center, rho), BOUNDARY_RADIUS, EPS, ORDERS
    )
    return tuple(float(v) for v in curve.values), curve.verdict.value


def region_score(pool, first) -> Score:
    score = Score()
    for (center, rho), out in zip(pool, first):
        want = oracles.geometry_verdict(center, rho)
        label = f"disk(({center[0]:.4f},{center[1]:.4f});{rho:.4f})"
        if out is None:
            for _ in ORDERS:
                score.exact(False)
            score.verdict("failed", want, label)
            continue
        values, verdict = out
        dist = math.hypot(*center)
        for n, value in zip(ORDERS, values):
            score.exact(oracles.rel_err(value, oracles.disk_series(dist, rho, n)) <= EXACT_RTOL_SERIES)
        score.verdict(verdict, want, label)
    return score


# --------------------------------------------------------------- probe-route


def probe_pool(seed: int) -> list:
    """Runge ops ("fit", disk, N, t) and enclosure ops ("enc", tau, phi), shuffled.

    The anchor disk gets every (N, t).  Each seeded disk gets one N and
    every t, which is what a verdict on its t-curve needs; angles, radii
    and distances are stratified so each seed sees the same spread of
    geometry, including disks that face the probe point t e1.
    """
    rng = np.random.default_rng(seed)
    n_disks = PROBE_DISKS_PER_ORDER * len(RUNGE_ORDERS)
    angles = 2.0 * math.pi * (np.arange(n_disks) + rng.random(n_disks)) / n_disks
    radii = _stratified(rng, 0.1, 0.4, n_disks)
    fractions = _stratified(rng, 0.0, 1.0, n_disks)
    orders = rng.permutation(np.repeat(RUNGE_ORDERS, PROBE_DISKS_PER_ORDER))
    ops = [("fit", PROBE_ANCHOR, n, t) for n in RUNGE_ORDERS for t in RUNGE_TS]
    for angle, rho, u, order in zip(angles, radii, fractions, orders):
        lo = max(RUNGE_TS) + rho + 0.05  # the ball of radius t about 0 stays off G
        dist = lo + u * (REACH - rho - lo)
        disk = ((float(dist * math.cos(angle)), float(dist * math.sin(angle))), float(rho))
        ops += [("fit", disk, int(order), t) for t in RUNGE_TS]
    phis = 2.0 * math.pi * (np.arange(ENCLOSURE_PHIS) + rng.random(ENCLOSURE_PHIS)) / ENCLOSURE_PHIS
    ops += [("enc", tau, float(phi)) for tau in TAUS for phi in phis]
    return [ops[i] for i in rng.permutation(len(ops))]


class ProbeOps:
    """Callable op runner holding the cavity's gap trace, built once per run."""

    def __init__(self):
        h = nrtlab.harmonic
        self.w = h.gap_neumann_trace(h.annulus_neumann_solution(BOUNDARY_RADIUS), BOUNDARY_RADIUS)

    def __call__(self, op):
        if op[0] == "fit":
            _, (center, rho), order, t = op
            fit = nrtlab.indicator.runge_fit(t, nrtlab.geometry.DiskRegion(center, rho), BOUNDARY_RADIUS, order)
            return (nrtlab.harmonic.boundary_pairing(self.w, fit.g, BOUNDARY_RADIUS),)
        _, tau, phi = op
        return (complex(nrtlab.checks.enclosure_indicator(tau, phi, BOUNDARY_RADIUS)),)


def probe_score(pool, first) -> Score:
    score = Score()
    curves = {}
    for op, out in zip(pool, first):
        if op[0] == "fit":
            _, disk, order, t = op
            ok = out is not None and oracles.rel_err(out[0], oracles.runge_target(t)) <= EXACT_RTOL_RUNGE
            curves.setdefault((disk, order), {})[t] = out[0] if out is not None else None
        else:
            _, tau, phi = op
            ok = out is not None and oracles.rel_err(out[0], oracles.enclosure_target(tau, phi)) <= EXACT_RTOL_ENCLOSURE
        score.exact(ok)
    # The Runge route's verdict per disk and order: blow_up_diagnostic on
    # the pairing against t, as the CLI's runge subcommand judges it.
    ind = nrtlab.indicator
    for ((center, rho), order), by_t in sorted(curves.items()):
        label = f"runge disk(({center[0]:.4f},{center[1]:.4f});{rho:.4f}) N={order}"
        want = oracles.geometry_verdict(center, rho)
        if any(by_t[t] is None for t in RUNGE_TS):
            score.verdict("failed", want, label)
            continue
        curve = ind.IndicatorCurve(parameter="t", grid=np.array(RUNGE_TS), values=np.array([by_t[t] for t in RUNGE_TS]), eps=EPS)
        score.verdict(ind.blow_up_diagnostic(curve).value, want, label)
    return score


# ----------------------------------------------------------------- cli-suite


_LABEL = re.compile(r"disk\(([^,]+),([^;]+);r=([^)]+)\)")


def cli_score_command(cmd: str, files: dict, score: Score) -> None:
    """Score one subcommand's first-cycle outputs against the closed forms.

    Raises ValueError when the outputs are malformed or nonfinite, which
    the caller counts as a failed op.
    """
    payload = json.loads(files["json"])
    summary, config = payload["summary"], payload["config"]
    if summary.get("passed") is not True:
        raise ValueError(f"{cmd}: the subcommand's own checks did not pass")
    rows = list(csv.DictReader(io.StringIO(files["csv"].decode("ascii"))))

    def num(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{cmd}: nonfinite value {text!r}")
        return value

    if cmd == "verify-identity":
        for row in rows:
            score.exact(abs(num(row["pairing"]) - num(row["gradient_form"])) <= IDENTITY_ATOL)
    elif cmd == "indicator":
        for row in rows:
            cx, cy, rho = (float(g) for g in _LABEL.fullmatch(row["region"]).groups())
            exact = oracles.disk_series(math.hypot(cx, cy), rho, int(row["N_or_t"]), num(row["eps"]))
            score.exact(oracles.rel_err(num(row["value"]), exact) <= EXACT_RTOL_SERIES)
        for region, result in zip(config["regions"], summary["regions"]):
            want = oracles.geometry_verdict(tuple(region["center"]), region["radius"])
            score.verdict(result["verdict"], want, f"cli indicator {result['region']}")
    elif cmd == "runge":
        for row in rows:
            score.exact(oracles.rel_err(num(row["pairing"]), oracles.runge_target(num(row["N_or_t"]))) <= EXACT_RTOL_RUNGE)
        region = config["runge_region"]
        score.verdict(summary["verdict"], oracles.geometry_verdict(tuple(region["center"]), region["radius"]), "cli runge")
    elif cmd == "enclosure":
        for row in rows:
            value = complex(num(row["re"]), num(row["im"]))
            exact = oracles.enclosure_target(num(row["tau"]), summary["phi"])
            score.exact(oracles.rel_err(value, exact) <= EXACT_RTOL_ENCLOSURE)
    elif cmd == "sign-map":
        for entry in summary["per_height"]:
            y3 = entry["y3"]
            score.exact(oracles.rel_err(num(str(entry["center_value"])), oracles.sign_center(y3)) <= SIGN_CENTER_RTOL)
            predicted = math.sqrt(2.0) * y3
            if predicted < summary["half_width"]:
                score.exact(abs(num(str(entry["zero_radius_estimate"])) - predicted) <= entry["grid_step"])


def run_cli_cycles(seed: int, seconds: float, out_dir: Path, env: dict, child=None) -> tuple[Outcome, Score]:
    """Whole cycles of the five subcommands, one fresh process per op.

    `child` is the command prefix that runs one subcommand; it defaults
    to `python -m nrtlab.cli`.  Cycle 0's CSV, JSON and SVG are hashed and,
    after the timed loop, scored; a later cycle whose bytes differ is a
    failed op.
    """
    prefix = child or [sys.executable, "-m", "nrtlab.cli"]
    first = {}
    first_digest = {}
    ok_ops = dict.fromkeys(CLI_COMMANDS, 0)
    latencies = []
    cycle_walls = []
    notes = []
    failed = 0
    start = time.perf_counter()
    while _more(start, seconds, len(latencies)):
        cycles = len(cycle_walls)
        cycle_start = time.perf_counter()
        for cmd in CLI_COMMANDS:
            paths = {ext: out_dir / f"{cmd}.{ext}" for ext in ("csv", "json", "svg")}
            for p in paths.values():
                p.unlink(missing_ok=True)
            argv = prefix + [cmd, "--seed", str(seed), "--out", str(out_dir)]
            problem = None
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=CLI_TIMEOUT)
            except subprocess.TimeoutExpired:
                problem = f"no exit within {CLI_TIMEOUT} s"
            latencies.append(time.perf_counter() - t0)
            if problem is None and proc.returncode != 0:
                problem = f"exit {proc.returncode}: {proc.stdout.decode(errors='replace').strip()[-300:]}"
            if problem is None:
                try:
                    files = {ext: p.read_bytes() for ext, p in paths.items()}
                except OSError as exc:
                    problem = f"missing output: {exc}"
            if problem is None:
                digest = {ext: hashlib.sha256(b).hexdigest() for ext, b in files.items()}
                if cycles == 0:
                    first[cmd], first_digest[cmd] = files, digest
                elif digest != first_digest.get(cmd):
                    changed = sorted(ext for ext in digest if digest[ext] != first_digest.get(cmd, {}).get(ext))
                    problem = f"cycle {cycles} wrote bytes that differ from cycle 0 in {changed}"
            if problem is None:
                ok_ops[cmd] += 1
            else:
                failed += 1
                notes.append(f"{cmd}: {problem}")
        cycle_walls.append(time.perf_counter() - cycle_start)
    score = Score()
    for cmd, files in first.items():
        try:
            cli_score_command(cmd, files, score)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # Later cycles repeated these bytes, so every op of cmd failed.
            failed += ok_ops[cmd]
            notes.append(f"{cmd}: bad output: {exc!r}")
    # The largest child of this process; the set-up children before the
    # loop only import, so they are smaller than any subcommand.
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return Outcome(latencies, cycle_walls, [], failed, peak_rss_mb=peak, notes=notes), score


# ------------------------------------------------------------------- driving


def oracle_selfcheck() -> list[str]:
    """The closed-form series against the shipped sweep where that sweep is accurate.

    disk((0,0);0.5) at every order and disk((1.3,0);0.25) at N=4 must agree
    to 1e-9; other disagreements are program defects measured by exact_share.
    """
    problems = []
    for (center, rho), orders in ((REGION_ANCHORS[0], ORDERS), (REGION_ANCHORS[1], (4,))):
        curve = nrtlab.indicator.indicator_sweep(nrtlab.geometry.DiskRegion(center, rho), BOUNDARY_RADIUS, EPS, orders)
        for n, value in zip(orders, curve.values):
            err = oracles.rel_err(float(value), oracles.disk_series(math.hypot(*center), rho, n))
            if not err <= 1e-9:
                problems.append(f"series vs indicator_sweep on disk({center};{rho}) N={n}: rel {err:.2e}")
    return problems


def run_workload(name: str, seed: int, seconds: float, env: dict, scratch: Path, trace: bool = False):
    """One timed run: (outcome, score, span records or None)."""
    recorder = tracing.Recorder() if trace else None
    if name == "cli-suite":
        out_dir = scratch / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        if not trace:
            return (*run_cli_cycles(seed, seconds, out_dir, env), None)
        spans_dir = scratch / "spans"
        spans_dir.mkdir(exist_ok=True)
        child = [sys.executable, str(HERE / "cli_child.py"), str(spans_dir)]
        outcome, score = run_cli_cycles(seed, seconds, out_dir, env, child=child)
        records = []
        for path in sorted(spans_dir.glob("*.json")):
            records.extend(json.loads(path.read_text()))
        return outcome, score, records
    if name == "region-map":
        pool, do, score_fn = region_pool(seed), region_op, region_score
    else:
        pool, do, score_fn = probe_pool(seed), ProbeOps(), probe_score
    do(pool[0])  # warm-up, untimed: the lazy loads are part of setup_s
    if trace:
        with tracing.patched(recorder):
            outcome = run_passes(pool, do, seconds, recorder=recorder)
    else:
        outcome = run_passes(pool, do, seconds)
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome, score_fn(pool, outcome.first), recorder.records() if trace else None
