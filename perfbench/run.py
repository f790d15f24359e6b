"""nrtlab benchmark: three workloads, end-to-end metrics, outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload region-map --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* cli-suite    the five subcommands in turn, each a fresh
               `python -m nrtlab.cli <cmd> --seed <s>` process;
* region-map   `indicator_sweep` on a seeded map of disks, in one process;
* probe-route  Runge fits plus pairings and enclosure samples, in one process.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, from a traced run that follows an untraced one of the
same length (their difference is the tracing overhead).  Earlier lines
print every metric with its unit, the machine facts and the checks.
"""

import os
import sys

# One process of load with single-threaded BLAS (nproc is 2 on the
# reference box); set before numpy loads here and inherited by children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-suite", "region-map", "probe-route")
SETUP_REPS = 5
IMPORTTIME_REPS = 3
WRONG_SHOWN = 5

# What a fresh process does before it can take its first op at full
# speed: import, plus for the in-process workloads one small call that
# pays the lazy loads (scipy's quadrature roots, mpmath's first use).
SETUP_CODE = {
    "cli-suite": "import nrtlab.cli",
    "region-map": "import nrtlab\nnrtlab.indicator_sweep(nrtlab.DiskRegion((0.0, 0.0), 0.5), 2.0, 1e-3, [4])",
    "probe-route": (
        "import nrtlab\n"
        "nrtlab.runge_fit(0.5, nrtlab.DiskRegion((1.3, 0.0), 0.25), 2.0, 2)\n"
        "nrtlab.enclosure_indicator(7.0, 0.0, 2.0)"
    ),
}
IMPORT_METRICS = {"nrtlab.import_s": "nrtlab", "geometry.import_s": "nrtlab.geometry", "checks.import_s": "nrtlab.checks"}
RATIO_KINDS = {"retained_share": ("n_retained", "n_total"), "unbounded_share": ("unbounded", None)}
TIME_KINDS = ("self_s", "total_s")
COUNT_KINDS = ("nodes", "flops", "quad_nodes", "bytes")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(code: str, env: dict) -> float:
    """Median wall time from spawning a fresh interpreter to its 'ready' line."""
    ready = code + "\nimport sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()"
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ready], env=env, stdout=subprocess.PIPE)
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up process exited {proc.returncode} before it was ready")
        if rep > 0:  # the first start also writes bytecode caches
            times.append(elapsed)
    return statistics.median(times)


def import_times(env: dict) -> dict:
    runs = []
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nrtlab"],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(tracing.parse_importtime(proc.stderr))
    return {name: statistics.median(run[module] for run in runs) for name, module in IMPORT_METRICS.items()}


def machine_facts(load_at_start) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "loadavg_at_start": list(load_at_start),
        "git_commit": commit,
    }


def end_to_end(outcome, score, setup_s: float) -> tuple[dict, str]:
    from workloads import TAIL_BEYOND, block_tail

    lat = outcome.latencies
    tail_value, pct, block, blocks = block_tail(lat, outcome.attempted // outcome.passes)
    metrics = {
        "setup_s": setup_s,
        # Whole passes hold the same ops, so per-pass rates compare; their
        # median is steadier than the run's mean against host slow phases.
        "ops_per_s": statistics.median(outcome.attempted / outcome.passes / w for w in outcome.pass_walls),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "ok_share": (outcome.attempted - outcome.failed) / outcome.attempted,
        "exact_share": score.exact_hits / score.exact_total,
        "right_verdict_share": score.verdict_right / score.verdict_total,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    detail = (
        f"n={len(lat)} ops in {outcome.passes} passes; tail is the median over {blocks} blocks of "
        f"p{pct:.2f} of {block} ops ({TAIL_BEYOND} samples beyond); "
        f"exact {score.exact_hits}/{score.exact_total}; verdicts right {score.verdict_right}/{score.verdict_total}"
    )
    return metrics, detail


def layer_metrics(names, records, passes: int, imports: dict, extra: dict) -> dict:
    """Per-layer values per pass of the pool, from the traced run's spans."""
    agg = tracing.aggregate(records)
    traced = {f"{layer}.{func}" for layer, func, _ in tracing.TARGETS}
    out = {}
    for name in names:
        if name in imports or name in extra:
            out[name] = imports.get(name, extra.get(name))
            continue
        func, kind = name.rsplit(".", 1)
        if func not in traced:
            raise ValueError(f"per-layer metric {name}: {func} is not traced")
        a = agg.get(func, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}})
        if kind == "calls":
            out[name] = a["calls"] / passes
        elif kind in TIME_KINDS:
            out[name] = a[kind] / passes
        elif kind in RATIO_KINDS:
            num, den = RATIO_KINDS[kind]
            base = a["counts"].get(den, 0) if den else a["calls"]
            out[name] = a["counts"].get(num, 0) / base if base else 0.0
        elif kind in COUNT_KINDS:
            out[name] = a["counts"].get(kind, 0) / passes
        else:
            raise ValueError(f"per-layer metric {name}: unknown kind {kind}")
    return out


def main() -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "nrtlab" / "__init__.py").is_file():
        print(f"perfbench: no nrtlab sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.nrtlab.__file__).resolve().parent != (SRC / "nrtlab").resolve():
        print(f"perfbench: imported nrtlab from {workloads.nrtlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    facts = machine_facts(load_at_start)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    try:
        problems = workloads.oracle_selfcheck()
        if args.trace == 0:
            setup_s = measure_setup(SETUP_CODE[args.workload], env)
            outcome, score, _ = workloads.run_workload(args.workload, args.seed, args.seconds, env, scratch)
            metrics, detail = end_to_end(outcome, score, setup_s)
            listed = spec["end_to_end"]
            attempted, failed = outcome.attempted, outcome.failed
        else:
            half = args.seconds / 2.0
            outcome, score, _ = workloads.run_workload(args.workload, args.seed, half, env, scratch)
            traced, _, records = workloads.run_workload(args.workload, args.seed, half, env, scratch, trace=True)
            layer_self = sum(r["self_s"] for r in records if r["name"].split(".")[0] in ("indicator", "geometry"))
            extra = {
                "trace.overhead_share": (traced.wall / traced.attempted) / (outcome.wall / outcome.attempted) - 1.0,
                "trace.indicator_geometry_share": layer_self / sum(traced.latencies),
            }
            listed = spec["per_layer"]
            metrics = layer_metrics([m["name"] for m in listed], records, traced.passes, import_times(env), extra)
            detail = (
                f"untraced {outcome.attempted} ops in {outcome.wall:.2f} s, "
                f"traced {traced.attempted} ops in {traced.passes} passes, {traced.wall:.2f} s"
            )
            attempted, failed = outcome.attempted + traced.attempted, outcome.failed + traced.failed
            outcome.notes += traced.notes
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: {detail}")
    for m in listed:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    for line in problems + outcome.notes:
        print(f"  check failed: {line}")
    for line in score.wrong[:WRONG_SHOWN]:
        print(f"  wrong verdict (program defect): {line}")
    if len(score.wrong) > WRONG_SHOWN:
        print(f"  ... and {len(score.wrong) - WRONG_SHOWN} more wrong verdicts")
    print("machine " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
