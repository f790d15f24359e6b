"""Caps scan: the README's caps rows as fresh `python -m nrtlab.cli` processes.

Writes the six caps configs of the README's caps table, then runs each
row as `python -m nrtlab.cli <cmd> --config <caps> --out <tmp>` on every
tree given, with PYTHONPATH=<tree>/src, one BLAS thread and
PYTHONDONTWRITEBYTECODE=1.  Each row runs 5 times per tree; the trees
take turns, and the tree that goes first moves on by one each round.
Per run it records the wall time (perf_counter around the spawn and
os.wait4), the child's peak RSS (ru_maxrss from os.wait4), the exit
code and the output sizes, and per tree whether src/nrtlab/__pycache__
exists (a tree that holds one starts faster).  It prints one JSON
object with the configs, the method and, per row and tree, those
records.  It takes the tree roots and nothing else:

    python tools/caps_scan.py <tree> [<tree> ...]
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 5
BLAS_THREADS = "1"

# row: (subcommand, config, description), in the README table's order.
CAPS = {
    "runge": ("runge", {"runge_order": 96, "t_values": [0.5 * 0.8**k for k in range(8)]},
              "runge_order 96, t_values 0.5*0.8^k for k = 0..7"),
    "runge-tiny": ("runge", {"runge_order": 96, "t_values": [float(f"1e-{e}") for e in range(290, 298)]},
                   "runge_order 96, t_values 1e-290 .. 1e-297 (exit 1: uncertified pairings)"),
    "indicator": ("indicator", {"regions": [{"center": [0.0, 0.0], "radius": 0.5}] * 64,
                                "orders": list(range(1, 1025))},
                  "64 regions {center [0, 0], radius 0.5}, orders 1..1024"),
    "enclosure": ("enclosure", {"tau_values": list(range(1, 1001))}, "tau_values 1, 2, ..., 1000"),
    "sign-map": ("sign-map", {"sign_resolution": 401, "y3_values": [0.2, 0.175, 0.15, 0.125, 0.1, 0.075, 0.05, 0.025]},
                 "sign_resolution 401, y3_values 0.2, 0.175, ..., 0.025"),
    "verify-identity": ("verify-identity", {"identity_samples": 1000, "identity_max_order": 1024},
                        "identity_samples 1000, identity_max_order 1024"),
}

METHOD = (f"fresh `python -m nrtlab.cli <cmd> --config <caps> --out <tmp>` processes, {RUNS} per tree, trees "
          "alternated (the first tree moves on by one each round); wall by perf_counter around spawn and wait; "
          f"peak RSS is the child's ru_maxrss from os.wait4; OPENBLAS_NUM_THREADS={BLAS_THREADS}, "
          "PYTHONDONTWRITEBYTECODE=1")


def run_once(tree: Path, command: str, config: Path) -> dict:
    """One fresh process of the row on tree: wall, peak RSS, exit code and output sizes."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "nrtlab.cli", command, "--config", str(config), "--out", out],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sizes = {path.name: path.stat().st_size for path in sorted(Path(out).iterdir())}
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode, "bytes": sizes}


def one_or_all(values: list):
    """The value every run gave, or each run's value where they differ."""
    return values[0] if all(v == values[0] for v in values) else values


def scan(trees: list[Path]) -> dict:
    pycache = {str(tree): (tree / "src" / "nrtlab" / "__pycache__").is_dir() for tree in trees}
    runs = {row: {str(tree): [] for tree in trees} for row in CAPS}
    with tempfile.TemporaryDirectory() as tmp:
        for row, (command, config, _) in CAPS.items():
            path = Path(tmp) / f"{row}.json"
            path.write_text(json.dumps(config))
            for k in range(RUNS):
                for tree in trees[k % len(trees):] + trees[: k % len(trees)]:
                    runs[row][str(tree)].append(run_once(tree, command, path))
    batch = {
        row: {
            tree: {
                "wall_s": [round(r["wall_s"], 3) for r in records],
                "median_wall_s": round(statistics.median(r["wall_s"] for r in records), 3),
                "peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in records],
                "exit": one_or_all([r["exit"] for r in records]),
                "bytes": one_or_all([r["bytes"] for r in records]),
            }
            for tree, records in per_tree.items()
        }
        for row, per_tree in runs.items()
    }
    return {
        "configs": {row: description for row, (_, _, description) in CAPS.items()},
        "method": METHOD,
        "blas_threads": int(BLAS_THREADS),
        "pycache": pycache,
        "batch": batch,
    }


def main(argv: list[str]) -> int:
    trees = [Path(arg) for arg in argv]
    if not trees or not all((tree / "src" / "nrtlab" / "cli.py").is_file() for tree in trees):
        print("usage: python tools/caps_scan.py <tree> [<tree> ...], each tree holding src/nrtlab", file=sys.stderr)
        return 2
    print(json.dumps(scan(trees), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
