"""Exit-code scan of `nrtlab runge` over a fixed set of configs.

Runs nrtlab.cli.main(["runge", ...]) in this process, in a temporary
directory, on two sets:

- grid: runge_order 1 to 40, t0 in {0.5, 0.3, 0.2, 0.125} and
  t_values [t0, t0 (1 - d), t0 (1 - d)^2] for d in {1e-1, ..., 1e-5}
  (800 configs), at the default region, boundary radius and eps;
- random: 400 configs from a fixed seed, with R = 10^U(0.05, 3), a disk
  of radius 10^U(-3, -0.3) at a random angle and a distance that keeps
  it inside the ambient disk and off the ball of radius t0, t_values
  [t0, t0 / 2, t0 / 4] for t0 in {0.5, 0.25, 0.1, 0.01, 1e-4}, eps in
  {5e-324, 1e-300, 1e-3, 1, 1e300} and runge_order in
  {1, 2, 4, 8, 16, 32, 64, 96}.

It prints one line per config (the config, the exit code, the verdict
and the leading words of each failure line, or the config error), then
a histogram.  It takes no options, so the output of two trees diffs
directly:

    PYTHONPATH=<tree>/src python tools/runge_exit_scan.py > scan.txt
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

from nrtlab.cli import main

SEED = 20190411
GRID_T0 = (0.5, 0.3, 0.2, 0.125)
GRID_D = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
RANDOM_T0 = (0.5, 0.25, 0.1, 0.01, 1e-4)
RANDOM_EPS = (5e-324, 1e-300, 1e-3, 1.0, 1e300)
RANDOM_ORDERS = (1, 2, 4, 8, 16, 32, 64, 96)
RANDOM_COUNT = 400


def grid_configs():
    for order in range(1, 41):
        for t0 in GRID_T0:
            for d in GRID_D:
                yield {"runge_order": order, "t_values": [t0 * (1.0 - d) ** k for k in range(3)]}


def random_configs():
    rng = random.Random(SEED)
    for _ in range(RANDOM_COUNT):
        R = 10.0 ** rng.uniform(0.05, 3.0)
        radius = 10.0 ** rng.uniform(-3.0, -0.3)
        t0 = rng.choice(RANDOM_T0)
        # The centre lies between radius + t0 and R - radius from the origin;
        # where that range is empty the run is a config error.
        distance = radius + t0 + rng.random() * (R - 2.0 * radius - t0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        yield {
            "boundary_radius": R,
            "runge_region": {"shape": "disk", "center": [distance * math.cos(angle), distance * math.sin(angle)],
                             "radius": radius},
            "t_values": [t0, t0 / 2.0, t0 / 4.0],
            "eps": rng.choice(RANDOM_EPS),
            "runge_order": rng.choice(RANDOM_ORDERS),
        }


def leading_words(line: str) -> str:
    """The line's label and its words up to the first one holding a digit, at most three."""
    label, _, rest = line.partition(": ")
    words = []
    for word in rest.split()[:3]:
        if any(ch.isdigit() for ch in word):
            break
        words.append(word)
    return f"{label}: {' '.join(words)}"


def run(config: dict, work: Path) -> tuple[int, str, list[str]]:
    path = work / "cfg.json"
    path.write_text(json.dumps(config))
    out = work / "out"
    (out / "runge.json").unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["runge", "--config", str(path), "--out", str(out)])
    if code == 2:
        return code, "-", [stderr.getvalue().strip()]
    summary = json.loads((out / "runge.json").read_text())["summary"]
    return code, summary["verdict"], [leading_words(line) for line in summary["failures"]]


def main_scan() -> None:
    outcomes = collections.Counter()
    kinds = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name, configs in (("grid", grid_configs()), ("random", random_configs())):
            for i, config in enumerate(configs):
                code, verdict, lines = run(config, Path(tmp))
                print(f"{name} {i} {json.dumps(config, sort_keys=True)} exit={code} verdict={verdict} "
                      f"failures={lines}")
                outcomes[name, code, verdict] += 1
                if code != 2:
                    kinds.update({(name, line.partition(": ")[2]) for line in lines})
    print("histogram:")
    for (name, code, verdict), count in sorted(outcomes.items()):
        print(f"  {name} exit={code} verdict={verdict}: {count}")
    print("configs with each kind of failure:")
    for (name, kind), count in sorted(kinds.items()):
        print(f"  {name} {kind}: {count}")


if __name__ == "__main__":
    main_scan()
