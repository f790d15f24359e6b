"""The benchmark's tracer wraps nrtlab functions by name; every name must resolve.

perfbench/tracing.py lists its targets as (layer, function, observer).
A target that no longer exists on nrtlab.<layer> breaks `--trace 1`
runs, so this checks the list against the package as it stands.  The
workloads and the tracer also read attributes of what those functions
return, and those must stay readable too.  Some of what the benchmark
calls runs on no program path (the slope diagnostic, the pairing of a
fit's boundary data), so only these tests keep a change to the package
from breaking it.  cli-suite also scores the CLI's output files, so the
summary keys, config keys and CSV columns it reads are pinned here.
The package's top level binds exactly the names perfbench reads as
nrtlab.<name>.  Last, a guard lists every function in src/ that no
default subcommand calls, so src/ holds the program plus what perfbench
names, and no more.
"""

import ast
import csv
import importlib
import importlib.util
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_probe_route_scoring_calls_still_run():
    # workloads.ProbeOps pairs fit.g with the gap trace, and probe_score
    # judges each disk's pairings against t with blow_up_diagnostic.
    import numpy as np

    from nrtlab.geometry import DiskRegion
    from nrtlab.harmonic import annulus_neumann_solution, boundary_pairing, gap_neumann_trace
    from nrtlab.indicator import IndicatorCurve, Verdict, blow_up_diagnostic, runge_fit

    R = 2.0
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    ts = (0.5, 0.25, 0.125)
    pairings = [boundary_pairing(w, runge_fit(t, DiskRegion((1.3, 0.0), 0.25), R, 16).g, R) for t in ts]
    assert all(math.isfinite(p) for p in pairings)
    curve = IndicatorCurve(parameter="t", grid=np.array(ts), values=np.array(pairings), eps=1e-3)
    assert isinstance(blow_up_diagnostic(curve), Verdict)


def setup_code() -> dict:
    """run.py's SETUP_CODE: each workload's set-up code, timed in a fresh process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "SETUP_CODE" for target in node.targets)
    )


def test_setup_code_runs_and_calls_what_it_names():
    import nrtlab

    setup = setup_code()
    called = {name for code in setup.values() for name in re.findall(r"nrtlab\.(\w+)\(", code)}
    assert called == {"indicator_sweep", "DiskRegion", "runge_fit", "enclosure_indicator"}
    assert all(callable(getattr(nrtlab, name, None)) for name in called)
    for code in setup.values():
        exec(code, {})


def read_off_nrtlab(tree: ast.AST) -> set:
    """Every name read as nrtlab.<name> in the code of tree; prose does not count."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "nrtlab"
    }


def test_top_level_binds_only_what_perfbench_reads():
    # Every other name is imported from its module, so each has one binding;
    # a change that stops perfbench reading a name drops it from nrtlab too.
    import nrtlab

    submodules = {module.name for module in pkgutil.iter_modules(nrtlab.__path__)}
    trees = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    trees += [ast.parse(code) for code in setup_code().values()]
    read = set().union(*map(read_off_nrtlab, trees)) - submodules
    assert len(nrtlab.__all__) == len(set(nrtlab.__all__))
    assert set(nrtlab.__all__) == read | {"__version__"}
    public = {name for name, value in vars(nrtlab).items() if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public <= set(nrtlab.__all__)


def test_bare_import_binds_the_submodules_the_workloads_read():
    # perfbench/workloads.py imports nrtlab alone and then reads nrtlab.<module>.<name>.
    import nrtlab

    submodules = {module.name for module in pkgutil.iter_modules(nrtlab.__path__)}
    read = read_off_nrtlab(ast.parse((PERFBENCH / "workloads.py").read_text())) & submodules
    assert read == {"checks", "geometry", "harmonic", "indicator"}
    code = "import json, sys, types, nrtlab; print(json.dumps([isinstance(getattr(nrtlab, n, None), types.ModuleType) for n in sys.argv[1:]]))"
    src = str(Path(nrtlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *sorted(read)], capture_output=True, text=True, check=True, env=env)
    assert json.loads(proc.stdout) == [True] * len(read)


def test_enclosure_observer_resolves_its_import():
    # tracing._enclosure imports checks.required_enclosure_order when called.
    counts = load_tracing()._enclosure(None, {"tau": 7.0, "boundary_radius": 2.0}, None)
    assert isinstance(counts["quad_nodes"], int) and counts["quad_nodes"] > 0


def test_sign_map_json_keeps_the_keys_cli_suite_scores(tmp_path):
    # cli-suite scores the half width and, per height, the centre value
    # and the zero-radius estimate within a grid step.
    from nrtlab.cli import main

    assert main(["sign-map", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sign-map.json").read_text())["summary"]
    assert summary["half_width"] > 0.0
    assert summary["per_height"]
    for entry in summary["per_height"]:
        for key in ("y3", "center_value", "zero_radius_estimate", "grid_step"):
            assert math.isfinite(entry[key]), key


# The CSV columns that workloads.cli_score_command reads per subcommand.
SCORED_COLUMNS = {
    "verify-identity": {"pairing", "gradient_form"},
    "indicator": {"region", "N_or_t", "eps", "value"},
    "runge": {"N_or_t", "pairing"},
    "sign-map": set(),
    "enclosure": {"tau", "re", "im"},
}


def region_label_pattern():
    # workloads._LABEL, the pattern cli-suite parses each indicator region label with.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    (call,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "_LABEL" for target in node.targets)
    ]
    return re.compile(ast.literal_eval(call.args[0]))


def test_indicator_labels_keep_every_digit(tmp_path):
    # Regions 6 significant digits cannot tell apart get distinct labels,
    # and each label parses back to its config entry exactly.
    from nrtlab.cli import main

    regions = [
        {"center": [0, 0], "radius": 0.5},
        {"center": [0, 0], "radius": 0.5000001},
        {"center": [0.1234567, -0.3], "radius": 0.25},
    ]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": regions}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == 0
    labels = [entry["region"] for entry in json.loads((out / "indicator.json").read_text())["summary"]["regions"]]
    assert len(set(labels)) == len(regions)
    pattern = region_label_pattern()
    for label, region in zip(labels, regions):
        cx, cy, rho = (float(g) for g in pattern.fullmatch(label).groups())
        assert [cx, cy] == region["center"] and rho == region["radius"]
    rows = list(csv.DictReader(io.StringIO((out / "indicator.csv").read_text())))
    assert list(dict.fromkeys(row["region"] for row in rows)) == labels
    svg = (out / "indicator.svg").read_text()
    assert all(f">{label}<" in svg for label in labels)


@pytest.mark.parametrize("command", sorted(SCORED_COLUMNS))
def test_cli_outputs_keep_what_cli_suite_scores(tmp_path, command):
    # cli-suite refuses a run whose summary has not passed, then scores
    # CSV columns and the summary and config keys checked here.
    from nrtlab.cli import main

    assert main([command, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"{command}.json").read_text())
    summary, config = payload["summary"], payload["config"]
    assert summary["passed"] is True
    rows = list(csv.DictReader(io.StringIO((tmp_path / f"{command}.csv").read_text())))
    assert rows and SCORED_COLUMNS[command] <= set(rows[0])
    if command == "indicator":
        label = region_label_pattern()
        assert len(summary["regions"]) == len(config["regions"])
        for region, result in zip(config["regions"], summary["regions"]):
            cx, cy, rho = (float(g) for g in label.fullmatch(result["region"]).groups())
            assert [cx, cy] == region["center"] and rho == region["radius"]
            assert result["verdict"] in ("Bounded", "BlowUp")
        assert all(label.fullmatch(row["region"]) for row in rows)
    elif command == "runge":
        assert summary["verdict"] == "BlowUp"
        assert set(config["runge_region"]) >= {"center", "radius"}
    elif command == "enclosure":
        assert math.isfinite(summary["phi"])


@pytest.mark.parametrize("command", sorted(SCORED_COLUMNS))
def test_outputs_are_in_place_when_write_outputs_returns(tmp_path, monkeypatch, command):
    # tracing._outputs sizes <out_dir>/<name>.csv and .json, taken from the
    # bound arguments, right after the traced write_outputs returns; they
    # must already be the files the run leaves.
    import nrtlab.cli as cli

    tracing = load_tracing()
    seen = []

    def observe(span, args, result):
        stem = Path(args["out_dir"]) / args["name"]
        seen.append({suffix: Path(f"{stem}.{suffix}").read_bytes() for suffix in ("csv", "json")})
        return tracing._outputs(span, args, result)

    recorder = tracing.Recorder()
    wrapper = recorder.wrap("cli.write_outputs", cli.write_outputs, observe)
    for space, key in tracing._bindings(cli.write_outputs):
        monkeypatch.setitem(space, key, wrapper)
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out)]) == 0
    (files,) = seen
    assert {suffix: (out / f"{command}.{suffix}").read_bytes() for suffix in files} == files
    (span,) = recorder.spans
    assert span.counts == {"bytes": sum(map(len, files.values()))}


# Every function in src/nrtlab/*.py that none of the five default
# subcommands calls, with the ROADMAP item that deletes it and, for a
# helper, the entry point through which the benchmark reaches it.  Item
# 2 frees each entry point from perfbench, which names it; anything
# else that the default runs never call does not belong in src/.
OFF_THE_PROGRAM_PATH = {
    # Item 3: the quadrature Gram path and the disk quadrature.
    "geometry.build_disk_quadrature": (3, None),
    "geometry.QuadratureRule.__post_init__": (3, "geometry.build_disk_quadrature"),
    "geometry.QuadratureRule.size": (3, None),
    "indicator.assemble_gram": (3, None),
    "indicator.GramSystem.__post_init__": (3, "indicator.assemble_gram"),
    "indicator.GramSystem.dim": (3, None),
    "indicator._mode_numbers": (3, "indicator.assemble_gram"),
    "indicator._harmonic_basis": (3, "indicator.assemble_gram"),
    "indicator._basis_gram": (3, "indicator.assemble_gram"),
    "indicator._truncated_eigh": (3, "indicator.sup_indicator"),
    "indicator.sup_indicator": (3, None),
    "checks.required_enclosure_order": (3, None),
    # Item 5: the slope diagnostic and the fit's boundary data.
    "indicator.log_slope": (5, "indicator.blow_up_diagnostic"),
    "indicator.blow_up_diagnostic": (5, None),
    "indicator.RungeFit.g": (5, None),
    # Item 17: the harmonic lift.
    "harmonic.dirichlet_disk_solve": (17, None),
}

# Runs in a fresh interpreter: the profile is set before nrtlab loads, so
# module-level calls count too.  Prints each called code object's
# (file, name, first line); a decorated function starts at its first
# decorator, and co_qualname is not used, as Python 3.10 lacks it.
CALL_TRACE = """
import io, json, os, sys
from contextlib import redirect_stdout

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
import nrtlab.cli

with redirect_stdout(io.StringIO()):
    codes = [nrtlab.cli.main([command, "--out", sys.argv[1]]) for command in sys.argv[2:]]
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted((os.path.realpath(c.co_filename), c.co_name, c.co_firstlineno) for c in called)}))
"""


def defined_functions(package: Path) -> dict:
    """(file, name, first line) -> module.qualified.name of every def in package/*.py."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), child.name, first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        path = path.resolve()
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def test_src_holds_only_the_program_and_what_perfbench_names(tmp_path):
    import nrtlab.cli

    package = Path(nrtlab.cli.__file__).resolve().parent
    commands = ["verify-identity", "indicator", "runge", "sign-map", "enclosure"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CALL_TRACE, str(tmp_path), *commands],
                          capture_output=True, text=True, check=True, env=env)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(commands)
    called = {tuple(entry) for entry in result["called"]}
    defined = defined_functions(package)
    uncalled = {name for key, name in defined.items() if key not in called}
    assert uncalled == set(OFF_THE_PROGRAM_PATH)

    perfbench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    for name, (item, via) in OFF_THE_PROGRAM_PATH.items():
        assert item in (3, 5, 17), name
        if via is not None:
            assert OFF_THE_PROGRAM_PATH[via][1] is None, name
            continue
        # A function is named in perfbench; a method or property is read off a result.
        _, *owner, attr = name.split(".")
        pattern = rf"\.{attr}\b" if owner else rf"\b{attr}\b"
        assert re.search(pattern, perfbench), name
