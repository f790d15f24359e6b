"""End-to-end CLI runs: outputs, determinism and exit codes."""

import builtins
import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nrtlab import cli
from nrtlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    MAX_IDENTITY_ORDER,
    MAX_IDENTITY_SAMPLES,
    MAX_REGIONS,
    MAX_SIGN_HEIGHTS,
    MAX_SIGN_RESOLUTION,
    MAX_T_VALUES,
    MAX_TAU_VALUES,
    main,
)
from nrtlab import checks, harmonic
from nrtlab.checks import MAX_TAU, enclosure_bound
from nrtlab.harmonic import BoundaryData
from nrtlab.indicator import MAX_RUNGE_ORDER, MAX_SWEEP_ORDER

ALL_COMMANDS = ["verify-identity", "indicator", "runge", "sign-map", "enclosure"]
SWEEP_COLUMNS = "N_or_t,eps,value,verdict"


def read(path):
    return path.read_bytes()


def indicator_values(out):
    """Each region's sweep values, in config order, read from indicator.csv."""
    n = len(json.loads((out / "indicator.json").read_text())["config"]["orders"])
    values = [float(row["value"]) for row in csv.DictReader(io.StringIO((out / "indicator.csv").read_text()))]
    return [values[i : i + n] for i in range(0, len(values), n)]


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_default_run_passes_and_writes_outputs(tmp_path, command):
    # Every summary carries the status that main decides: its failures and whether it passed.
    out = tmp_path / "out"
    assert main([command, "--out", str(out)]) == EXIT_OK
    for suffix in (".csv", ".json", ".svg"):
        target = out / f"{command}{suffix}"
        assert target.is_file() and target.stat().st_size > 0
    payload = json.loads((out / f"{command}.json").read_text())
    assert payload["summary"]["failures"] == [] and payload["summary"]["passed"] is True
    assert not {"soft_flags", "strict"} & (set(payload["summary"]) | set(payload["config"]))


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_outputs_are_byte_deterministic(tmp_path, command):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([command, "--out", str(out1)]) == EXIT_OK
    assert main([command, "--out", str(out2)]) == EXIT_OK
    for suffix in (".csv", ".json", ".svg"):
        assert read(out1 / f"{command}{suffix}") == read(out2 / f"{command}{suffix}")


# Each summary holds only the numbers that neither <name>.csv nor the
# config echo holds, plus the status keys failures and passed.
SUMMARY_KEYS = {
    "verify-identity": {"n_cases", "max_residual", "tolerance"},
    "indicator": {"regions"},
    "runge": {"certified_lower", "convergence", "verdict"},
    "sign-map": {"half_width", "per_height", "certificate", "certificate_margin"},
    "enclosure": {"phi"},
}


def test_json_payload_shape(tmp_path):
    out = tmp_path / "out"
    for command in ALL_COMMANDS:
        assert main([command, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / f"{command}.json").read_text())
        assert set(payload) == {"experiment", "config", "summary"}
        assert payload["experiment"] == command
        assert set(payload["config"]) == FIELDS - {"out_dir"}
        assert set(payload["summary"]) == SUMMARY_KEYS[command] | {"failures", "passed"}
        assert payload["summary"]["passed"] is True
    regions = json.loads((out / "indicator.json").read_text())["summary"]["regions"]
    assert [entry["verdict"] for entry in regions] == ["Bounded", "BlowUp"]
    assert all(set(entry) == {"region", "verdict", "limit_bound"} for entry in regions)
    per_height = json.loads((out / "sign-map.json").read_text())["summary"]["per_height"]
    assert all(
        set(entry) == {"y3", "center_value", "zero_radius_estimate", "predicted_zero_radius", "grid_step", "negative", "positive", "band"}
        for entry in per_height
    )


JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def json_leaves(value):
    """Every value nested in dicts and lists, containers included."""
    yield value
    children = value.values() if type(value) is dict else value if type(value) is list else ()
    for child in children:
        yield from json_leaves(child)


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_summary_and_config_echo_hold_only_json_types(tmp_path, command):
    # write_outputs converts no numpy scalar, so none may reach the JSON.
    cfg = cli.load_config(None, {"out_dir": str(tmp_path)})
    _, summary, failures, _ = cli.RUNNERS[command](cfg)
    assert failures == []
    for value in (*json_leaves(summary), *json_leaves(vars(cfg))):
        assert type(value) in JSON_TYPES, (command, type(value), value)


def test_indicator_summary_does_not_grow_with_the_orders(tmp_path):
    # The per-order values live in indicator.csv only, so no summary list
    # is longer than the number of regions.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"orders": list(range(1, MAX_SWEEP_ORDER + 1))}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "indicator.json").read_text())
    n_regions = len(payload["config"]["regions"])

    def lists(value):
        if isinstance(value, dict):
            for item in value.values():
                yield from lists(item)
        elif isinstance(value, list):
            yield value
            for item in value:
                yield from lists(item)

    assert max(len(found) for found in lists(payload["summary"])) == n_regions
    assert len(indicator_values(out)) == n_regions


def test_csv_headers(tmp_path):
    out = tmp_path / "out"
    for command in ("indicator", "runge", "enclosure", "sign-map"):
        main([command, "--out", str(out)])
    assert (out / "indicator.csv").read_text().splitlines()[0] == "region," + SWEEP_COLUMNS
    runge_header = (out / "runge.csv").read_text().splitlines()[0]
    assert runge_header == SWEEP_COLUMNS + (
        ",pairing,target,rel_err,pairing_bound,residual,probe_norm_G,zg_norm_G,zg_scaled_norm,log10_max_g"
    )
    assert (out / "enclosure.csv").read_text().splitlines()[0] == "tau,re,im,modulus,log_over_tau,closed_re,closed_im,rel_err,bound"
    assert (out / "sign-map.csv").read_text().splitlines()[0] == "y3,x1,x2,value"


def test_indicator_rows_carry_no_gram_columns(tmp_path):
    out = tmp_path / "out"
    assert main(["indicator", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO((out / "indicator.csv").read_text())))
    assert len(rows) == 2 * 5
    assert all(list(row) == ["region"] + SWEEP_COLUMNS.split(",") and row["value"] for row in rows)
    assert [row["N_or_t"] for row in rows[:5]] == ["4", "8", "16", "24", "32"]


# The computation each subcommand must not reach on a rejected config.
COMPUTE = {
    "indicator": "indicator_sweep",
    "enclosure": "enclosure_sweep",
    "sign-map": "sign_map",
    "runge": "runge_fit",
    "verify-identity": "gradient_identity",
}
CONFIG_ERRORS = [
    ("indicator", {"orders": ["x"]}),
    ("indicator", {"orders": [4, 8, 4]}),
    ("indicator", {"orders": [0, 4, 8]}),
    ("indicator", {"orders": [4, 8, MAX_SWEEP_ORDER + 1]}),
    ("indicator", {"eps": "nan"}),
    ("indicator", {"eps": "inf"}),
    ("indicator", {"boundary_radius": "nan"}),
    ("indicator", {"boundary_radius": "inf"}),
    ("enclosure", {"tau_values": [1, 2, 3, "x"]}),
    ("enclosure", {"tau_values": [1, 2, 3, "nan"]}),
    ("enclosure", {"tau_values": [1, 2, 3, "inf"]}),
    ("enclosure", {"tau_values": [1, 2, 3, 2 * MAX_TAU]}),
    ("enclosure", {"enclosure_phi": "nan"}),
    ("enclosure", {"enclosure_phi": "inf"}),
    ("sign-map", {"sign_resolution": 4}),
    ("sign-map", {"sign_half_width": "x"}),
    ("verify-identity", {"identity_samples": "5"}),
    ("runge", {"runge_order": "x"}),
    ("runge", {"runge_order": MAX_RUNGE_ORDER + 1}),
    ("sign-map", {"sign_resolution": 20001}),
    ("sign-map", {"sign_resolution": MAX_SIGN_RESOLUTION + 2}),
    ("sign-map", {"y3_values": [0.9 - 0.1 * k for k in range(MAX_SIGN_HEIGHTS + 1)]}),
    ("verify-identity", {"identity_samples": 100000000}),
    ("verify-identity", {"identity_samples": MAX_IDENTITY_SAMPLES + 1}),
    ("verify-identity", {"identity_max_order": 100000000}),
    ("verify-identity", {"identity_max_order": MAX_IDENTITY_ORDER + 1}),
    ("indicator", {"strict": "false"}),
    ("verify-identity", {"seed": 5.7}),
    ("verify-identity", {"seed": 1e30}),
    ("verify-identity", {"seed": -1}),
    ("indicator", {"regions": 5}),
    ("indicator", {"orders": [True, 8, 16]}),
    ("enclosure", {"tau_values": [True, 2, 3, 4]}),
    # Any finite positive patch certifies; past the float range or at zero it is refused.
    ("sign-map", {"sign_patch_radius": 10**400}),
    ("sign-map", {"sign_patch_radius": 0}),
    ("indicator", {"sign_resolution": 4}),
    ("runge", {"t_values": [0.5, 0.25, True]}),
    ("indicator", {"regions": [{"center": [0, 0], "radius": 0.5, "expect": ["Bounded"]}]}),
    ("indicator", {"regions": [{"center": [False, 0], "radius": 0.5}]}),
    ("indicator", {"eps": 10**400}),
    ("runge", {"t_values": [0.5 * 0.9**k for k in range(MAX_T_VALUES + 1)]}),
    ("indicator", {"regions": [{"center": [0.0, 0.0], "radius": 0.5}] * (MAX_REGIONS + 1)}),
    ("enclosure", {"tau_values": [1.0 + k for k in range(MAX_TAU_VALUES + 1)]}),
    # No longer a config field: an unknown key.
    ("verify-identity", {"pairing_perturbation": 1.01}),
    # Touches the ambient circle r = R exactly: |c| + rho = 2.
    ("indicator", {"regions": [{"center": [1.5, 0], "radius": 0.5}]}),
    ("indicator", {"regions": [{"shape": "square", "center": [0, 0], "radius": 1}]}),
    ("enclosure", {"tau_values": []}),
    # Subnormal: tau e^(-i phi) would lose bits that the sample's bound does not count.
    ("enclosure", {"tau_values": [5e-324]}),
    # An integer radius beyond 64 bits, which numpy's isfinite refuses; far outside the ambient disk.
    ("indicator", {"regions": [{"center": [0, 0], "radius": 2**64}]}),
    # The origin lies exactly on the circle, where the sweep has no verdict.
    ("indicator", {"regions": [{"center": [0.5, 0], "radius": 0.5}]}),
    # No sweep returns Inconclusive, so no region may expect it.
    ("indicator", {"regions": [{"center": [0, 0], "radius": 0.5, "expect": "Inconclusive"}]}),
    # A misspelt key would drop the check it names.
    ("indicator", {"regions": [{"center": [0, 0], "radius": 0.5, "expct": "BlowUp"}]}),
    # A Runge region has one verdict, BlowUp, so it takes no "expect".
    ("runge", {"runge_region": {"center": [1.3, 0], "radius": 0.25, "expect": "Bounded"}}),
    # 2 pi / t overflows the float64 range below t = 3.5e-308.
    ("runge", {"t_values": [3e-308, 2e-308, 1.5e-308]}),
]
FIELDS = set(cli.FIELDS)


@pytest.mark.parametrize("command,config", CONFIG_ERRORS, ids=[f"config{i}" for i in range(len(CONFIG_ERRORS))])
def test_indicator_config_errors_exit_2_before_any_sweep(tmp_path, monkeypatch, capsys, command, config):
    def no_compute(*args, **kwargs):
        raise AssertionError("a rejected config must not reach the computation")

    monkeypatch.setattr(cli, COMPUTE[command], no_compute)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    key = next(iter(config))
    expected = f"config error: {key}" if key in FIELDS else f"config error: unknown config keys [{key!r}]"
    assert err.startswith(expected) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [{"t_values": [1e-300, 1e-301, 1e-302]}, {"boundary_radius": 1e10}, {"t_values": [1e-100, 1e-101, 1e-102]}],
)
def test_runge_fit_out_of_float_range_is_config_error(tmp_path, capsys, config):
    # These configs once overflowed the fit (R^n lift, t near the float
    # floor).  The boundary fit never forms R^n, so R = 1e10 passes; at t
    # far below the fit's resolution the pairing is uncertified and the
    # run fails its check with the bound in the message, with no traceback.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["runge", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "config error" not in captured.err
    rows = list(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    if "boundary_radius" in config:
        assert code == EXIT_OK
        assert all(float(row["rel_err"]) <= 1e-5 for row in rows)
    else:
        assert code == EXIT_CHECK_FAILED
        assert f"t={config['t_values'][0]}: pairing" in captured.out and "certified bound" in captured.out
        assert all(float(row["pairing_bound"]) >= 1.0 for row in rows)


@pytest.mark.parametrize(
    "config",
    [
        # At order 16 the fit cannot resolve a ball of radius 5e-21, and its pairings come out negative.
        {"t_values": [1e-20, 1e-21, 1e-22], "runge_order": 16},
        # At order 1 the fit is far too coarse for every default t.
        {"runge_order": 1},
    ],
)
def test_runge_nonpositive_pairing_is_a_failed_check(tmp_path, capsys, config):
    # The pairing misses 2 pi / t, and its certified bound is not below 1,
    # so no t has a proven lower bound and the verdict is undefined.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["runge", "--config", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    payload = json.loads((out / "runge.json").read_text())
    summary = payload["summary"]
    assert summary["verdict"] == "undefined"
    first = payload["config"]["t_values"][0]
    row = next(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    assert float(row["pairing"]) <= 0.0 and summary["certified_lower"][0] <= 0.0
    assert any(line.startswith(f"t={first}: pairing") and "misses 2 pi / t" in line for line in summary["failures"])
    assert any(line.startswith(f"t={first}: pairing") and "above the run's accuracy target 0.01" in line
               for line in summary["failures"])
    assert any(line.startswith(f"t={first}: certified bound") and "not below 1" in line for line in summary["failures"])


# The runge.csv columns that eps does not enter.
RUNGE_EPS_FREE = ["N_or_t", "pairing", "target", "rel_err", "pairing_bound", "residual", "probe_norm_G", "zg_norm_G",
                  "log10_max_g"]


def runge_rows_at(tmp_path, eps):
    """The default runge's CSV rows at eps, after checking that it exits 0."""
    out = tmp_path / repr(eps)
    assert main(["runge", "--eps", repr(eps), "--out", str(out)]) == EXIT_OK, eps
    return list(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))


def test_runge_lift_check_does_not_read_eps(tmp_path):
    # The lift obeys ||z_g|| <= eps exactly when ||P||_G <= 2 ||E_t||_G, so
    # the fits that pass at eps 1e-3 pass at every eps, down to the
    # smallest subnormal, where the scaled columns keep no digits.
    columns = []
    for eps in (5e-324, 1e-323, 1e-300, 1e-3, 1.0, 1e300):
        columns.append([[row[name] for name in RUNGE_EPS_FREE] for row in runge_rows_at(tmp_path, eps)])
    assert all(c == columns[0] for c in columns)


def test_runge_writes_overflowed_scaled_data_as_inf(tmp_path, capsys):
    # No check reads the eps-scaled value and zg_scaled_norm, so where their
    # products overflow they are written as inf and the run passes, up to
    # the largest finite eps, with the eps-free columns of eps 1e-3.
    rows = {eps: runge_rows_at(tmp_path, eps) for eps in (1e-3, 1e306, 1e307, 1e308, sys.float_info.max)}
    expected = [[row[name] for name in RUNGE_EPS_FREE] for row in rows[1e-3]]
    for eps, got in rows.items():
        assert [[row[name] for name in RUNGE_EPS_FREE] for row in got] == expected, eps
    assert all(math.isfinite(float(row["value"])) for row in rows[1e306])
    assert [row["value"] for row in rows[1e308]] == ["inf"] * len(rows[1e308])
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("rel,code", [(1e-9, EXIT_CHECK_FAILED), (-1e-9, EXIT_OK)])
def test_runge_lift_just_outside_the_constraint_fails(tmp_path, monkeypatch, rel, code):
    # A lift norm a relative 1e-9 above 2 ||E_t||_G leaves the constraint,
    # one 1e-9 below keeps to it: the check's rounding margin is far smaller.
    real_fit = cli.runge_fit

    def moved(*args):
        fit = real_fit(*args)
        return dataclasses.replace(fit, zg_norm_on_G=2.0 * fit.norm_on_G * (1.0 + rel))

    monkeypatch.setattr(cli, "runge_fit", moved)
    out = tmp_path / "out"
    assert main(["runge", "--out", str(out)]) == code
    summary = json.loads((out / "runge.json").read_text())["summary"]
    if code == EXIT_OK:
        assert summary["failures"] == []
    else:
        t_values = cli.FIELDS["t_values"][0]
        assert [line.split(": lift norm ||P||_G = ")[0] for line in summary["failures"]] == [f"t={t}" for t in t_values]
        assert all(line.endswith("so the lift leaves the constraint ||z_g||_H1(G) <= eps") for line in summary["failures"])
    assert summary["verdict"] == "BlowUp"


def test_runge_certified_lower_bound_at_the_defaults(tmp_path):
    # Each pairing is proven within pairing_bound of 2 pi / t, so
    # (1 - pairing_bound) 2 pi / t bounds it from below.
    out = tmp_path / "out"
    assert main(["runge", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "runge.json").read_text())
    summary = payload["summary"]
    rows = list(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    assert summary["verdict"] == "BlowUp"
    for t, lower, row in zip(payload["config"]["t_values"], summary["certified_lower"], rows, strict=True):
        bound, pairing = float(row["pairing_bound"]), float(row["pairing"])
        assert bound < 1.0
        assert lower == (1.0 - bound) * (2.0 * np.pi / t)
        assert 0.0 < lower <= pairing


def test_runge_certifies_the_pairing_at_t_1e_20(tmp_path, capsys):
    # The fit matches the ball's Taylor coefficients directly, so at the
    # default order 32 it still resolves a ball of radius 5e-21: the
    # pairing is within its certified bound, and that bound is below 1.
    # The two smaller t still miss 2 pi / t by more than the check allows.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"t_values": [1e-20, 1e-21, 1e-22]}))
    out = tmp_path / "out"
    assert main(["runge", "--config", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
    assert "Traceback" not in capsys.readouterr().err
    first = next(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    assert float(first["N_or_t"]) == 1e-20
    assert 0.0 < float(first["pairing"])
    assert float(first["rel_err"]) <= float(first["pairing_bound"]) < 1.0
    summary = json.loads((out / "runge.json").read_text())["summary"]
    assert not any(line.startswith("t=1e-20") for line in summary["failures"])


@pytest.mark.filterwarnings("error")
def test_runge_pairings_do_not_depend_on_the_boundary_radius(tmp_path):
    # The pairing is -2 pi dx P(0) and the fit never uses R, so the run
    # passes even where the gap trace's R^-2 underflows (R > ~1e154), up
    # to float max, where R dx P(0) and |R e^{i theta}| overflow.
    configs, rows = {}, {}
    radii = (2.0, 1e155, 1e300, sys.float_info.max)
    for radius in radii:
        path = tmp_path / f"cfg{radius:g}.json"
        path.write_text(json.dumps({"boundary_radius": radius}))
        out = tmp_path / f"out{radius:g}"
        assert main(["runge", "--config", str(path), "--out", str(out)]) == EXIT_OK
        configs[radius] = json.loads((out / "runge.json").read_text())["config"]
        rows[radius] = list(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    for radius in radii[1:]:
        for column in ("pairing", "value"):
            assert [float(row[column]) for row in rows[radius]] == [float(row[column]) for row in rows[2.0]]
    # Far out, log10 max |P| on r = R grows by N = 32 per decade of R.
    order = configs[2.0]["runge_order"]
    for top, below in zip(rows[sys.float_info.max], rows[1e300], strict=True):
        assert math.isfinite(float(top["log10_max_g"]))
        growth = float(top["log10_max_g"]) - float(below["log10_max_g"])
        np.testing.assert_allclose(growth, order * math.log10(sys.float_info.max / 1e300), rtol=1e-9)


def test_runge_json_holds_convergence_table(tmp_path):
    out = tmp_path / "out"
    assert main(["runge", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "runge.json").read_text())
    summary = payload["summary"]
    rows = list(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    assert [entry["t"] for entry in summary["convergence"]] == payload["config"]["t_values"]
    for entry, row in zip(summary["convergence"], rows, strict=True):
        assert entry["orders"] == [8, 16, 24, 32]
        assert len(entry["rel_err"]) == len(entry["pairing_bound"]) == len(entry["residual"]) == 4
        assert all(err <= bound for err, bound in zip(entry["rel_err"], entry["pairing_bound"]))
        assert entry["rel_err"][-1] == float(row["rel_err"]) and entry["residual"][-1] == float(row["residual"])
        assert entry["rel_err"][-1] < entry["rel_err"][0] and entry["residual"][-1] < entry["residual"][0]


def test_runge_default_ts_within_1e_5_at_order_32(tmp_path):
    out = tmp_path / "out"
    assert main(["runge", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    assert [float(row["N_or_t"]) for row in rows] == cli.FIELDS["t_values"][0]
    assert cli.FIELDS["runge_order"][0] == 32
    assert all(float(row["rel_err"]) <= 1e-5 for row in rows)


def test_unwritable_out_dir_is_config_error(tmp_path, monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("an unusable out_dir must be refused before any computation")

    monkeypatch.setattr(cli, "enclosure_sweep", no_compute)
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile / "x", afile):
        assert main(["enclosure", "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir") and "Traceback" not in err


def test_out_dir_that_cannot_be_created_is_config_error(tmp_path, monkeypatch, capsys):
    # The path passes _out_dir's check, as /proc/x/y does for root, but
    # creating it fails after the run: exit 2, no traceback, no file.
    out = tmp_path / "out"
    real_mkdir = Path.mkdir

    def refuse(self, *args, **kwargs):
        if self == out:
            raise PermissionError(13, "Permission denied", str(self))
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", refuse)
    assert main(["enclosure", "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: out_dir") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def faulty_write(monkeypatch, out, fail_at):
    """Count the os.mkdir, open and os.replace calls on paths under out; the fail_at-th raises OSError."""
    calls = []
    for module, name in ((os, "mkdir"), (builtins, "open"), (os, "replace")):
        def call(path, *args, real=getattr(module, name), name=name, **kwargs):
            if isinstance(path, (str, os.PathLike)) and (Path(path) == out or out in Path(path).parents):
                calls.append((name, Path(path)))
                if len(calls) == fail_at:
                    raise OSError(28, "No space left on device", str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(module, name, call)
    return calls


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_a_failed_write_exits_2_and_moves_no_file_it_did_not_finish(tmp_path, monkeypatch, capsys, command):
    # Each file-system call of the write fails in turn, on an out_dir that
    # holds an earlier run's files.  The runner's result is computed once
    # and reused, since only the write is under test.
    result = cli.RUNNERS[command](cli.load_config(None, {}))
    monkeypatch.setitem(cli.RUNNERS, command, lambda cfg: result)
    names = [f"{command}{suffix}" for suffix in (".csv", ".json", ".svg")]
    old = {name: f"earlier {name}\n".encode() for name in names}

    def run(fail_at):
        out = tmp_path / f"out{fail_at}"
        out.mkdir()
        for name, data in old.items():
            (out / name).write_bytes(data)
        with monkeypatch.context() as patch:
            calls = faulty_write(patch, out, fail_at)
            code = main([command, "--out", str(out)])
        err = capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == sorted(names)
        return out, code, err, calls, {name: (out / name).read_bytes() for name in names}

    out, code, err, calls, new = run(0)
    assert code == EXIT_OK and err == ""
    # out_dir, the staging directory, the three files, then the renames in write order.
    assert [name for name, _ in calls] == ["mkdir", "mkdir"] + ["open"] * 3 + ["replace"] * 3
    assert calls[0][1] == out and [path.name for name, path in calls[-3:]] == names
    for fail_at in range(1, len(calls) + 1):
        out, code, err, _, files = run(fail_at)
        if fail_at == 1:
            # A failed mkdir of the existing out_dir is absorbed by exist_ok.
            assert code == EXIT_OK and err == "" and files == new
            continue
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith(f"config error: out_dir {str(out)!r} cannot be written: ") and err.count("\n") == 1
        moved = [path.name for name, path in calls[: fail_at - 1] if name == "replace"]
        assert files == {name: new[name] if name in moved else old[name] for name in names}


def test_a_directory_in_place_of_an_output_file_is_config_error(tmp_path, capsys):
    # Refused before any file moves: runge.csv keeps its bytes and nothing is created.
    out = tmp_path / "out"
    (out / "runge.json").mkdir(parents=True)
    (out / "runge.csv").write_text("earlier\n")
    assert main(["runge", "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: out_dir") and str(out / "runge.json") in err and err.count("\n") == 1
    assert sorted(path.name for path in out.iterdir()) == ["runge.csv", "runge.json"]
    assert (out / "runge.csv").read_text() == "earlier\n" and list((out / "runge.json").iterdir()) == []


def test_load_config_checks_every_field_once():
    assert list(vars(cli.load_config(None, {}))) == list(cli.FIELDS)
    cfg = cli.load_config(None, {"eps": 1, "seed": 3})
    assert cfg.eps == 1.0 and isinstance(cfg.eps, float) and cfg.seed == 3
    assert cfg.t_values == [0.5, 0.25, 0.125] and cfg.orders == [4, 8, 16, 24, 32]


def test_loaded_configs_share_no_defaults():
    # A run that alters its config leaves the next load's defaults as they were.
    cfg = cli.load_config(None, {})
    cfg.regions[0]["radius"] = 0.75
    cfg.orders.append(64)
    fresh = cli.load_config(None, {})
    assert fresh.regions[0]["radius"] == 0.5 and fresh.orders == [4, 8, 16, 24, 32]
    for name, (default, check) in cli.FIELDS.items():
        before = copy.deepcopy(default)
        checked = check(default, name)
        assert checked == before == default and type(checked) is type(default), name


def test_readme_field_table_lists_every_field_and_its_default():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| field | type | default |"):]
    rows = [line.split("|")[1:-1] for line in itertools.takewhile(lambda line: line.startswith("|"), table.splitlines()[2:])]
    names = [cells[0].strip().strip("`") for cells in rows]
    assert names == list(cli.FIELDS)
    # Defaults too long for a cell sit in the first JSON block under the table.
    below = json.loads(re.search(r"```json\n(.*?)\n```", table, re.S).group(1))
    assert set(below) == {name for name, cells in zip(names, rows) if cells[2].strip() == "below"}
    for name, cells in zip(names, rows):
        cell = cells[2].strip()
        value = below[name] if cell == "below" else json.loads(cell.strip("`"))
        # Compared as JSON text, so 2 and 2.0 differ.
        assert json.dumps(value) == json.dumps(cli.FIELDS[name][0]), name


def test_indicator_with_every_value_inf_writes_finite_ticks(tmp_path):
    # eps near the float64 maximum sends every sup to inf, so nothing is
    # left to plot on the log axis.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"eps": 1e308}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert all(v == math.inf for values in indicator_values(out) for v in values)
    assert "nan" not in (out / "indicator.svg").read_text()


def test_indicator_runs_at_the_order_cap(tmp_path):
    # Off the origin I_N has left the float64 range by N = 1000; the
    # values are written as inf and the verdict still comes out.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"orders": [1000, 1012, MAX_SWEEP_ORDER]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "indicator.json").read_text())
    bounded, blow_up = payload["summary"]["regions"]
    assert blow_up["verdict"] == "BlowUp" and indicator_values(out)[1] == [math.inf] * 3
    assert bounded["verdict"] == "Bounded"


@pytest.mark.parametrize(
    "command,config",
    [
        ("sign-map", {"sign_resolution": MAX_SIGN_RESOLUTION, "y3_values": [0.2]}),
        ("verify-identity", {"identity_samples": MAX_IDENTITY_SAMPLES, "identity_max_order": 1}),
        ("verify-identity", {"identity_samples": 1, "identity_max_order": MAX_IDENTITY_ORDER}),
        ("runge", {"runge_order": MAX_RUNGE_ORDER}),
        ("runge", {"t_values": [0.5 * 0.8**k for k in range(MAX_T_VALUES)]}),
        ("indicator", {"regions": [{"center": [0.0, 0.0], "radius": 0.5}] * MAX_REGIONS}),
        ("enclosure", {"tau_values": [1.0 + k for k in range(MAX_TAU_VALUES)]}),
    ],
)
def test_runs_at_the_caps(tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "config",
    [
        {"y3_values": [1e-200]},
        {"y3_values": [1e200]},
        {"sign_half_width": 1e200},
        # The kernel's d^5 overflows on the grid; at 1e308 the grid's own span does.
        {"sign_half_width": 1e100},
        {"sign_half_width": 1e308},
    ],
)
def test_sign_map_non_finite_kernel_is_config_error(tmp_path, capsys, config):
    # sign_map runs under a floating-point trap, so the overflow is refused
    # where it happens instead of leaving nan in the grid or the zero estimate.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["sign-map", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


def enclosure_rows(out):
    return list(csv.DictReader(io.StringIO((out / "enclosure.csv").read_text())))


def test_enclosure_tau_tie_at_rounding_level_passes(tmp_path):
    # 3 and the next float give log|I|/tau values float64 cannot order;
    # each sample is checked against its own bound, so nothing has to.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tau_values": [1, 2, 3, 3.0000000000000004]}))
    out = tmp_path / "out"
    assert main(["enclosure", "--config", str(config), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "enclosure.json").read_text())["summary"]
    assert "fitted_limit" not in summary and "limit_bar" not in summary
    assert all(float(row["rel_err"]) <= float(row["bound"]) for row in enclosure_rows(out))


# At 4.4e-23 the one chart point has log_over_tau = -1.1e24, where a unit axis span rounds away.
@pytest.mark.parametrize("tau", [7.0, 4.4288208124554194e-23])
def test_enclosure_runs_on_a_single_tau(tmp_path, tau):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tau_values": [tau]}))
    out = tmp_path / "out"
    assert main(["enclosure", "--config", str(config), "--out", str(out)]) == EXIT_OK
    (row,) = enclosure_rows(out)
    assert float(row["tau"]) == tau and float(row["bound"]) == enclosure_bound(tau, 2.0)
    assert "nan" not in (out / "enclosure.svg").read_text()


def test_enclosure_sample_off_by_ten_bounds_fails(tmp_path, monkeypatch, capsys):
    # One sample scaled by 1 + 10 beta lies at least 9 beta from the closed form.
    exact = checks.enclosure_indicator
    bad = 20.0

    def perturbed(tau, phi, boundary_radius):
        value = exact(tau, phi, boundary_radius)
        return value * (1.0 + 10.0 * enclosure_bound(tau, boundary_radius)) if tau == bad else value

    monkeypatch.setattr(checks, "enclosure_indicator", perturbed)
    out = tmp_path / "out"
    assert main(["enclosure", "--out", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert [line for line in captured.out.splitlines() if line.startswith("  failure:")] == [
        f"  failure: tau={bad}: quadrature differs from -2 pi tau e^(-i phi) by rel "
        + f"{float(enclosure_rows(out)[2]['rel_err']):.2e}, above its bound {enclosure_bound(bad, 2.0):.2e}"
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e155, 1e300, sys.float_info.max])
def test_enclosure_and_indicator_run_at_huge_radius(tmp_path, capsys, radius):
    # R**2, R**(n+1) and 2 pi R would overflow here; no subcommand below forms them.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"enclosure_phi": 0.7}))
    out = tmp_path / "out"
    assert main(["enclosure", "--config", str(config), "--R", repr(radius), "--out", str(out)]) == EXIT_OK
    rows = enclosure_rows(out)
    assert rows
    for row in rows:
        tau = float(row["tau"])
        closed = -2.0 * np.pi * tau * np.exp(-0.7j)
        bound = enclosure_bound(tau, radius)
        assert float(row["bound"]) == bound
        # The row's closed form rounds differently from this one, by a few units of u.
        assert abs(complex(float(row["re"]), float(row["im"])) - closed) <= (bound + 4e-16) * abs(closed)

    identity = tmp_path / "identity"
    assert main(["verify-identity", "--R", repr(radius), "--out", str(identity)]) == EXIT_OK
    summary = json.loads((identity / "verify-identity.json").read_text())["summary"]
    assert summary["passed"] is True and summary["max_residual"] <= summary["tolerance"]

    assert main(["indicator", "--out", str(tmp_path / "at2")]) == EXIT_OK
    assert main(["indicator", "--R", repr(radius), "--out", str(tmp_path / "huge")]) == EXIT_OK
    regions = [json.loads((tmp_path / d / "indicator.json").read_text())["summary"]["regions"] for d in ("at2", "huge")]
    assert [r["verdict"] for r in regions[0]] == [r["verdict"] for r in regions[1]]
    for ref, got in zip(*(indicator_values(tmp_path / d) for d in ("at2", "huge")), strict=True):
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)
    assert "Traceback" not in capsys.readouterr().err


def test_sign_map_row_count(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"y3_values": [0.2, 0.1], "sign_resolution": 41}))
    assert main(["sign-map", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = (out / "sign-map.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 41 * 41
    per_height = json.loads((out / "sign-map.json").read_text())["summary"]["per_height"]
    assert [h["negative"] + h["positive"] + h["band"] for h in per_height] == [41 * 41] * 2


@pytest.mark.filterwarnings("error")
def test_huge_sign_patch_radius_is_a_valid_run(tmp_path):
    # The certificate compares the patch with sqrt(2) max(y3) and samples
    # no kernel, so a patch of any finite radius certifies.
    for patch in (1e100, 1e300):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sign_patch_radius": patch}))
        out = tmp_path / f"out{patch:g}"
        assert main(["sign-map", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "sign-map.json").read_text())["summary"]
        assert summary["certificate"] is True
        assert summary["certificate_margin"] == patch - math.sqrt(2.0) * 0.2


def test_sign_map_certifies_a_rounding_tie(tmp_path):
    # fl(1 / sqrt(2)) is below 1 / sqrt(2), so the patch of radius 1 certifies,
    # though 1 - sqrt(2) fl(1 / sqrt(2)) rounds to 0.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"y3_values": [0.7071067811865475], "sign_patch_radius": 1.0}))
    out = tmp_path / "out"
    assert main(["sign-map", "--config", str(path), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "sign-map.json").read_text())["summary"]
    assert summary["certificate"] is True and summary["certificate_margin"] > 0.0


def test_sign_map_fails_on_a_moved_zero_circle(tmp_path, monkeypatch, capsys):
    # A kernel whose zero circle sits a relative 1e-3 outside sqrt(2) y3
    # is negative on the cells between the two circles.
    kernel = checks.probe_kernel
    monkeypatch.setattr(checks, "probe_kernel", lambda x1, x2, y3: kernel(x1, x2, y3 * (1.0 + 1e-3)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"y3_values": [0.2], "sign_resolution": 401}))
    out = tmp_path / "out"
    assert main(["sign-map", "--config", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
    (failure,) = json.loads((out / "sign-map.json").read_text())["summary"]["failures"]
    assert failure.startswith("y3=0.2: ") and "cells differ in sign" in failure and "np.float64" not in failure
    assert f"failure: {failure}" in capsys.readouterr().out


def test_verify_identity_builds_no_lift(tmp_path, monkeypatch):
    # The gradient side is a closed form: the run must pass with every
    # binding of the lift solver refusing to run.
    solve = harmonic.dirichlet_disk_solve

    def refuse(*args, **kwargs):
        raise AssertionError("verify-identity built a harmonic lift")

    for name, module in list(sys.modules.items()):
        if name == "nrtlab" or name.startswith("nrtlab."):
            for attr, value in list(vars(module).items()):
                if value is solve:
                    monkeypatch.setattr(module, attr, refuse)
    assert main(["verify-identity", "--out", str(tmp_path / "out")]) == EXIT_OK


def test_perturbed_pairing_fails(tmp_path, monkeypatch, capsys):
    # A gap trace off by 1% must fail the identity check, naming the worst case.
    gap_neumann_trace = cli.gap_neumann_trace

    def perturbed(u, R):
        w = gap_neumann_trace(u, R)
        return BoundaryData(w.cos_coeff * 1.01, w.sin_coeff * 1.01)

    monkeypatch.setattr(cli, "gap_neumann_trace", perturbed)
    out = tmp_path / "out"
    code = main(["verify-identity", "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    payload = json.loads((out / "verify-identity.json").read_text())
    assert payload["summary"]["passed"] is False
    assert payload["summary"]["max_residual"] > 1e-3
    assert payload["summary"]["failures"]
    rows = list(csv.DictReader(io.StringIO((out / "verify-identity.csv").read_text())))
    worst = max(rows, key=lambda row: float(row["residual"]))["case"]
    assert f"  failure: case {worst}: residual" in capsys.readouterr().out


def test_unknown_config_key_is_config_error(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert main(["indicator", "--config", str(config)]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("indicator", {"regions": [{"center": [0, 0], "radius": 0.5}, {"center": [1.3, 0], "radius": 0.25, "x": 1, "a": 2}]},
         "regions[1] has unknown keys ['a', 'x']; known keys are ['center', 'expect', 'radius', 'shape']"),
        ("runge", {"runge_region": {"center": [1.3, 0], "radius": 0.25, "expect": "BlowUp"}},
         "runge_region has unknown keys ['expect']; known keys are ['center', 'radius', 'shape']"),
    ],
)
def test_region_unknown_key_names_the_object_and_its_keys(tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["indicator", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR


def test_malformed_json_is_config_error(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert main(["enclosure", "--config", str(config)]) == EXIT_CONFIG_ERROR


def test_region_outside_ambient_is_config_error(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": [{"shape": "disk", "center": [1.9, 0.0], "radius": 0.5}]}))
    assert main(["indicator", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize(
    "region,t_values",
    [
        # t e1 exactly outside the cavity, where the rounded |c - t| equals rho.
        ({"center": [0.75, 0.0], "radius": 0.6499999999999999}, [0.10000000000000003, 0.05, 0.025]),
        # |c - t| / rho = 1 + 2^-50 at t = 0.5.
        ({"center": [0.5 + 0.25 * (1.0 + 2.0**-50), 0.0], "radius": 0.25}, [0.5, 0.25, 0.125]),
    ],
)
def test_runge_next_to_tangency_runs_without_traceback(tmp_path, capsys, region, t_values):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"runge_region": region, "t_values": t_values}))
    assert main(["runge", "--config", str(config), "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert "Traceback" not in capsys.readouterr().err


def test_runge_geometry_violation_is_config_error(tmp_path):
    # Cavity meets the closed ball of radius t = 0.5 about the origin.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"runge_region": {"shape": "disk", "center": [0.4, 0.0], "radius": 0.3}}))
    assert main(["runge", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize(
    "config",
    [
        # The probe's H1 norm on a region this small underflows to 0.
        {"runge_region": {"center": [1.3, 0.0], "radius": 1e-300}},
        {"runge_region": {"center": [1.3, 0.0], "radius": 1e-200}},
    ],
)
def test_runge_scaled_data_out_of_float_range_is_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["runge", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: t_values[0]=0.5 with eps=") and "runge_region=" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_expect_mismatch_fails(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"regions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.5, "expect": "BlowUp"}]})
    )
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_CHECK_FAILED
    payload = json.loads((out / "indicator.json").read_text())
    assert payload["summary"]["failures"]


def test_two_orders_pass(tmp_path):
    # The verdict is the origin's side of the disk, so two cutoff orders decide it.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"orders": [4, 8], "regions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.5}]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "indicator.json").read_text())["summary"]
    assert summary["failures"] == [] and summary["regions"][0]["verdict"] == "Bounded"


def test_origin_just_inside_a_near_tangent_disk_is_bounded(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": [{"center": [0.5, 0], "radius": 0.505, "expect": "Bounded"}]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    (region,) = json.loads((out / "indicator.json").read_text())["summary"]["regions"]
    (values,) = indicator_values(out)
    assert values[-1] <= region["limit_bound"] < math.inf


def test_indicator_runs_on_tiny_disks(tmp_path, capsys):
    # rho^2 underflows below rho = 1.5e-162; the sweep works from log rho.
    # Each centred disk holds the origin at its centre, so it sweeps Bounded.
    regions = [
        {"center": [0.5, 0], "radius": 1e-170},
        {"center": [0, 0], "radius": 1e-170},
        {"center": [0, 0], "radius": 1e-8},
        {"center": [0.5, 0], "radius": 1e-300},
    ]
    config = tmp_path / "cfg.json"
    for orders in ([1], [4, 8, 16, 24, 32]):
        config.write_text(json.dumps({"regions": regions, "orders": orders}))
        out = tmp_path / f"out{len(orders)}"
        assert main(["indicator", "--config", str(config), "--out", str(out)]) in (EXIT_OK, EXIT_CHECK_FAILED)
        summary = json.loads((out / "indicator.json").read_text())["summary"]
        verdicts = [region["verdict"] for region in summary["regions"]]
        assert verdicts == ["BlowUp", "Bounded", "Bounded", "BlowUp"]
        for region, values in zip(summary["regions"], indicator_values(out), strict=True):
            if region["verdict"] == "Bounded":
                assert all(math.isfinite(v) for v in values)
                assert values[-1] <= region["limit_bound"] < math.inf
            elif region["verdict"] == "BlowUp":
                assert region["limit_bound"] == "inf"
    assert "Traceback" not in capsys.readouterr().err


def test_origin_on_boundary_region_is_refused(tmp_path, capsys):
    # A valid region first: the tangent one is refused before either is swept.
    regions = [{"center": [0.0, 0.0], "radius": 0.5}, {"shape": "disk", "center": [0.5, 0.0], "radius": 0.5}]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": regions}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: regions[1]: ") and "passes through the origin" in err
    assert not out.exists()


def test_all_regions_tangent_leaves_earlier_outputs_alone(tmp_path):
    # A refused config writes nothing, so an earlier run's files stay as they were.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": [{"center": [0.5, 0.0], "radius": 0.5}, {"center": [0.0, -0.25], "radius": 0.25}]}))
    out = tmp_path / "out"
    out.mkdir()
    (out / "indicator.svg").write_text("stale")
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert sorted(p.name for p in out.iterdir()) == ["indicator.svg"]
    assert (out / "indicator.svg").read_text() == "stale"


def test_uncertified_runge_verdict_fails_the_run(tmp_path, capsys):
    # At t = 1e-30 the fit cannot resolve the ball, and its bound is about
    # 1.77: that t has no proven lower bound, so the run does not confirm
    # the 2 pi / t blow-up and has failed its check.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"t_values": [0.5, 0.25, 1e-30]}))
    out = tmp_path / "out"
    assert main(["runge", "--config", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
    stdout = capsys.readouterr().out
    assert "  failure: t=1e-30: certified bound 1.77e+00 is not below 1, so the pairing has no proven lower bound" in stdout
    assert "note:" not in stdout
    summary = json.loads((out / "runge.json").read_text())["summary"]
    assert summary["verdict"] == "undefined" and summary["passed"] is False
    assert [line.split(":")[0] for line in summary["failures"]] == ["t=1e-30", "t=1e-30"]
    assert summary["certified_lower"][0] > 0.0 and summary["certified_lower"][1] > 0.0 and summary["certified_lower"][2] < 0.0


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_strict_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, "--strict", "--out", str(out)])
    assert info.value.code == 2  # argparse's usage error
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"strict": True}))
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: unknown config keys ['strict']")
    assert not out.exists()


def test_flag_overrides_reach_config_echo(tmp_path):
    out = tmp_path / "out"
    assert main(["verify-identity", "--R", "3.0", "--seed", "11", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "verify-identity.json").read_text())
    assert payload["config"]["boundary_radius"] == 3.0
    assert payload["config"]["seed"] == 11


def test_invalid_ambient_radius_is_config_error(tmp_path):
    assert main(["verify-identity", "--R", "0.5"]) == EXIT_CONFIG_ERROR


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def child_env():
    # A child process imports the nrtlab under test, wherever it was found.
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "nrtlab.cli", "enclosure", "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == EXIT_OK
    assert "PASS" in proc.stdout
    assert (out / "enclosure.json").is_file()


def test_cli_imports_numpy_only():
    code = "import sys, nrtlab.cli; print(sorted({'scipy', 'mpmath', 'hypothesis'} & {m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env())
    assert proc.stdout.strip() == "[]"


def test_runge_run_loads_no_fft(tmp_path):
    # The Runge fit takes E_t's Taylor coefficients in closed form, so a
    # whole default `python -m nrtlab.cli runge` never loads numpy.fft.
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['nrtlab.cli', 'runge', '--out', {str(tmp_path / 'out')!r}]\n"
        "try:\n"
        "    runpy.run_module('nrtlab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    print(done.code, 'numpy.fft' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env())
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"


def test_runge_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Pins the default configuration only: at runge_order 96 with eight
    # t_values the last digits of some columns move with the thread count.
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "nrtlab.cli", "runge", "--out", str(out)], capture_output=True, check=True, env=env)
        outputs.append([read(out / f"runge{suffix}") for suffix in (".csv", ".json", ".svg")])
    assert outputs[0] == outputs[1]


def test_sign_map_bytes_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # The kernel's d^5 is d^2 d^2 sqrt(d^2), whose bits no dispatched numpy
    # loop changes.  Each child turns off the host's highest dispatch
    # targets, as a CPU without them would have, and reports what it kept.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    code = (
        "import sys\n"
        "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
        "from nrtlab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*[name for name in __cpu_dispatch__ if __cpu_features__[name]])\n"
        "sys.exit(code)\n"
    )
    outputs = []
    for kept in range(len(enabled), -1, -1):
        out = tmp_path / str(kept)
        env = {**child_env(), "NPY_DISABLE_CPU_FEATURES": " ".join(enabled[kept:])}
        proc = subprocess.run([sys.executable, "-c", code, "sign-map", "--out", str(out)], capture_output=True, text=True, check=True, env=env)
        assert proc.stderr == "" and proc.stdout.splitlines()[-1].split() == enabled[:kept]
        outputs.append([read(out / f"sign-map{suffix}") for suffix in (".csv", ".json", ".svg")])
    assert all(output == outputs[0] for output in outputs)
