"""End-to-end CLI runs: outputs, determinism and exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
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
from nrtlab import checks
from nrtlab.checks import MAX_TAU, enclosure_bound
from nrtlab.indicator import MAX_RUNGE_ORDER, MAX_SWEEP_ORDER

ALL_COMMANDS = ["verify-identity", "indicator", "runge", "sign-map", "enclosure"]
SWEEP_COLUMNS = "N_or_t,eps,value,verdict"


def read(path):
    return path.read_bytes()


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_default_run_passes_and_writes_outputs(tmp_path, command):
    # Every summary carries the status that main decides, with or without --strict.
    for strict in (False, True):
        out = tmp_path / f"strict_{strict}"
        assert main([command, "--out", str(out)] + ["--strict"] * strict) == EXIT_OK
        for suffix in (".csv", ".json", ".svg"):
            target = out / f"{command}{suffix}"
            assert target.is_file() and target.stat().st_size > 0
        summary = json.loads((out / f"{command}.json").read_text())["summary"]
        assert summary["failures"] == [] and summary["soft_flags"] == []
        assert summary["strict"] is strict and summary["passed"] is True


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_outputs_are_byte_deterministic(tmp_path, command):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([command, "--out", str(out1)]) == EXIT_OK
    assert main([command, "--out", str(out2)]) == EXIT_OK
    for suffix in (".csv", ".json", ".svg"):
        assert read(out1 / f"{command}{suffix}") == read(out2 / f"{command}{suffix}")


def test_json_payload_shape(tmp_path):
    out = tmp_path / "out"
    main(["indicator", "--out", str(out)])
    payload = json.loads((out / "indicator.json").read_text())
    assert set(payload) == {"experiment", "config", "summary"}
    assert payload["experiment"] == "indicator"
    assert "out_dir" not in payload["config"]
    assert payload["summary"]["passed"] is True
    verdicts = [entry["verdict"] for entry in payload["summary"]["regions"]]
    assert verdicts == ["Bounded", "BlowUp"]
    assert set(payload["summary"]["regions"][0]) == {"region", "expect", "verdict", "values", "growth_ratios", "limit_bound"}


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
    ("sign-map", {"sign_patch_radius": 1e100}),
    ("sign-map", {"sign_patch_radius": 1e300}),
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
    # Inside the ambient disk, but within validate_admissible's 1e-9 R margin.
    ("indicator", {"regions": [{"center": [1.5, 0], "radius": 0.4999999999}]}),
    ("indicator", {"regions": [{"shape": "square", "center": [0, 0], "radius": 1}]}),
    ("enclosure", {"tau_values": []}),
    # Subnormal: tau e^(-i phi) would lose bits that the sample's bound does not count.
    ("enclosure", {"tau_values": [5e-324]}),
    # An integer radius beyond 64 bits, which numpy's isfinite refuses; far outside the ambient disk.
    ("indicator", {"regions": [{"center": [0, 0], "radius": 2**64}]}),
]
FIELDS = {f.name for f in dataclasses.fields(cli.RunConfig)}


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
    # The slope diagnostic then has no curve to read.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["runge", "--config", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = json.loads((out / "runge.json").read_text())["summary"]
    assert summary["verdict"] == "undefined"
    first = summary["t_values"][0]
    assert any(line.startswith(f"t={first}: pairing") and "not positive" in line for line in summary["failures"])


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


def test_runge_pairings_do_not_depend_on_the_boundary_radius(tmp_path):
    # The pairing is -2 pi dx P(0) and the fit never uses R, so the run
    # passes even where the gap trace's R^-2 underflows (R > ~1e154).
    summaries = {}
    for radius in (2.0, 1e155, 1e300):
        path = tmp_path / f"cfg{radius:g}.json"
        path.write_text(json.dumps({"boundary_radius": radius}))
        out = tmp_path / f"out{radius:g}"
        assert main(["runge", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summaries[radius] = json.loads((out / "runge.json").read_text())["summary"]
    for radius in (1e155, 1e300):
        assert summaries[radius]["pairings"] == summaries[2.0]["pairings"]
        assert summaries[radius]["scaled_values"] == summaries[2.0]["scaled_values"]


def test_runge_json_holds_convergence_table(tmp_path):
    out = tmp_path / "out"
    assert main(["runge", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "runge.json").read_text())["summary"]
    rows = list(csv.DictReader(io.StringIO((out / "runge.csv").read_text())))
    assert [entry["t"] for entry in summary["convergence"]] == summary["t_values"]
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
    assert [float(row["N_or_t"]) for row in rows] == cli.RunConfig().t_values
    assert cli.RunConfig().runge_order == 32
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


def test_load_config_checks_every_field_once():
    assert list(cli.SCHEMA) == [f.name for f in dataclasses.fields(cli.RunConfig)]
    cfg = cli.load_config(None, {"eps": 1, "seed": 3})
    assert cfg.eps == 1.0 and isinstance(cfg.eps, float) and cfg.seed == 3
    assert cfg.t_values == [0.5, 0.25, 0.125] and cfg.orders == [4, 8, 16, 24, 32]


def test_indicator_with_every_value_inf_writes_finite_ticks(tmp_path):
    # eps near the float64 maximum sends every sup to inf, so nothing is
    # left to plot on the log axis.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"eps": 1e308}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "indicator.json").read_text())
    assert all(v == "inf" for region in payload["summary"]["regions"] for v in region["values"])
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
    assert blow_up["verdict"] == "BlowUp" and blow_up["values"] == ["inf"] * 3
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
    values = [json.loads((tmp_path / d / "indicator.json").read_text())["summary"]["regions"] for d in ("at2", "huge")]
    assert [r["verdict"] for r in values[0]] == [r["verdict"] for r in values[1]]
    for ref, got in zip(*values):
        np.testing.assert_allclose(got["values"], ref["values"], rtol=1e-15, atol=0.0)
    assert "Traceback" not in capsys.readouterr().err


def test_sign_map_row_count(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"y3_values": [0.2, 0.1], "sign_resolution": 41}))
    assert main(["sign-map", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = (out / "sign-map.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 41 * 41


def test_perturbed_pairing_fails(tmp_path, monkeypatch, capsys):
    # A gap trace off by 1% must fail the identity check, naming the worst case.
    gap_neumann_trace = cli.gap_neumann_trace
    monkeypatch.setattr(cli, "gap_neumann_trace", lambda u, R: gap_neumann_trace(u, R).scaled(1.01))
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
        # -2 pi dx P(0) times eps / (2 ||E_t||) overflows.
        {"eps": 1e308},
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


def test_strict_passes_on_two_orders(tmp_path):
    # The verdict is the origin's side of the disk, so two cutoff orders decide it.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"orders": [4, 8], "regions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.5}]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--strict", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "indicator.json").read_text())["summary"]["soft_flags"] == []


def test_origin_just_inside_a_near_tangent_disk_is_bounded(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": [{"center": [0.5, 0], "radius": 0.505, "expect": "Bounded"}]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--strict", "--out", str(out)]) == EXIT_OK
    (region,) = json.loads((out / "indicator.json").read_text())["summary"]["regions"]
    assert region["values"][-1] <= region["limit_bound"] < math.inf


def test_indicator_runs_on_tiny_disks(tmp_path, capsys):
    # rho^2 underflows below rho = 1.5e-162; the sweep works from log rho.
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
        assert verdicts == ["BlowUp", "refused", "Bounded", "BlowUp"]
        for region in summary["regions"]:
            if region["verdict"] == "Bounded":
                assert all(isinstance(v, float) for v in region["values"])
                assert region["values"][-1] <= region["limit_bound"] < math.inf
            elif region["verdict"] == "BlowUp":
                assert region["limit_bound"] == "inf"
    assert "Traceback" not in capsys.readouterr().err


def test_origin_on_boundary_region_is_refused(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": [{"shape": "disk", "center": [0.5, 0.0], "radius": 0.5}]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    body = (out / "indicator.csv").read_text()
    assert "refused" in body
    assert main(["indicator", "--config", str(config), "--strict", "--out", str(out)]) == EXIT_CHECK_FAILED


def test_all_regions_refused_still_writes_the_chart(tmp_path):
    # The chart is empty axes then, written over whatever an earlier run left.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": [{"center": [0.5, 0.0], "radius": 0.5}]}))
    out = tmp_path / "out"
    out.mkdir()
    (out / "indicator.svg").write_text("stale")
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["indicator.csv", "indicator.json", "indicator.svg"]
    assert (out / "indicator.svg").read_text().startswith("<svg")


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
