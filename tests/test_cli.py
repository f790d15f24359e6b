"""End-to-end CLI runs: outputs, determinism and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nrtlab import cli
from nrtlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    MAX_IDENTITY_ORDER,
    MAX_IDENTITY_SAMPLES,
    MAX_SIGN_HEIGHTS,
    MAX_SIGN_RESOLUTION,
    main,
)
from nrtlab.checks import MAX_TAU
from nrtlab.indicator import MAX_RUNGE_ORDER, MAX_SWEEP_ORDER

ALL_COMMANDS = ["verify-identity", "indicator", "runge", "sign-map", "enclosure"]
SWEEP_COLUMNS = "N_or_t,eps,value,cond_Q,discarded_share,verdict"


def read(path):
    return path.read_bytes()


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_default_run_passes_and_writes_outputs(tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "--out", str(out)]) == EXIT_OK
    for suffix in (".csv", ".json", ".svg"):
        target = out / f"{command}{suffix}"
        assert target.is_file() and target.stat().st_size > 0


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
    assert set(payload["summary"]["regions"][0]) == {"region", "expect", "verdict", "values", "growth_ratios"}


def test_csv_headers(tmp_path):
    out = tmp_path / "out"
    for command in ("indicator", "runge", "enclosure", "sign-map"):
        main([command, "--out", str(out)])
    assert (out / "indicator.csv").read_text().splitlines()[0] == "region," + SWEEP_COLUMNS
    runge_header = (out / "runge.csv").read_text().splitlines()[0]
    assert runge_header.startswith(SWEEP_COLUMNS)
    assert (out / "enclosure.csv").read_text().splitlines()[0].startswith("tau,re,im,modulus,log_over_tau")
    assert (out / "sign-map.csv").read_text().splitlines()[0] == "y3,x1,x2,value"


def test_indicator_rows_leave_gram_columns_empty(tmp_path):
    out = tmp_path / "out"
    assert main(["indicator", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO((out / "indicator.csv").read_text())))
    assert len(rows) == 2 * 5
    assert all(row["cond_Q"] == row["discarded_share"] == "" for row in rows)
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
]


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
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


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
    ],
)
def test_runs_at_the_caps(tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("config", [{"y3_values": [1e-200]}, {"y3_values": [1e200]}, {"sign_half_width": 1e200}])
def test_sign_map_non_finite_kernel_is_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["sign-map", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


def test_enclosure_tau_tie_at_rounding_level_passes(tmp_path):
    # 3 and the next float give log|I|/tau values float64 cannot order.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tau_values": [1, 2, 3, 3.0000000000000004]}))
    out = tmp_path / "out"
    assert main(["enclosure", "--config", str(config), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "enclosure.json").read_text())
    assert abs(payload["summary"]["fitted_limit"]) <= 1e-14


def test_sign_map_row_count(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"y3_values": [0.2, 0.1], "sign_resolution": 41}))
    assert main(["sign-map", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = (out / "sign-map.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 41 * 41


def test_perturbed_pairing_fails(tmp_path):
    out = tmp_path / "out"
    code = main(["verify-identity", "--perturb-pairing", "1.01", "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    payload = json.loads((out / "verify-identity.json").read_text())
    assert payload["summary"]["passed"] is False
    assert payload["summary"]["max_residual"] > 1e-3


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


def test_expect_mismatch_fails(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"regions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.5, "expect": "BlowUp"}]})
    )
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_CHECK_FAILED
    payload = json.loads((out / "indicator.json").read_text())
    assert payload["summary"]["failures"]


def test_strict_turns_inconclusive_into_failure(tmp_path):
    # Two cutoff orders cannot produce a verdict; strict makes that fatal.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"orders": [4, 8], "regions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.5}]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert main(["indicator", "--config", str(config), "--strict", "--out", str(out)]) == EXIT_CHECK_FAILED


def test_origin_on_boundary_region_is_refused(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regions": [{"shape": "disk", "center": [0.5, 0.0], "radius": 0.5}]}))
    out = tmp_path / "out"
    assert main(["indicator", "--config", str(config), "--out", str(out)]) == EXIT_OK
    body = (out / "indicator.csv").read_text()
    assert "refused" in body
    assert main(["indicator", "--config", str(config), "--strict", "--out", str(out)]) == EXIT_CHECK_FAILED


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
    code = "import sys, nrtlab.cli; print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env())
    assert proc.stdout.strip() == "[]"
