"""Command line front end for the five laboratory experiments.

Each subcommand reads an optional JSON config, runs one experiment and
writes <out>/<experiment>.csv, .json and .svg.  Outputs are functions
of the config alone (timing goes to stdout only), so reruns with the
same config produce byte-identical files.  Exit code 0 means all
checks passed, 1 means a numerical check or verdict failed, 2 means
the configuration was unusable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checks import (
    enclosure_closed_form,
    enclosure_sweep,
    gradient_identity,
    sign_indefiniteness_certificate,
    sign_map,
    validate_taus,
)
from .geometry import DiskRegion
from .harmonic import (
    annulus_neumann_solution,
    boundary_pairing,
    gap_neumann_trace,
    random_boundary_data,
    BoundaryData,
)
from .indicator import (
    MAX_RUNGE_ORDER,
    IndicatorCurve,
    OriginOnBoundaryError,
    Verdict,
    blow_up_diagnostic,
    indicator_sweep,
    runge_fit,
    scaled_sequence,
    validate_orders,
)
from . import svgplot

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

# Pass bars for the self-checks each experiment runs on its own output.
IDENTITY_TOL = 1e-9
RUNGE_PAIRING_RTOL = 0.01
RUNGE_NORM_WINDOW = (0.4, 0.6)
ENCLOSURE_RTOL = 1e-8
ENCLOSURE_LIMIT_BAR = 0.05

SWEEP_COLUMNS = ["N_or_t", "eps", "value", "cond_Q", "discarded_share", "verdict"]


class ConfigError(ValueError):
    """Raised when the merged configuration cannot drive an experiment."""


def _default_regions() -> list:
    return [
        {"shape": "disk", "center": [0.0, 0.0], "radius": 0.5, "expect": "Bounded"},
        {"shape": "disk", "center": [1.3, 0.0], "radius": 0.25, "expect": "BlowUp"},
    ]


def _default_runge_region() -> dict:
    return {"shape": "disk", "center": [1.3, 0.0], "radius": 0.25}


@dataclass
class RunConfig:
    """Merged defaults, config file and command line flags."""

    boundary_radius: float = 2.0
    eps: float = 1e-3
    seed: int = 7
    out_dir: str = "out"
    strict: bool = False
    regions: list = field(default_factory=_default_regions)
    orders: list = field(default_factory=lambda: [4, 8, 16, 24, 32])
    t_values: list = field(default_factory=lambda: [0.5, 0.25, 0.125])
    runge_order: int = 32
    runge_region: dict = field(default_factory=_default_runge_region)
    tau_values: list = field(default_factory=lambda: [1.0, 10.0, 20.0, 50.0, 100.0])
    enclosure_phi: float = 0.0
    y3_values: list = field(default_factory=lambda: [0.2, 0.1, 0.05])
    sign_half_width: float = 1.0
    sign_resolution: int = 101
    sign_patch_radius: float = 1.0
    identity_samples: int = 50
    identity_max_order: int = 32
    pairing_perturbation: float = 1.0

    def echo(self) -> dict:
        # out_dir is an output location, not experiment configuration;
        # leaving it out keeps files byte-identical across destinations.
        out = {}
        for f in fields(self):
            if f.name != "out_dir":
                out[f.name] = getattr(self, f.name)
        return out


def load_config(path: Path | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from a JSON file plus non-None flag overrides."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; known keys are {sorted(known)}")
        for key, value in raw.items():
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    _validate_common(cfg)
    return cfg


def _validate_common(cfg: RunConfig) -> None:
    try:
        cfg.boundary_radius = float(cfg.boundary_radius)
        cfg.eps = float(cfg.eps)
        cfg.seed = int(cfg.seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed numeric config value: {exc}") from exc
    if not (np.isfinite(cfg.boundary_radius) and cfg.boundary_radius > 1.0):
        raise ConfigError(f"boundary_radius must be finite and exceed 1 (the unit cavity radius), got {cfg.boundary_radius}")
    if not (np.isfinite(cfg.eps) and cfg.eps > 0.0):
        raise ConfigError(f"eps must be positive and finite, got {cfg.eps}")


def _integer(value, name: str, lo: int, hi: int | None = None) -> int:
    """A config integer in [lo, hi]; strings, floats and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _finite(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _finite_list(values, name: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return [_finite(v, f"{name}[{i}]") for i, v in enumerate(values)]


def _parse_region(entry: dict, boundary_radius: float, label: str) -> tuple[DiskRegion, str | None]:
    if not isinstance(entry, dict):
        raise ConfigError(f"{label} must be an object with shape/center/radius, got {entry!r}")
    expect = entry.get("expect")
    if expect is not None and expect not in {v.value for v in Verdict}:
        raise ConfigError(f"{label}: expect must be one of {sorted(v.value for v in Verdict)}, got {expect!r}")
    try:
        region = DiskRegion.from_dict(entry)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label} is not a valid disk region: {exc}") from exc
    if np.hypot(*region.center) + region.radius >= boundary_radius:
        raise ConfigError(
            f"{label} disk(center={region.center}, radius={region.radius}) does not fit strictly "
            f"inside the ambient disk of radius {boundary_radius}"
        )
    return region, expect


def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return _jsonify(value.item())
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, complex):
        return {"re": _jsonify(value.real), "im": _jsonify(value.imag)}
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Verdict):
        return value.value
    return value


def _cell(value):
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if np.isnan(value):
            return "nan"
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_outputs(out_dir: Path, name: str, columns: list, rows: list, summary: dict, config: RunConfig) -> None:
    """Write <name>.csv and <name>.json under out_dir, creating it if needed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    payload = {
        "experiment": name,
        "config": _jsonify(config.echo()),
        "summary": _jsonify(summary),
    }
    json_path = out_dir / f"{name}.json"
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_verify_identity(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    """Check the pairing identity on fixed modes plus random boundary data."""
    samples = _integer(cfg.identity_samples, "identity_samples", 1)
    max_order = _integer(cfg.identity_max_order, "identity_max_order", 1)
    perturbation = _finite(cfg.pairing_perturbation, "pairing_perturbation")
    R = cfg.boundary_radius
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    if perturbation != 1.0:
        w = w.scaled(perturbation)
    rng = np.random.default_rng(cfg.seed)

    cases: list[tuple[str, BoundaryData]] = [("const", BoundaryData.mode(0, "cos"))]
    for n in range(1, 5):
        cases.append((f"cos{n}", BoundaryData.mode(n, "cos")))
    cases.append(("sin3", BoundaryData.mode(3, "sin")))
    for k in range(samples):
        order = int(rng.integers(1, max_order + 1))
        cases.append((f"random{k}", random_boundary_data(order, rng)))

    rows = []
    for label, g in cases:
        pairing, gradient_form = gradient_identity(g, R, w_trace=w)
        rows.append(
            {
                "case": label,
                "order": g.max_order,
                "pairing": pairing,
                "gradient_form": gradient_form,
                "residual": abs(pairing - gradient_form),
            }
        )
    max_residual = max(r["residual"] for r in rows)
    passed = max_residual <= IDENTITY_TOL
    summary = {
        "n_cases": len(rows),
        "max_residual": max_residual,
        "tolerance": IDENTITY_TOL,
        "passed": passed,
    }
    write_outputs(out_dir, "verify-identity", ["case", "order", "pairing", "gradient_form", "residual"], rows, summary, cfg)
    floor = 1e-18
    svgplot.line_chart(
        out_dir / "verify-identity.svg",
        [("residual", np.arange(len(rows)), np.maximum([r["residual"] for r in rows], floor))],
        title="Pairing identity residual per case",
        xlabel="case index",
        ylabel="|pairing + 2 pi dx z_g(0)|",
        logy=True,
    )
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), summary


def run_indicator(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    """Sweep the constrained sup over cutoff orders for each test region."""
    if not cfg.regions:
        raise ConfigError("regions must be a nonempty list")
    try:
        orders = validate_orders(cfg.orders)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    parsed = [_parse_region(entry, cfg.boundary_radius, f"regions[{i}]") for i, entry in enumerate(cfg.regions)]

    rows = []
    region_summaries = []
    failures = []
    soft_flags = []
    curves = []
    for idx, (region, expect) in enumerate(parsed):
        label = f"disk({region.center[0]:g},{region.center[1]:g};r={region.radius:g})"
        try:
            curve = indicator_sweep(region, cfg.boundary_radius, cfg.eps, orders)
        except OriginOnBoundaryError as exc:
            rows.append(
                {
                    "region": label,
                    "N_or_t": "",
                    "eps": cfg.eps,
                    "value": "",
                    "cond_Q": "",
                    "discarded_share": "",
                    "verdict": "refused",
                }
            )
            region_summaries.append({"region": label, "verdict": "refused", "reason": str(exc), "expect": expect})
            soft_flags.append(f"region {idx} refused: origin on boundary")
            continue
        curves.append((label, curve))
        for order, value in zip(orders, curve.values):
            rows.append(
                {
                    "region": label,
                    "N_or_t": order,
                    "eps": curve.eps,
                    "value": value,
                    "cond_Q": "",
                    "discarded_share": "",
                    "verdict": curve.verdict.value,
                }
            )
        region_summaries.append(
            {
                "region": label,
                "expect": expect,
                "verdict": curve.verdict.value,
                "values": list(curve.values),
                "growth_ratios": list(curve.growth_ratios),
            }
        )
        if expect is not None and curve.verdict.value != expect:
            failures.append(f"region {idx} verdict {curve.verdict.value} != expected {expect}")
        elif curve.verdict is Verdict.INCONCLUSIVE:
            soft_flags.append(f"region {idx} inconclusive")

    passed = not failures and not (cfg.strict and soft_flags)
    summary = {
        "eps": cfg.eps,
        "orders": orders,
        "regions": region_summaries,
        "failures": failures,
        "soft_flags": soft_flags,
        "strict": cfg.strict,
        "passed": passed,
    }
    write_outputs(out_dir, "indicator", ["region"] + SWEEP_COLUMNS, rows, summary, cfg)
    series = [
        (label, curve.grid, np.maximum(curve.values, 1e-18))
        for label, curve in curves
    ]
    if series:
        svgplot.line_chart(
            out_dir / "indicator.svg",
            series,
            title=f"Constrained sup vs cutoff order (eps={cfg.eps:g})",
            xlabel="cutoff order N",
            ylabel="sup value",
            logy=True,
        )
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), summary


def run_runge(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    """Drive the blow-up route with shifted log potentials as t -> 0."""
    ts = _finite_list(cfg.t_values, "t_values")
    if len(ts) < 3:
        raise ConfigError(f"t_values needs at least 3 entries for the slope diagnostic, got {len(ts)}")
    if any(t <= 0 for t in ts) or any(b >= a for a, b in zip(ts, ts[1:])):
        raise ConfigError(f"t_values must be strictly decreasing positives, got {ts}")
    order = _integer(cfg.runge_order, "runge_order", 1, MAX_RUNGE_ORDER)
    region, _ = _parse_region(cfg.runge_region, cfg.boundary_radius, "runge_region")
    R = cfg.boundary_radius
    w = gap_neumann_trace(annulus_neumann_solution(R), R)

    rows = []
    pairings = []
    scaled_values = []
    failures = []
    for t in ts:
        try:
            fit = runge_fit(t, region, R, order)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        pairing = boundary_pairing(w, fit.g, R)
        target = 2.0 * np.pi / t
        rel_err = abs(pairing - target) / target
        g_scaled = scaled_sequence(fit, cfg.eps)
        scaled_value = boundary_pairing(w, g_scaled, R)
        zg_scaled = fit.zg_norm_on_G * cfg.eps / (2.0 * fit.norm_on_G)
        pairings.append(pairing)
        scaled_values.append(scaled_value)
        rows.append(
            {
                "N_or_t": t,
                "eps": cfg.eps,
                "value": scaled_value,
                "cond_Q": fit.cond,
                "discarded_share": fit.discarded_share,
                "verdict": "",
                "pairing": pairing,
                "target": target,
                "rel_err": rel_err,
                "residual": fit.residual,
                "probe_norm_G": fit.norm_on_G,
                "zg_norm_G": fit.zg_norm_on_G,
                "zg_scaled_norm": zg_scaled,
            }
        )
        if rel_err > RUNGE_PAIRING_RTOL:
            failures.append(f"t={t}: pairing {pairing:.6g} misses 2 pi / t = {target:.6g} (rel {rel_err:.2e})")
        lo, hi = RUNGE_NORM_WINDOW
        if not (lo * cfg.eps < zg_scaled < hi * cfg.eps):
            failures.append(f"t={t}: scaled lift norm {zg_scaled:.3e} outside ({lo} eps, {hi} eps)")

    curve = IndicatorCurve(parameter="t", grid=np.array(ts), values=np.array(pairings), eps=cfg.eps)
    verdict = blow_up_diagnostic(curve)
    for row in rows:
        row["verdict"] = verdict.value
    soft_flags = []
    if verdict is not Verdict.BLOW_UP:
        message = f"diagnostic verdict {verdict.value} on the pairing curve (expected BlowUp)"
        if verdict is Verdict.INCONCLUSIVE:
            soft_flags.append(message)
        else:
            failures.append(message)
    ratios = [b / a for a, b in zip(scaled_values, scaled_values[1:])]

    passed = not failures and not (cfg.strict and soft_flags)
    summary = {
        "eps": cfg.eps,
        "order": order,
        "region": cfg.runge_region,
        "t_values": ts,
        "pairings": pairings,
        "scaled_values": scaled_values,
        "scaled_growth_ratios": ratios,
        "verdict": verdict.value,
        "failures": failures,
        "soft_flags": soft_flags,
        "strict": cfg.strict,
        "passed": passed,
    }
    columns = SWEEP_COLUMNS + [
        "pairing",
        "target",
        "rel_err",
        "residual",
        "probe_norm_G",
        "zg_norm_G",
        "zg_scaled_norm",
    ]
    write_outputs(out_dir, "runge", columns, rows, summary, cfg)
    svgplot.line_chart(
        out_dir / "runge.svg",
        [
            ("pairing l(g_t)", ts, pairings),
            ("2 pi / t", ts, [2.0 * np.pi / t for t in ts]),
            ("scaled value", ts, scaled_values),
        ],
        title="Blow-up route: pairing vs probe distance",
        xlabel="t",
        ylabel="value",
        logx=True,
        logy=True,
    )
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), summary


def run_sign_map(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    """Map the restricted kernel sign structure over decreasing heights."""
    heights = _finite_list(cfg.y3_values, "y3_values")
    if len(heights) == 0:
        raise ConfigError("y3_values must be nonempty")
    if any(v <= 0 for v in heights) or any(b >= a for a, b in zip(heights, heights[1:])):
        raise ConfigError(f"y3_values must be strictly decreasing positives, got {heights}")
    half_width = _finite(cfg.sign_half_width, "sign_half_width")
    patch_radius = _finite(cfg.sign_patch_radius, "sign_patch_radius")
    if half_width <= 0 or patch_radius <= 0:
        raise ConfigError("sign_half_width and sign_patch_radius must be positive")
    resolution = _integer(cfg.sign_resolution, "sign_resolution", 3)
    if resolution % 2 == 0:
        raise ConfigError(f"sign_resolution must be odd so the origin is a grid point, got {resolution}")

    fields_out = []
    rows = []
    failures = []
    per_height = []
    for y3 in heights:
        field_map = sign_map(y3, half_width, resolution)
        fields_out.append(field_map)
        axis = field_map.axis
        for i in range(axis.size):
            for j in range(axis.size):
                rows.append({"y3": y3, "x1": axis[i], "x2": axis[j], "value": field_map.values[i, j]})
        center = float(field_map.values[axis.size // 2, axis.size // 2])
        entry = {
            "y3": y3,
            "center_value": center,
            "zero_radius_estimate": field_map.zero_radius_estimate,
            "predicted_zero_radius": field_map.predicted_zero_radius,
            "grid_step": field_map.grid_step,
        }
        per_height.append(entry)
        if not center < 0.0:
            failures.append(f"y3={y3}: kernel at the origin is {center:.3e}, expected negative")
        predicted = field_map.predicted_zero_radius
        estimate = field_map.zero_radius_estimate
        if predicted < half_width:
            if not np.isfinite(estimate) or abs(estimate - predicted) > field_map.grid_step:
                failures.append(
                    f"y3={y3}: zero-circle estimate {estimate} misses sqrt(2) y3 = {predicted:.4f} "
                    f"by more than one grid step {field_map.grid_step:.4f}"
                )
    certificate = sign_indefiniteness_certificate(heights, patch_radius)
    if not certificate:
        failures.append("sign indefiniteness certificate failed on the fixed patch")

    passed = not failures
    summary = {
        "y3_values": heights,
        "half_width": half_width,
        "resolution": resolution,
        "patch_radius": patch_radius,
        "per_height": per_height,
        "certificate": certificate,
        "failures": failures,
        "passed": passed,
    }
    write_outputs(out_dir, "sign-map", ["y3", "x1", "x2", "value"], rows, summary, cfg)
    svgplot.sign_panels(
        out_dir / "sign-map.svg",
        fields_out,
        title="Restricted kernel sign (blue < 0 < red), dashed: sqrt(2) y3",
    )
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), summary


def run_enclosure(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    """Sweep complex exponential probes and compare with the closed form."""
    try:
        taus = validate_taus(cfg.tau_values)
    except ValueError as exc:
        raise ConfigError(f"tau_values: {exc}") from exc
    phi = _finite(cfg.enclosure_phi, "enclosure_phi")

    sweep = enclosure_sweep(taus, phi, cfg.boundary_radius)
    rows = []
    failures = []
    for sample in sweep.samples:
        closed = enclosure_closed_form(sample.tau, phi)
        rel_err = abs(sample.value - closed) / abs(closed)
        rows.append(
            {
                "tau": sample.tau,
                "re": sample.value.real,
                "im": sample.value.imag,
                "modulus": sample.modulus,
                "log_over_tau": sample.log_over_tau,
                "closed_re": closed.real,
                "closed_im": closed.imag,
                "rel_err": rel_err,
            }
        )
        if rel_err > ENCLOSURE_RTOL:
            failures.append(f"tau={sample.tau}: quadrature differs from -2 pi tau e^(-i phi) by rel {rel_err:.2e}")
    if not sweep.fitted_limit <= ENCLOSURE_LIMIT_BAR:
        failures.append(f"fitted decay limit {sweep.fitted_limit:.4f} exceeds {ENCLOSURE_LIMIT_BAR}")

    passed = not failures
    summary = {
        "tau_values": taus,
        "phi": phi,
        "log_over_tau": [s.log_over_tau for s in sweep.samples],
        "fitted_limit": sweep.fitted_limit,
        "limit_bar": ENCLOSURE_LIMIT_BAR,
        "failures": failures,
        "passed": passed,
    }
    columns = ["tau", "re", "im", "modulus", "log_over_tau", "closed_re", "closed_im", "rel_err"]
    write_outputs(out_dir, "enclosure", columns, rows, summary, cfg)
    svgplot.line_chart(
        out_dir / "enclosure.svg",
        [("(1/tau) log |I_tau|", taus, [s.log_over_tau for s in sweep.samples])],
        title="Enclosure decay, limit fit = " + f"{sweep.fitted_limit:.2e}",
        xlabel="tau",
        ylabel="(1/tau) log |I_tau|",
        logx=True,
    )
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), summary


RUNNERS = {
    "verify-identity": run_verify_identity,
    "indicator": run_indicator,
    "runge": run_runge,
    "sign-map": run_sign_map,
    "enclosure": run_enclosure,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrtlab",
        description="Numerical experiments for a cavity no-response-test indicator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "verify-identity": "check the boundary pairing against -2 pi dx z_g(0)",
        "indicator": "sweep the constrained sup over cutoff orders per region",
        "runge": "drive the blow-up route with shifted log potentials",
        "sign-map": "map the restricted kernel signs over decreasing heights",
        "enclosure": "sweep complex exponential probes against the closed form",
    }
    for name in RUNNERS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output directory (default: out)")
        p.add_argument("--strict", action="store_true", help="treat inconclusive outcomes as failures")
        p.add_argument("--R", type=float, default=None, dest="boundary_radius", help="ambient disk radius (> 1)")
        p.add_argument("--eps", type=float, default=None, help="constraint radius for the lifted data")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized cases")
        if name == "verify-identity":
            p.add_argument("--perturb-pairing", type=float, default=None, dest="pairing_perturbation", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "boundary_radius": args.boundary_radius,
        "eps": args.eps,
        "seed": args.seed,
        "out_dir": str(args.out) if args.out is not None else None,
        "strict": True if args.strict else None,
        "pairing_perturbation": getattr(args, "pairing_perturbation", None),
    }
    try:
        cfg = load_config(args.config, overrides)
        started = time.perf_counter()
        code, summary = RUNNERS[args.command](cfg, Path(cfg.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    elapsed = time.perf_counter() - started
    status = "PASS" if code == EXIT_OK else "FAIL"
    print(f"[{args.command}] {status} in {elapsed:.2f}s, outputs in {cfg.out_dir}")
    for line in summary.get("failures", []):
        print(f"  failure: {line}")
    for line in summary.get("soft_flags", []):
        print(f"  note: {line}")
    return code


if __name__ == "__main__":
    sys.exit(main())
