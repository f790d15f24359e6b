"""Command line front end for the five laboratory experiments.

Each subcommand reads an optional JSON config and runs one experiment.
Its runner only computes; main alone decides pass or fail and writes
<out>/<experiment>.csv, .json and .svg.  Outputs are functions of the
config alone (timing goes to stdout only), so reruns with the same
config produce byte-identical files.  Exit code 0 means all checks
passed, 1 means a check or verdict failed (or, under --strict, a soft
flag was raised), 2 means the configuration was unusable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .checks import (
    enclosure_bound,
    enclosure_closed_form,
    enclosure_sweep,
    gradient_identity,
    sign_indefiniteness_certificate,
    sign_map,
    validate_taus,
)
from .geometry import DiskRegion, validate_admissible
from .harmonic import (
    annulus_neumann_solution,
    gap_neumann_trace,
    random_boundary_data,
    BoundaryData,
)
from .indicator import (
    MAX_RUNGE_ORDER,
    MAX_SWEEP_ORDER,
    IndicatorCurve,
    OriginOnBoundaryError,
    Verdict,
    blow_up_diagnostic,
    indicator_sweep,
    runge_fit,
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

# Caps that give every run a time bound; the README states the wall
# time and peak memory of a run at them.
MAX_IDENTITY_SAMPLES = 1000
MAX_IDENTITY_ORDER = 1024
MAX_SIGN_RESOLUTION = 401
MAX_SIGN_HEIGHTS = 8
MAX_T_VALUES = 8
MAX_REGIONS = 64
MAX_TAU_VALUES = 1000
# The largest seed: 64 bits of entropy for numpy's generator.
MAX_SEED = 2**64 - 1

SWEEP_COLUMNS = ["N_or_t", "eps", "value", "verdict"]


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

    def echo(self) -> dict:
        # out_dir is an output location, not experiment configuration;
        # leaving it out keeps files byte-identical across destinations.
        out = {}
        for f in fields(self):
            if f.name != "out_dir":
                out[f.name] = getattr(self, f.name)
        return out


def load_config(path: Path | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from a JSON file plus non-None flag overrides.

    Every field, default or not, then holds what its SCHEMA check returns.
    """
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
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
    for f in fields(cfg):
        setattr(cfg, f.name, SCHEMA[f.name](getattr(cfg, f.name), f.name))
    return cfg


def _integer(value, name: str, lo: int, hi: int) -> int:
    """A JSON integer in [lo, hi]; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def _number(value, name: str, above: float = -math.inf) -> float:
    """A finite JSON number greater than above, as a float; booleans and strings are refused."""
    # ints compare exactly with floats, so an int beyond the float range fails too.
    finite = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not (finite and value > above):
        bound = f" above {above:g}" if above > -math.inf else ""
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def _instance(value, name: str, kind: type):
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _list(value, name: str, item, lo: int = 1, hi: int | None = None) -> list:
    """A JSON list of lo to hi entries, each passed through item(entry, "name[i]")."""
    if not isinstance(value, list) or len(value) < lo or (hi is not None and len(value) > hi):
        size = f"at least {lo}" if hi is None else f"{lo}" if hi == lo else f"{lo} to {hi}"
        raise ConfigError(f"{name} must be a list of {size} entries, got {value!r}")
    return [item(v, f"{name}[{i}]") for i, v in enumerate(value)]


def _decreasing(value, name: str, lo: int, hi: int | None = None) -> list[float]:
    """A list of lo to hi strictly decreasing positive numbers."""
    values = _list(value, name, partial(_number, above=0.0), lo, hi)
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly decreasing, got {values}")
    return values


def _validated(value, name: str, item, validate, hi: int | None = None) -> list:
    """A list of at most hi entries that pass item, which then passes the library's own validate."""
    checked = _list(value, name, item, hi=hi)
    try:
        return validate(checked)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _out_dir(value, name: str) -> str:
    """A directory path that exists or can be created: its nearest existing ancestor is a writable directory."""
    _instance(value, name, str)
    try:
        probe = Path(value).absolute()
        while not probe.exists():
            probe = probe.parent
        usable = probe.is_dir() and os.access(probe, os.W_OK | os.X_OK)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name} {value!r} is not a usable path: {exc}") from exc
    if not usable:
        raise ConfigError(f"{name} {value!r} cannot be created: {probe} is not a writable directory")
    return value


def _resolution(value, name: str) -> int:
    if _integer(value, name, 3, MAX_SIGN_RESOLUTION) % 2 == 0:
        raise ConfigError(f"{name} must be odd so the origin is a grid point, got {value}")
    return value


def _region(value, name: str) -> dict:
    """A disk {"shape": "disk", "center": [x, y], "radius": r}, optionally with an expected verdict.

    Its fit inside the ambient disk depends on boundary_radius; _parse_region checks that.
    """
    if not isinstance(value, dict) or value.get("shape", "disk") != "disk":
        raise ConfigError(f"{name} must be a disk object with center and radius, got {value!r}")
    _list(value.get("center"), f"{name}.center", _number, 2, 2)
    _number(value.get("radius"), f"{name}.radius", above=0.0)
    verdicts = [v.value for v in Verdict]
    if "expect" in value and value["expect"] not in verdicts + [None]:
        raise ConfigError(f"{name}.expect must be one of {sorted(verdicts)}, got {value['expect']!r}")
    return value


# The check of every RunConfig field: check(value, name) returns the
# value the field holds, or raises ConfigError.  The README lists the
# same types, bounds and caps.
SCHEMA = {
    "boundary_radius": partial(_number, above=1.0),
    "eps": partial(_number, above=0.0),
    "seed": partial(_integer, lo=0, hi=MAX_SEED),
    "out_dir": _out_dir,
    "strict": partial(_instance, kind=bool),
    "regions": partial(_list, item=_region, hi=MAX_REGIONS),
    "orders": partial(_validated, item=partial(_integer, lo=1, hi=MAX_SWEEP_ORDER), validate=validate_orders),
    "t_values": partial(_decreasing, lo=3, hi=MAX_T_VALUES),
    "runge_order": partial(_integer, lo=1, hi=MAX_RUNGE_ORDER),
    "runge_region": _region,
    "tau_values": partial(_validated, item=_number, validate=validate_taus, hi=MAX_TAU_VALUES),
    "enclosure_phi": _number,
    "y3_values": partial(_decreasing, lo=1, hi=MAX_SIGN_HEIGHTS),
    "sign_half_width": partial(_number, above=0.0),
    "sign_resolution": _resolution,
    "sign_patch_radius": partial(_number, above=0.0),
    "identity_samples": partial(_integer, lo=1, hi=MAX_IDENTITY_SAMPLES),
    "identity_max_order": partial(_integer, lo=1, hi=MAX_IDENTITY_ORDER),
}


def _parse_region(entry: dict, boundary_radius: float, label: str) -> tuple[DiskRegion, str | None]:
    """The schema-checked region as a DiskRegion that the library accepts, with its expected verdict."""
    region = DiskRegion(center=tuple(entry["center"]), radius=entry["radius"])
    try:
        validate_admissible(region, boundary_radius)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    return region, entry.get("expect")


def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return _jsonify(value.item())
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _column_text(values) -> list[str]:
    """CSV cells of one column: repr of every float, str of anything else.

    A float array is formatted once per distinct bit pattern (so -0.0
    keeps its sign), which makes a repeated grid axis cost one repr per
    grid point.  repr writes nan, inf and -inf as such.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
            distinct, index = np.unique(bits, return_inverse=True)
            text = [repr(v) for v in distinct.view(np.float64).tolist()]
            return [text[i] for i in index.tolist()]
        values = values.tolist()
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in values]


def write_outputs(out_dir: Path, name: str, table: dict, summary: dict, config: RunConfig) -> None:
    """Write <name>.csv and <name>.json under out_dir, creating it if needed.

    table maps each CSV column name, in order, to that column's values
    (a sequence or an ndarray); all columns must have the same length.
    """
    columns = [_column_text(values) for values in table.values()]
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(table))
        writer.writerows(zip(*columns, strict=True))
    payload = {
        "experiment": name,
        "config": _jsonify(config.echo()),
        "summary": _jsonify(summary),
    }
    json_path = out_dir / f"{name}.json"
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_verify_identity(cfg: RunConfig) -> tuple:
    """Check the pairing identity on fixed modes plus random boundary data."""
    R = cfg.boundary_radius
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    rng = np.random.default_rng(cfg.seed)

    cases: list[tuple[str, BoundaryData]] = [("const", BoundaryData.mode(0, "cos"))]
    for n in range(1, 5):
        cases.append((f"cos{n}", BoundaryData.mode(n, "cos")))
    cases.append(("sin3", BoundaryData.mode(3, "sin")))
    for k in range(cfg.identity_samples):
        order = int(rng.integers(1, cfg.identity_max_order + 1))
        cases.append((f"random{k}", random_boundary_data(order, rng)))

    pairings, gradient_forms = zip(*(gradient_identity(g, R, w_trace=w) for _, g in cases))
    residuals = [abs(p - q) for p, q in zip(pairings, gradient_forms)]
    labels = [label for label, _ in cases]
    max_residual, worst = max(zip(residuals, labels))
    failures = []
    if not max_residual <= IDENTITY_TOL:
        failures.append(f"case {worst}: residual {max_residual:.2e} exceeds {IDENTITY_TOL:g}")
    summary = {"n_cases": len(cases), "max_residual": max_residual, "tolerance": IDENTITY_TOL}
    table = {
        "case": labels,
        "order": [g.max_order for _, g in cases],
        "pairing": pairings,
        "gradient_form": gradient_forms,
        "residual": residuals,
    }
    chart = partial(
        svgplot.line_chart,
        series=[("residual", np.arange(len(cases)), np.maximum(residuals, 1e-18))],
        title="Pairing identity residual per case",
        xlabel="case index",
        ylabel="|pairing + 2 pi dx z_g(0)|",
        logy=True,
    )
    return table, summary, failures, [], chart


def run_indicator(cfg: RunConfig) -> tuple:
    """Sweep the constrained sup over cutoff orders for each test region."""
    parsed = [_parse_region(entry, cfg.boundary_radius, f"regions[{i}]") for i, entry in enumerate(cfg.regions)]

    table = {column: [] for column in ["region"] + SWEEP_COLUMNS}
    region_summaries = []
    failures = []
    soft_flags = []
    curves = []
    for idx, (region, expect) in enumerate(parsed):
        label = f"disk({region.center[0]:g},{region.center[1]:g};r={region.radius:g})"
        try:
            curve = indicator_sweep(region, cfg.boundary_radius, cfg.eps, cfg.orders)
        except OriginOnBoundaryError as exc:
            for column, cell in zip(table, [label, "", cfg.eps, "", "refused"]):
                table[column].append(cell)
            region_summaries.append({"region": label, "verdict": "refused", "reason": str(exc), "expect": expect})
            soft_flags.append(f"region {idx} refused: origin on boundary")
            continue
        curves.append((label, curve))
        n = len(cfg.orders)
        cells = [[label] * n, cfg.orders, [curve.eps] * n, curve.values.tolist(), [curve.verdict.value] * n]
        for column, values in zip(table, cells):
            table[column].extend(values)
        region_summaries.append(
            {
                "region": label,
                "expect": expect,
                "verdict": curve.verdict.value,
                "values": list(curve.values),
                "growth_ratios": list(curve.growth_ratios),
                "limit_bound": curve.limit_bound,
            }
        )
        if expect is not None and curve.verdict.value != expect:
            failures.append(f"region {idx} verdict {curve.verdict.value} != expected {expect}")

    summary = {"eps": cfg.eps, "orders": cfg.orders, "regions": region_summaries}
    chart = partial(
        svgplot.line_chart,
        series=[(label, curve.grid, np.maximum(curve.values, 1e-18)) for label, curve in curves],
        title=f"Constrained sup vs cutoff order (eps={cfg.eps:g})",
        xlabel="cutoff order N",
        ylabel="sup value",
        logy=True,
    )
    return table, summary, failures, soft_flags, chart


def run_runge(cfg: RunConfig) -> tuple:
    """Drive the blow-up route with shifted log potentials as t -> 0."""
    ts = cfg.t_values
    region, _ = _parse_region(cfg.runge_region, cfg.boundary_radius, "runge_region")
    R = cfg.boundary_radius
    # The convergence table's orders: 8, 16, ... below runge_order, then runge_order.
    orders = list(range(8, cfg.runge_order, 8)) + [cfg.runge_order]

    fits = []
    pairings = []
    scaled_values = []
    rel_errs = []
    zg_scaled_norms = []
    convergence = []
    failures = []
    for i, t in enumerate(ts):
        target = 2.0 * np.pi / t
        table_t = {"t": t, "orders": orders, "rel_err": [], "pairing_bound": [], "residual": []}
        where = f"t_values[{i}]={t} with eps={cfg.eps}, boundary_radius={R} and runge_region={cfg.runge_region}"
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for order in orders:
                    fit = runge_fit(t, region, R, order)
                    pairing = -2.0 * np.pi * fit.dx_p0
                    rel_err = abs(pairing - target) / target
                    table_t["rel_err"].append(rel_err)
                    table_t["pairing_bound"].append(fit.pairing_bound)
                    table_t["residual"].append(fit.residual)
                    if rel_err > fit.pairing_bound:
                        failures.append(
                            f"t={t}, N={order}: pairing error {rel_err:.2e} exceeds its certified bound "
                            f"{fit.pairing_bound:.2e}"
                        )
            # The table ends at runge_order, so fit, pairing and rel_err are that fit's.
            if not fit.norm_on_G > 0.0:
                raise ValueError("probe norm on the test region vanishes; cannot scale")
            # The scale eps / (2 ||E_t||) brings the lift's H1(G) norm near eps / 2.
            scaled_value = -2.0 * np.pi * (fit.dx_p0 * (cfg.eps / (2.0 * fit.norm_on_G)))
            if not math.isfinite(scaled_value):
                raise ValueError(f"the scaled pairing {scaled_value} leaves the float64 range")
        except FloatingPointError as exc:
            raise ConfigError(f"{where}: the Runge fit leaves the float64 range ({exc})") from exc
        except ValueError as exc:  # a refused geometry, a probe norm on G that underflowed to 0, or an overflow
            raise ConfigError(f"{where}: {exc}") from exc
        convergence.append(table_t)
        zg_scaled = fit.zg_norm_on_G * cfg.eps / (2.0 * fit.norm_on_G)
        fits.append(fit)
        pairings.append(pairing)
        scaled_values.append(scaled_value)
        rel_errs.append(rel_err)
        zg_scaled_norms.append(zg_scaled)
        if not rel_err <= RUNGE_PAIRING_RTOL:  # nan where 2 pi / t overflows
            failures.append(
                f"t={t}: pairing {pairing:.6g} misses 2 pi / t = {target:.6g} "
                f"(rel {rel_err:.2e}, certified bound {fit.pairing_bound:.2e})"
            )
        lo, hi = RUNGE_NORM_WINDOW
        if not (lo * cfg.eps < zg_scaled < hi * cfg.eps):
            failures.append(f"t={t}: scaled lift norm {zg_scaled:.3e} outside ({lo} eps, {hi} eps)")

    soft_flags = []
    # The slope diagnostic reads log(pairing), which needs a positive curve.
    nonpositive = [(t, p) for t, p in zip(ts, pairings) if not p > 0.0]
    if nonpositive:
        verdict = "undefined"
        failures += [f"t={t}: pairing {p:.6g} is not positive, so the pairing curve has no log slope"
                     for t, p in nonpositive]
    else:
        curve = IndicatorCurve(parameter="t", grid=np.array(ts), values=np.array(pairings), eps=cfg.eps)
        verdict = blow_up_diagnostic(curve).value
        if verdict != Verdict.BLOW_UP.value:
            message = f"diagnostic verdict {verdict} on the pairing curve (expected BlowUp)"
            if verdict == Verdict.INCONCLUSIVE.value:
                soft_flags.append(message)
            else:
                failures.append(message)
    ratios = [b / a if a != 0.0 else math.nan for a, b in zip(scaled_values, scaled_values[1:])]

    summary = {
        "eps": cfg.eps,
        "order": cfg.runge_order,
        "region": cfg.runge_region,
        "t_values": ts,
        "pairings": pairings,
        "scaled_values": scaled_values,
        "scaled_growth_ratios": ratios,
        "convergence": convergence,
        "verdict": verdict,
    }
    targets = [2.0 * np.pi / t for t in ts]
    table = {
        "N_or_t": ts,
        "eps": [cfg.eps] * len(ts),
        "value": scaled_values,
        "verdict": [verdict] * len(ts),
        "pairing": pairings,
        "target": targets,
        "rel_err": rel_errs,
        "pairing_bound": [fit.pairing_bound for fit in fits],
        "residual": [fit.residual for fit in fits],
        "probe_norm_G": [fit.norm_on_G for fit in fits],
        "zg_norm_G": [fit.zg_norm_on_G for fit in fits],
        "zg_scaled_norm": zg_scaled_norms,
        "log10_max_g": [fit.log10_max_g for fit in fits],
    }
    chart = partial(
        svgplot.line_chart,
        series=[
            ("pairing l(g_t)", ts, pairings),
            ("2 pi / t", ts, targets),
            ("scaled value", ts, scaled_values),
        ],
        title="Blow-up route: pairing vs probe distance",
        xlabel="t",
        ylabel="value",
        logx=True,
        logy=True,
    )
    return table, summary, failures, soft_flags, chart


def run_sign_map(cfg: RunConfig) -> tuple:
    """Map the restricted kernel sign structure over decreasing heights."""
    heights = cfg.y3_values
    half_width = cfg.sign_half_width
    resolution = cfg.sign_resolution
    try:
        with np.errstate(over="raise", invalid="raise"):
            certificate = sign_indefiniteness_certificate(heights, cfg.sign_patch_radius)
    except FloatingPointError as exc:
        raise ConfigError(
            f"sign_patch_radius={cfg.sign_patch_radius}, y3_values={heights}: the certificate's kernel samples "
            f"leave the float64 range ({exc})"
        ) from exc

    fields_out = []
    failures = []
    per_height = []
    for y3 in heights:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                field_map = sign_map(y3, half_width, resolution)
        except FloatingPointError as exc:
            raise ConfigError(f"y3={y3}, sign_half_width={half_width}: the kernel leaves the float64 range ({exc})") from exc
        fields_out.append(field_map)
        center = float(field_map.values[resolution // 2, resolution // 2])
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
    if not certificate:
        failures.append("sign indefiniteness certificate failed on the fixed patch")

    summary = {
        "y3_values": heights,
        "half_width": half_width,
        "resolution": resolution,
        "patch_radius": cfg.sign_patch_radius,
        "per_height": per_height,
        "certificate": certificate,
    }
    # Rows run over heights, then x1, then x2: values[i, j] in C order.
    axis = fields_out[0].axis
    cells = resolution * resolution
    table = {
        "y3": np.repeat(heights, cells),
        "x1": np.tile(np.repeat(axis, resolution), len(heights)),
        "x2": np.tile(axis, resolution * len(heights)),
        "value": np.concatenate([f.values.ravel() for f in fields_out]),
    }
    chart = partial(
        svgplot.sign_panels,
        fields=fields_out,
        title="Restricted kernel sign (blue < 0 < red), dashed: sqrt(2) y3",
    )
    return table, summary, failures, [], chart


def run_enclosure(cfg: RunConfig) -> tuple:
    """Sweep complex exponential probes and compare each with the closed form within its bound."""
    taus = cfg.tau_values
    phi = cfg.enclosure_phi

    samples = enclosure_sweep(taus, phi, cfg.boundary_radius)
    log_over_tau = [s.log_over_tau for s in samples]
    closed_forms = [enclosure_closed_form(tau, phi) for tau in taus]
    rel_errs = [abs(s.value - closed) / abs(closed) for s, closed in zip(samples, closed_forms)]
    bounds = [enclosure_bound(tau, cfg.boundary_radius) for tau in taus]
    failures = [f"tau={tau}: quadrature differs from -2 pi tau e^(-i phi) by rel {err:.2e}, above its bound {bound:.2e}"
                for tau, err, bound in zip(taus, rel_errs, bounds) if not err <= bound]

    summary = {"tau_values": taus, "phi": phi, "log_over_tau": log_over_tau}
    table = {
        "tau": taus,
        "re": [s.value.real for s in samples],
        "im": [s.value.imag for s in samples],
        "modulus": [s.modulus for s in samples],
        "log_over_tau": log_over_tau,
        "closed_re": [closed.real for closed in closed_forms],
        "closed_im": [closed.imag for closed in closed_forms],
        "rel_err": rel_errs,
        "bound": bounds,
    }
    chart = partial(
        svgplot.line_chart,
        series=[("(1/tau) log |I_tau|", taus, log_over_tau)],
        title="Enclosure decay: (1/tau) log |I_tau| = log(2 pi tau) / tau within its bound",
        xlabel="tau",
        ylabel="(1/tau) log |I_tau|",
        logx=True,
    )
    return table, summary, failures, [], chart


# A runner writes nothing and returns (table, summary, failures, soft_flags,
# chart): CSV columns, JSON summary, failed checks, refused or inconclusive outcomes
# (failures only under --strict), and chart(path), which draws the SVG.
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
        p.add_argument("--strict", action="store_true", help="treat refused or inconclusive outcomes as failures")
        p.add_argument("--R", type=float, default=None, dest="boundary_radius", help="ambient disk radius (> 1)")
        p.add_argument("--eps", type=float, default=None, help="constraint radius for the lifted data")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized cases")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "boundary_radius": args.boundary_radius,
        "eps": args.eps,
        "seed": args.seed,
        "out_dir": str(args.out) if args.out is not None else None,
        "strict": True if args.strict else None,
    }
    try:
        cfg = load_config(args.config, overrides)
        started = time.perf_counter()
        table, summary, failures, soft_flags, chart = RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    passed = not failures and not (cfg.strict and soft_flags)
    summary.update(failures=failures, soft_flags=soft_flags, strict=cfg.strict, passed=passed)
    out_dir = Path(cfg.out_dir)
    write_outputs(out_dir, args.command, table, summary, cfg)
    chart(out_dir / f"{args.command}.svg")
    elapsed = time.perf_counter() - started
    print(f"[{args.command}] {'PASS' if passed else 'FAIL'} in {elapsed:.2f}s, outputs in {cfg.out_dir}")
    for line in failures:
        print(f"  failure: {line}")
    for line in soft_flags:
        print(f"  note: {line}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
