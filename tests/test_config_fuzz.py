"""Property tests of the config schema: any JSON value either passes its check or is a config error."""

import json
import math
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nrtlab import cli
from nrtlab.cli import EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, ConfigError, load_config, main
from nrtlab.indicator import MAX_RUNGE_ORDER

FIELDS = list(cli.FIELDS)

# Arbitrary JSON, with the numbers that sit on or beyond the edges of a
# float64 and of the schema's bounds.
edge_numbers = st.sampled_from(
    [0, 1, -1, 3, 4, 1.0, 0.5, -0.0, 1e-300, 1e300, sys.float_info.max, 2**64, 10**400, 1e6, 1024, 1025]
)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | edge_numbers | st.text(max_size=4)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(["shape", "center", "radius", "expect", "x"]), inner, max_size=4),
    max_leaves=10,
)
# Values near the valid ones of each field, so that configs also pass
# the schema and runs get past it.
numbers = st.floats(min_value=0.01, max_value=100.0) | edge_numbers
increasing = st.lists(numbers, max_size=9, unique=True).map(sorted)
decreasing = increasing.map(lambda values: values[::-1])
# Probe distances down to 1e-300, far below what a Runge fit resolves.
distances = st.builds(
    lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99), st.integers(min_value=-300, max_value=0)
)
AMBIENT = cli.FIELDS["boundary_radius"][0]
# Disks whose |c| + rho lies a relative 1e-12 to 1e-8 below the default
# boundary_radius, where only exact arithmetic tells inside from touching:
# admissible unless the rounding of these floats reaches r = R.
near_margin_disks = st.builds(
    lambda share, angle, gap: {
        "center": [share * AMBIENT * (1.0 - gap) * math.cos(angle), share * AMBIENT * (1.0 - gap) * math.sin(angle)],
        "radius": (1.0 - share) * AMBIENT * (1.0 - gap),
    },
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=-12.0, max_value=-8.0).map(lambda e: 10.0**e),
)

def polar_disk(dist, angle, radius):
    return {"center": [dist * math.cos(angle), dist * math.sin(angle)], "radius": radius}


angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
# Disks whose boundary passes near the origin: | |c| / rho - 1 | log-uniform
# in [1e-8, 1e-1], on either side.
near_tangent_disks = st.builds(
    lambda rho, gap, side, angle: polar_disk(rho * (1.0 + side * gap), angle, rho),
    st.floats(min_value=0.01, max_value=0.9),
    st.floats(min_value=-8.0, max_value=-1.0).map(lambda e: 10.0**e),
    st.sampled_from([-1.0, 1.0]),
    angles,
)
# Disks of radius 1e-300 to 1e-150, where rho^2 underflows, at least 0.1
# off the origin so that the sweep runs; the exponents are listed from 300
# down because hypothesis favours the first entry of sampled_from.
tiny_disks = st.builds(
    lambda e, dist, angle: polar_disk(dist, angle, 10.0**-e),
    st.sampled_from(range(300, 149, -1)),
    st.floats(min_value=0.1, max_value=1.9),
    angles,
)
disks = (
    st.fixed_dictionaries(
        {"center": st.lists(numbers, min_size=2, max_size=2), "radius": numbers},
        optional={"expect": st.sampled_from(["Bounded", "BlowUp", "Inconclusive", "bounded", None])},
    )
    | near_margin_disks
    | near_tangent_disks
    | tiny_disks
)
NEAR_VALID = {
    "boundary_radius": numbers,
    "eps": numbers,
    "seed": st.integers(min_value=-2, max_value=2**65),
    "out_dir": st.text(max_size=4),
    "regions": st.lists(disks, max_size=3),
    "orders": st.lists(st.integers(min_value=-2, max_value=1030), max_size=5).map(sorted),
    "t_values": decreasing,
    "runge_order": st.integers(min_value=-2, max_value=100),
    "runge_region": disks,
    "tau_values": increasing,
    "enclosure_phi": numbers,
    "y3_values": decreasing,
    "sign_half_width": numbers,
    "sign_resolution": st.integers(min_value=-2, max_value=410),
    "sign_patch_radius": numbers,
    "identity_samples": st.integers(min_value=-2, max_value=1010),
    "identity_max_order": st.integers(min_value=-2, max_value=1030),
}


def configs(fields):
    """Configs that set a few of the given fields, each to arbitrary JSON or to a near-valid value."""

    def values(names):
        return st.fixed_dictionaries({name: json_values | NEAR_VALID[name] for name in names})

    return st.lists(st.sampled_from(fields), max_size=3, unique=True).flatmap(values)


def write(tmp_path, config) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


@settings(max_examples=300, deadline=None, database=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs(FIELDS))
def test_load_config_returns_checked_fields_or_config_error(tmp_path, config):
    try:
        cfg = load_config(write(tmp_path, config), {})
    except ConfigError:
        return
    for name in FIELDS:
        value = getattr(cfg, name)
        assert cli.FIELDS[name][1](value, name) == value


INDICATOR = ["boundary_radius", "eps", "regions", "orders"]
# Indicator runs that get past the schema: one to three disks, some of
# them next to the ambient circle.
indicator_runs = st.fixed_dictionaries({"regions": st.lists(disks, min_size=1, max_size=3)})
ENCLOSURE = ["boundary_radius", "tau_values", "enclosure_phi"]
RUNGE = ["boundary_radius", "t_values", "runge_order", "runge_region"]
# Runge runs that get past the schema: three or four probe distances,
# most of them far below what the fit resolves.
runge_runs = st.fixed_dictionaries(
    {"t_values": st.lists(distances, min_size=3, max_size=4, unique=True).map(lambda values: sorted(values, reverse=True))},
    optional={
        # Orders up to 40 keep each run short; the full order range is timed in test_cli.
        "runge_order": st.integers(min_value=-1, max_value=40) | st.just(MAX_RUNGE_ORDER + 1),
        "boundary_radius": numbers,
    },
)


SIGN_MAP = ["y3_values", "sign_half_width", "sign_patch_radius"]
IDENTITY = ["boundary_radius", "seed"]


def with_caps(fields, **caps):
    """configs(fields) plus every capped field set, so the run stays short whatever the rest holds."""
    return st.builds(lambda config, capped: {**config, **capped}, configs(fields), st.fixed_dictionaries(caps))


# Resolutions up to 41 and identity caps up to 64 keep each run short; the caps themselves are timed in test_cli.
# Odd resolutions from -1 to 41, so that most runs get past the schema.
odd_resolutions = st.integers(min_value=-1, max_value=20).map(lambda k: 2 * k + 1)
sign_map_runs = with_caps(SIGN_MAP, sign_resolution=odd_resolutions)
# Sign-map runs that get past the schema: heights and half widths over
# 120 decades, grids that hold the zero circle of the largest height,
# and patches on either side of sqrt(2) max(y3).
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99), st.integers(min_value=-60, max_value=60))
valid_sign_map_runs = st.lists(magnitudes, min_size=1, max_size=3, unique=True).flatmap(
    lambda heights: st.fixed_dictionaries(
        {
            "y3_values": st.just(sorted(heights, reverse=True)),
            "sign_half_width": magnitudes | st.floats(min_value=0.1, max_value=100.0).map(lambda f: f * max(heights)),
            "sign_resolution": odd_resolutions.filter(lambda n: n >= 3),
            "sign_patch_radius": st.floats(min_value=0.5, max_value=2.0).map(lambda f: f * math.sqrt(2.0) * max(heights)),
        }
    )
)
identity_runs = with_caps(
    IDENTITY,
    identity_samples=st.integers(min_value=-2, max_value=64),
    identity_max_order=st.integers(min_value=-2, max_value=64),
)


@settings(max_examples=100, deadline=None, database=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["indicator", "enclosure", "runge", "sign-map", "verify-identity"]),
    indicator=indicator_runs | configs(INDICATOR),
    enclosure=configs(ENCLOSURE),
    runge=runge_runs | configs(RUNGE),
    sign_map=valid_sign_map_runs | sign_map_runs,
    identity=identity_runs,
)
def test_main_exits_0_1_or_2(tmp_path, capsys, command, indicator, enclosure, runge, sign_map, identity):
    config = {"indicator": indicator, "enclosure": enclosure, "runge": runge, "sign-map": sign_map, "verify-identity": identity}[command]
    code = main([command, "--config", write(tmp_path, config), "--out", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR)
    assert "Traceback" not in capsys.readouterr().err
    if command == "sign-map" and code != EXIT_CONFIG_ERROR:
        # Only the certificate fails a sign map: the per-cell check never
        # fires on the real kernel.
        summary = json.loads((tmp_path / "out" / "sign-map.json").read_text())["summary"]
        assert (code == EXIT_CHECK_FAILED) == (float(summary["certificate_margin"]) <= 0.0), summary["failures"]
