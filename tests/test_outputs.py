"""Column-wise CSV writer and vectorised sign panels against row-wise oracles.

The oracles are the per-cell formatter and the per-cell sign colour the
writers used before they were vectorised; both paths must give the same
bytes on edge-case values and on the default experiments.
"""

import csv

import numpy as np
import pytest

from nrtlab import cli, svgplot
from nrtlab.checks import SignField

ALL_COMMANDS = ["verify-identity", "indicator", "runge", "sign-map", "enclosure"]


def reference_cell(value):
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


def reference_csv(path, table):
    columns = list(table)
    n = len(next(iter(table.values()))) if table else 0
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for k in range(n):
            writer.writerow([reference_cell(table[c][k]) for c in columns])


def reference_sign_color(value, vmax):
    if value == 0.0 or vmax == 0.0:
        return "#ffffff"
    level = np.arcsinh(abs(value) / (0.05 * vmax)) / np.arcsinh(1.0 / 0.05)
    bucket = min(4, int(level * 5.0))
    shade = (0.15, 0.32, 0.5, 0.7, 0.9)[bucket]
    if value < 0.0:
        r, g, b = 1.0 - shade, 1.0 - 0.6 * shade, 1.0
    else:
        r, g, b = 1.0, 1.0 - 0.75 * shade, 1.0 - 0.75 * shade
    return f"#{int(round(255 * r)):02x}{int(round(255 * g)):02x}{int(round(255 * b)):02x}"


def reference_sign_panels(path, fields, title="", panel_size=260, gap=24):
    fmt = svgplot._fmt
    n = len(fields)
    margin = 30
    width = margin * 2 + n * panel_size + (n - 1) * gap
    height = margin + 46 + panel_size + 34
    cv = svgplot._Canvas(width, height)
    if title:
        cv.text(width / 2.0, 24, title, size=14, anchor="middle")
    for idx, field in enumerate(fields):
        x0 = margin + idx * (panel_size + gap)
        y0 = margin + 16
        res = field.axis.size
        cell = panel_size / res
        vmax = float(np.abs(field.values).max())
        for row in range(res):
            y = y0 + panel_size - (row + 1) * cell
            colors = [reference_sign_color(float(field.values[col, row]), vmax) for col in range(res)]
            start = 0
            for col in range(1, res + 1):
                if col == res or colors[col] != colors[start]:
                    if colors[start] != "#ffffff":
                        cv.rect(x0 + start * cell, y, (col - start) * cell, cell, colors[start])
                    start = col
        half = float(field.axis[-1])
        scale = panel_size / (2.0 * half)
        cx = x0 + panel_size / 2.0
        cy = y0 + panel_size / 2.0
        radius = field.predicted_zero_radius * scale
        if radius < panel_size / 2.0:
            cv.circle(cx, cy, radius, stroke="#111111", width=1.2, dash="4,3")
        cv.parts.append(
            f'<rect x="{fmt(x0)}" y="{fmt(y0)}" width="{panel_size}" height="{panel_size}" '
            f'fill="none" stroke="#333333"/>'
        )
        cv.text(cx, y0 + panel_size + 18, f"y3 = {field.y3:g}", size=12, anchor="middle")
    cv.write(path)


def assert_csv_matches_reference(tmp_path, table):
    cli.write_outputs(tmp_path / "new", "t", table, {}, cli.load_config(None, {}), lambda path: path.write_text(""))
    reference_csv(tmp_path / "reference.csv", table)
    assert (tmp_path / "new" / "t.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 1e-5, 0.0001, 1.0, 2.5e300, -7.0]


def test_csv_edge_case_columns(tmp_path):
    n = len(EDGE_FLOATS)
    floats = np.array(EDGE_FLOATS)
    labels = ["", "a,b", 'say "hi"', "plain", "x\ny"] + [""] * (n - 5)
    with np.errstate(over="ignore"):
        float32 = floats.astype(np.float32)
    table = {
        "float64": floats,
        "float64_reversed": floats[::-1],
        "float32": float32,
        "python_floats": [float(v) for v in EDGE_FLOATS],
        "numpy_scalars": [np.float64(v) for v in EDGE_FLOATS],
        "int64": np.arange(n, dtype=np.int64) - 3,
        "numpy_ints": [np.int32(k) for k in range(n)],
        "labels, with comma": labels,
        "mixed": [7, "", 2.5, np.float64(-0.0), np.int64(-9), True, np.float32(0.1), "refused", None, 1j] + [""] * (n - 10),
    }
    assert_csv_matches_reference(tmp_path, table)


def test_csv_repeated_axis_and_empty_table(tmp_path):
    axis = np.linspace(-1.0, 1.0, 41)
    values = np.random.default_rng(3).standard_normal(41 * 41)
    values[::7] = 0.0
    values[::11] = -0.0
    table = {"x1": np.repeat(axis, 41), "x2": np.tile(axis, 41), "value": values}
    assert_csv_matches_reference(tmp_path / "grid", table)
    assert_csv_matches_reference(tmp_path / "empty", {"a": [], "b": np.array([])})


def bucket_boundaries(vmax):
    # |value| where level * 5 is exactly 1, 2, 3, 4 and 5, with the
    # neighbouring floats on each side.
    exact = 0.05 * vmax * np.sinh(np.arange(1, 6) / 5.0 * np.arcsinh(1.0 / 0.05))
    return np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)])


def sign_fields():
    rng = np.random.default_rng(11)
    axis = np.linspace(-1.0, 1.0, 21)
    random = rng.standard_normal((21, 21)) * 10.0 ** rng.integers(-6, 3, (21, 21))
    with_zeros = random.copy()
    with_zeros[rng.random((21, 21)) < 0.3] = 0.0
    with_zeros[rng.random((21, 21)) < 0.1] = -0.0
    boundaries = rng.choice(bucket_boundaries(3.0), (21, 21)) * rng.choice([-1.0, 1.0], (21, 21))
    boundaries[0, 0] = 3.0
    runs = np.repeat(rng.standard_normal((21, 3)), 7, axis=1)
    return [
        SignField(y3=0.2, axis=axis, values=random, zero_radius_estimate=np.nan),
        SignField(y3=0.1, axis=axis, values=with_zeros, zero_radius_estimate=np.nan),
        SignField(y3=0.05, axis=axis, values=np.zeros((21, 21)), zero_radius_estimate=np.nan),
        SignField(y3=0.02, axis=axis, values=boundaries, zero_radius_estimate=np.nan),
        SignField(y3=0.01, axis=axis, values=runs, zero_radius_estimate=np.nan),
    ]


def test_sign_codes_match_per_cell_colours():
    for field in sign_fields():
        vmax = float(np.abs(field.values).max())
        codes = svgplot.sign_codes(field.values)
        expected = [[reference_sign_color(float(v), vmax) for v in row] for row in field.values]
        assert [[svgplot.SIGN_COLORS[c] for c in row] for row in codes.tolist()] == expected


def test_sign_codes_refuse_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            svgplot.sign_codes(np.array([[1.0, bad], [0.0, -1.0]]))


def test_sign_panels_match_reference(tmp_path):
    fields = sign_fields()
    svgplot.sign_panels(tmp_path / "new.svg", fields, title="t")
    reference_sign_panels(tmp_path / "reference.svg", fields, title="t")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()


@pytest.mark.parametrize("points,circles", [(56, 56), (91, 91), (92, 0), (1024, 0)])
def test_line_chart_marks_points_only_while_markers_fit(tmp_path, points, circles):
    # 550 px of plot at the default width hold 91 markers of 6 px side by side.
    xs = np.arange(1.0, points + 1.0)
    svgplot.line_chart(tmp_path / "chart.svg", [("s", xs, xs**2)], logy=True)
    text = (tmp_path / "chart.svg").read_text()
    assert text.count("<circle") == circles
    assert text.count("<polyline") == 1 and text.split('points="')[1].split('"')[0].count(",") == points


def test_default_sign_map_matches_reference(tmp_path, monkeypatch):
    captured = {}
    draw = svgplot.sign_panels

    def capture_panels(path, fields, title):
        captured.update(fields=fields, title=title)
        draw(path, fields, title=title)

    monkeypatch.setattr(svgplot, "sign_panels", capture_panels)
    out = tmp_path / "out"
    assert cli.main(["sign-map", "--out", str(out)]) == cli.EXIT_OK
    fields = captured["fields"]
    rows = [(f.y3, f.axis[i], f.axis[j], f.values[i, j]) for f in fields for i in range(f.axis.size) for j in range(f.axis.size)]
    reference_csv(tmp_path / "reference.csv", dict(zip(["y3", "x1", "x2", "value"], map(list, zip(*rows)))))
    reference_sign_panels(tmp_path / "reference.svg", fields, title=captured["title"])
    assert (out / "sign-map.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert (out / "sign-map.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_default_tables_match_row_wise_reference(tmp_path, monkeypatch, command):
    tables = []
    write = cli.write_outputs

    def capture(out_dir, name, table, summary, config, chart):
        tables.append(table)
        write(out_dir, name, table, summary, config, chart)

    monkeypatch.setattr(cli, "write_outputs", capture)
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out)]) == cli.EXIT_OK
    (table,) = tables
    reference_csv(tmp_path / "reference.csv", table)
    assert (out / f"{command}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
