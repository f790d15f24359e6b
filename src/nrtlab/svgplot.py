"""Small deterministic SVG writers for sweep curves and sign maps.

Plots are built from the data alone with fixed formatting, so the same
inputs always produce byte-identical files.  Only two chart kinds are
needed: log-capable line charts for sweeps and per-height sign panels
for the kernel maps.
"""

from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
MARKER_RADIUS = 3.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#333333" stroke-width="1.0"/>'
        )

    def polyline(self, xs, ys, stroke):
        # xs and ys are arrays; Python floats format faster than numpy scalars, to the same text.
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs.tolist(), ys.tolist()))
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="1.6"/>')

    def circle(self, cx, cy, r, fill="none", stroke="none", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="{fill}"/>'
        )

    def text(self, x, y, s, size=12, anchor="start", fill="#111111"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{fill}">{s}</text>'
        )

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(self.parts))
            fh.write("\n")


def _axis_transform(lo: float, hi: float, log: bool):
    if log:
        lo, hi = np.log10(lo), np.log10(hi)
    if hi <= lo:  # one point: a unit span, or |lo| where lo + 1 would round back to lo
        hi = lo + max(1.0, abs(lo))
    span = hi - lo

    def to_unit(v):
        v = np.log10(v) if log else v
        return (v - lo) / span

    ticks = [lo + span * k / 4.0 for k in range(5)]
    labels = [_tick_label(10.0**t if log else t) for t in ticks]
    positions = [(t - lo) / span for t in ticks]
    return to_unit, positions, labels


def line_chart(path, series, title="", xlabel="", ylabel="", logx=False, logy=False):
    """Write a line chart; series is a list of (label, xs, ys) triples.

    Log axes require strictly positive data on that axis; nonpositive
    points are dropped from log-scaled plots.  A series marks its points
    only while they number at most plot width / marker diameter (91 on
    the 550 px plot), so a long series is drawn as its line alone.
    """
    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            keep &= xs > 0
        if logy:
            keep &= ys > 0
        cleaned.append((label, xs[keep], ys[keep]))
    # With no point left to plot, an axis spans [1, 10]: positive, so a log axis has finite ticks too.
    all_x = np.concatenate([xs for _, xs, _ in cleaned if xs.size]) if any(xs.size for _, xs, _ in cleaned) else np.array([1.0, 10.0])
    all_y = np.concatenate([ys for _, _, ys in cleaned if ys.size]) if any(ys.size for _, _, ys in cleaned) else np.array([1.0, 10.0])

    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 55
    plot_w = width - left - right
    plot_h = height - top - bottom
    fx, xticks, xlabels = _axis_transform(float(all_x.min()), float(all_x.max()), logx)
    fy, yticks, ylabels = _axis_transform(float(all_y.min()), float(all_y.max()), logy)

    cv = _Canvas(width, height)
    if title:
        cv.text(width / 2.0, 22, title, size=14, anchor="middle")
    cv.line(left, top, left, top + plot_h)
    cv.line(left, top + plot_h, left + plot_w, top + plot_h)
    for pos, label in zip(xticks, xlabels):
        x = left + pos * plot_w
        cv.line(x, top + plot_h, x, top + plot_h + 5)
        cv.text(x, top + plot_h + 20, label, size=11, anchor="middle")
    for pos, label in zip(yticks, ylabels):
        y = top + plot_h - pos * plot_h
        cv.line(left - 5, y, left, y)
        cv.text(left - 8, y + 4, label, size=11, anchor="end")
    if xlabel:
        cv.text(left + plot_w / 2.0, height - 12, xlabel, size=12, anchor="middle")
    if ylabel:
        cv.text(16, top - 10, ylabel, size=12, anchor="start")

    for idx, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        if xs.size == 0:
            continue
        px = left + fx(xs) * plot_w
        py = top + plot_h - fy(ys) * plot_h
        cv.polyline(px, py, color)
        # Markers only while the points could sit a marker apart across the plot.
        if xs.size * 2.0 * MARKER_RADIUS <= plot_w:
            for x, y in zip(px, py):
                cv.circle(x, y, MARKER_RADIUS, fill=color)
        if label:
            cv.text(left + plot_w - 6, top + 16 + 16 * idx, label, size=11, anchor="end", fill=color)
    cv.write(path)


def _shade_color(shade: float, negative: bool) -> str:
    if negative:
        r, g, b = 1.0 - shade, 1.0 - 0.6 * shade, 1.0
    else:
        r, g, b = 1.0, 1.0 - 0.75 * shade, 1.0 - 0.75 * shade
    return f"#{int(round(255 * r)):02x}{int(round(255 * g)):02x}{int(round(255 * b)):02x}"


# Five intensity buckets per sign on an asinh scale.  Code 0 is white
# (zero), 1-5 shade blue (negative), 6-10 shade red (positive).
_SHADES = (0.15, 0.32, 0.5, 0.7, 0.9)
SIGN_COLORS = ("#ffffff",) + tuple(_shade_color(s, True) for s in _SHADES) + tuple(_shade_color(s, False) for s in _SHADES)


def sign_codes(values: np.ndarray) -> np.ndarray:
    """Index into SIGN_COLORS of every value, scaled by the largest |value|."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("sign map values must be finite")
    vmax = float(np.abs(values).max())
    if vmax == 0.0:
        return np.zeros(values.shape, dtype=np.intp)
    level = np.arcsinh(np.abs(values) / (0.05 * vmax)) / np.arcsinh(1.0 / 0.05)
    bucket = np.minimum(4, (level * 5.0).astype(np.intp))
    codes = np.where(values < 0.0, 1 + bucket, 6 + bucket)
    codes[values == 0.0] = 0
    return codes


def sign_panels(path, fields, title=""):
    """Write side-by-side sign maps; fields is a list of SignField objects.

    Cells are run-length merged along rows, negative values shade blue
    and positive red, and the predicted zero circle is overlaid dashed.
    """
    n = len(fields)
    panel_size, gap = 260, 24
    margin = 30
    width = margin * 2 + n * panel_size + (n - 1) * gap
    height = margin + 46 + panel_size + 34
    cv = _Canvas(width, height)
    if title:
        cv.text(width / 2.0, 24, title, size=14, anchor="middle")
    for idx, field in enumerate(fields):
        x0 = margin + idx * (panel_size + gap)
        y0 = margin + 16
        res = field.axis.size
        cell = panel_size / res
        # Transposed so a row of codes runs along x1 at fixed x2.
        codes = sign_codes(field.values).T
        for row in range(res):
            # Draw x2 upward.
            y = y0 + panel_size - (row + 1) * cell
            line = codes[row]
            starts = np.flatnonzero(np.diff(line, prepend=-1)).tolist()
            for start, stop in zip(starts, starts[1:] + [res]):
                code = int(line[start])
                if code:
                    cv.rect(x0 + start * cell, y, (stop - start) * cell, cell, SIGN_COLORS[code])
        half = float(field.axis[-1])
        scale = panel_size / (2.0 * half)
        cx = x0 + panel_size / 2.0
        cy = y0 + panel_size / 2.0
        radius = field.predicted_zero_radius * scale
        if radius < panel_size / 2.0:
            cv.circle(cx, cy, radius, stroke="#111111", width=1.2, dash="4,3")
        cv.parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{panel_size}" height="{panel_size}" '
            f'fill="none" stroke="#333333"/>'
        )
        cv.text(cx, y0 + panel_size + 18, f"y3 = {field.y3:g}", size=12, anchor="middle")
    cv.write(path)
