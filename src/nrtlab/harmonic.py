"""Harmonic functions on disks and annuli in separated polar form.

A harmonic function on an annulus around the origin is stored through
its expansion

    f(r, theta) = a_0 + sum_n r^n  (a_n cos n*theta + b_n sin n*theta)
                      + sum_n r^-n (c_n cos n*theta + d_n sin n*theta),

a regular part in r^n and a singular part in r^-n.  The module keeps
the coefficients and the closed-form problem the package is built
around: the Laplace solution with zero Neumann data on the inner circle
r = 1 and prescribed Dirichlet values on r = R, its harmonic extension
to the punctured disk, the full-disk comparison solution sharing the
Dirichlet trace, and the boundary pairing in Fourier form on r = R.
Point values and gradients are not needed by any experiment; the
gradient at the origin that the pairing identity compares against has
a closed form (see nrtlab.checks.gradient_identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _coeff_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a nonempty finite coefficient array")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BoundaryData:
    """Real trigonometric polynomial g(theta) on a circle.

    cos_coeff[n] multiplies cos(n*theta) and sin_coeff[n] multiplies
    sin(n*theta); index 0 of sin_coeff is ignored and kept at zero.
    Both arrays share the same length.
    """

    cos_coeff: np.ndarray
    sin_coeff: np.ndarray

    def __post_init__(self):
        cos_coeff = _coeff_array(self.cos_coeff, "cos_coeff")
        sin_coeff = _coeff_array(self.sin_coeff, "sin_coeff")
        if cos_coeff.shape != sin_coeff.shape:
            raise ValueError("cos_coeff and sin_coeff must have equal length")
        if sin_coeff[0] != 0.0:
            sin_coeff = sin_coeff.copy()
            sin_coeff[0] = 0.0
            sin_coeff.flags.writeable = False
        object.__setattr__(self, "cos_coeff", cos_coeff)
        object.__setattr__(self, "sin_coeff", sin_coeff)

    @property
    def max_order(self) -> int:
        return self.cos_coeff.size - 1

    @classmethod
    def mode(cls, order: int, kind: str, amplitude: float = 1.0) -> "BoundaryData":
        """Single Fourier mode amplitude*cos(n t) or amplitude*sin(n t)."""
        if order < 0:
            raise ValueError("mode order must be >= 0")
        if kind not in ("cos", "sin"):
            raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
        if kind == "sin" and order == 0:
            raise ValueError("sin mode requires order >= 1")
        cos_coeff = np.zeros(order + 1)
        sin_coeff = np.zeros(order + 1)
        if kind == "cos":
            cos_coeff[order] = amplitude
        else:
            sin_coeff[order] = amplitude
        return cls(cos_coeff, sin_coeff)


def random_boundary_data(order: int, rng: np.random.Generator) -> BoundaryData:
    """Boundary data with independent standard normal Fourier coefficients."""
    cos_coeff = rng.standard_normal(order + 1)
    sin_coeff = rng.standard_normal(order + 1)
    sin_coeff[0] = 0.0
    return BoundaryData(cos_coeff, sin_coeff)


@dataclass(frozen=True)
class HarmonicSeries:
    """Harmonic function in separated polar form around the origin.

    Coefficient arrays are indexed by mode number n.  regular_* hold the
    r^n terms (regular_cos[0] is the constant, regular_sin[0] is unused
    and forced to zero), singular_* hold the r^-n terms with the n = 0
    slots unused.
    """

    regular_cos: np.ndarray
    regular_sin: np.ndarray
    singular_cos: np.ndarray = field(default=None)
    singular_sin: np.ndarray = field(default=None)

    def __post_init__(self):
        regular_cos = _coeff_array(self.regular_cos, "regular_cos")
        regular_sin = _coeff_array(self.regular_sin, "regular_sin")
        if regular_cos.shape != regular_sin.shape:
            raise ValueError("regular_cos and regular_sin must have equal length")
        order = regular_cos.size - 1
        singular_cos = self.singular_cos if self.singular_cos is not None else np.zeros(order + 1)
        singular_sin = self.singular_sin if self.singular_sin is not None else np.zeros(order + 1)
        singular_cos = _coeff_array(singular_cos, "singular_cos")
        singular_sin = _coeff_array(singular_sin, "singular_sin")
        if singular_cos.shape != regular_cos.shape or singular_sin.shape != regular_cos.shape:
            raise ValueError("singular coefficient arrays must match the regular arrays in length")
        for name, arr in (("regular_sin", regular_sin), ("singular_cos", singular_cos), ("singular_sin", singular_sin)):
            if arr[0] != 0.0:
                arr = arr.copy()
                arr[0] = 0.0
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "regular_cos", regular_cos)

    @property
    def max_order(self) -> int:
        return self.regular_cos.size - 1


def annulus_neumann_solution(boundary_radius: float) -> HarmonicSeries:
    """Laplace solution on the annulus 1 < r < R around a unit cavity.

    Solves Delta u = 0 with du/dr = 0 on the cavity circle r = 1 and
    Dirichlet values (R + 1/R) cos(theta) on r = R, which singles out

        u(r, theta) = (r + 1/r) cos(theta).

    Returned as a series on the punctured disk; this is simultaneously
    the harmonic extension of u across the cavity, with its only
    singular behavior carried by the r^-1 mode.
    """
    if boundary_radius <= 1.0:
        raise ValueError(f"ambient radius must exceed the unit cavity radius, got {boundary_radius}")
    regular_cos = np.array([0.0, 1.0])
    singular_cos = np.array([0.0, 1.0])
    return HarmonicSeries(
        regular_cos=regular_cos,
        regular_sin=np.zeros(2),
        singular_cos=singular_cos,
        singular_sin=np.zeros(2),
    )


def dirichlet_disk_solve(data: BoundaryData, boundary_radius: float) -> HarmonicSeries:
    """Harmonic function on the disk of radius R with trace data on r = R.

    Mode n of the data is carried by (r/R)^n, so the solution series has
    regular coefficients data_n / R^n and no singular part.
    """
    if boundary_radius <= 0.0:
        raise ValueError(f"ambient radius must be positive, got {boundary_radius}")
    n = np.arange(data.max_order + 1)
    damp = boundary_radius ** (-n.astype(float))
    return HarmonicSeries(
        regular_cos=data.cos_coeff * damp,
        regular_sin=data.sin_coeff * damp,
    )


def gap_neumann_trace(u: HarmonicSeries, boundary_radius: float) -> BoundaryData:
    """Neumann trace on r = R of the gap between u and its full-disk match.

    For w = u - v with v harmonic on the whole disk and v = u on r = R,
    only the singular part of u survives in dw/dr: mode n contributes
    -2 n singular_n R^(-n-1), and the constant mode is 0.
    """
    if boundary_radius <= 0.0:
        raise ValueError(f"ambient radius must be positive, got {boundary_radius}")
    R = boundary_radius
    n = np.arange(u.max_order + 1)
    factor = -2.0 * n * R ** (-n - 1.0)
    cos_coeff = u.singular_cos * factor
    sin_coeff = u.singular_sin * factor
    # +0.0, not the -0.0 of factor[0]: the constant case pairs to 0.0.
    cos_coeff[0] = 0.0
    return BoundaryData(cos_coeff, sin_coeff)


def boundary_pairing(w_trace: BoundaryData, data: BoundaryData, boundary_radius: float) -> float:
    """Integral of (dw/dnu) * g over the circle r = R via Parseval.

    With both factors as Fourier series on the circle,

        integral = 2 pi R w_0 g_0
                 + pi R sum_n (wc_n gc_n + ws_n gs_n).
    """
    if boundary_radius <= 0.0:
        raise ValueError(f"ambient radius must be positive, got {boundary_radius}")
    R = boundary_radius
    order = min(w_trace.max_order, data.max_order)
    # R goes in last: w_n falls like R^(-n-1), so 2 pi R first would overflow near the float64 maximum.
    total = 2.0 * np.pi * (R * (w_trace.cos_coeff[0] * data.cos_coeff[0]))
    if order >= 1:
        total += np.pi * (R * float(
            w_trace.cos_coeff[1 : order + 1] @ data.cos_coeff[1 : order + 1]
            + w_trace.sin_coeff[1 : order + 1] @ data.sin_coeff[1 : order + 1]
        ))
    return float(total)
