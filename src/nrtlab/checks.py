"""Cross-checks with closed forms: pairing identity, sign maps, enclosure.

Three independent consistency routes for the cavity measurement:

* the Fourier pairing on r = R against the gradient of the harmonic
  lift at the origin, which must agree for every boundary datum;
* the sign structure of the second-normal-derivative kernel
  -d^2/dy3^2 (1/|x - y|) restricted to a horizontal plane, whose zero
  set is the circle of radius sqrt(2) y3 and whose indefiniteness on a
  fixed patch persists as y3 -> 0;
* the enclosure-method indicator with complex exponential probes,
  which admits the closed form -2 pi tau e^{-i phi}, so its normalized
  log modulus decays like log(2 pi tau) / tau.

The enclosure integral lives on r = R, where the probe reaches
e^{tau R} while the answer has size 2 pi tau.  Green's identity moves
it to the circle r = min(1, 1/tau), where the probe stays below e, so
one fixed 64-node trapezoid rule in float64 gives it for every tau up
to MAX_TAU within the a priori rounding bound of enclosure_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonic import (
    BoundaryData,
    annulus_neumann_solution,
    boundary_pairing,
    dirichlet_disk_solve,
    gap_neumann_trace,
)

# Trapezoid nodes on the shifted enclosure circle r = min(1, 1/tau).
ENCLOSURE_NODES = 64
# Largest probe frequency: on the shifted circle w_r grows like tau^2,
# which would overflow near tau = 1e154; the cap keeps every sweep far
# inside that range.
MAX_TAU = 1e6
# Rounding steps in the enclosure_bound derivation, in units of u rho_tau.
ENCLOSURE_KAPPA = 52
# Polar sample grid of the sign-indefiniteness certificate on its patch.
CERTIFICATE_RADII = 48
CERTIFICATE_ANGLES = 64


def gradient_identity(data: BoundaryData, boundary_radius: float, w_trace: BoundaryData | None = None) -> tuple[float, float]:
    """Both sides of the pairing identity for one boundary datum.

    Returns (pairing, gradient_form) where pairing integrates the
    Neumann gap trace against g over r = R and gradient_form is
    -2 pi dx z_g(0) for the harmonic lift z_g.  The two agree mode by
    mode, so their difference is a pure roundoff residual.  w_trace is
    the explicit cavity's gap trace at this R; a caller that pairs many
    data passes it in once instead of having it rebuilt per datum.
    """
    if w_trace is None:
        w_trace = gap_neumann_trace(annulus_neumann_solution(boundary_radius), boundary_radius)
    pairing = boundary_pairing(w_trace, data, boundary_radius)
    lift = dirichlet_disk_solve(data, boundary_radius)
    grad0 = lift.grad((0.0, 0.0))
    return pairing, -2.0 * np.pi * float(grad0[0])


def probe_kernel(x1, x2, y3: float):
    """Restricted kernel -(2 y3^2 - x1^2 - x2^2) / (x1^2 + x2^2 + y3^2)^(5/2).

    This is -d^2/dy3^2 of 1/|x - y| evaluated at x = (x1, x2, 0) and
    y = (0, 0, y3), up to the constant 4 pi of the fundamental
    solution normalization, which is irrelevant for signs.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    rho_sq = x1 * x1 + x2 * x2
    dist_sq = rho_sq + y3 * y3
    return -(2.0 * y3 * y3 - rho_sq) / dist_sq**2.5


@dataclass(frozen=True)
class SignField:
    """Kernel values on a square grid in the plane, with the zero circle.

    axis holds the shared x1/x2 grid, values[i, j] is the kernel at
    (axis[i], axis[j]).  zero_radius_estimate comes from sign changes
    along rays from the origin and is nan when no change occurs inside
    the grid.
    """

    y3: float
    axis: np.ndarray
    values: np.ndarray
    zero_radius_estimate: float

    def __post_init__(self):
        axis = np.ascontiguousarray(np.asarray(self.axis, dtype=float))
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if axis.ndim != 1 or values.shape != (axis.size, axis.size):
            raise ValueError("values must be a square grid over axis x axis")
        axis.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)

    @property
    def grid_step(self) -> float:
        return float(self.axis[1] - self.axis[0])

    @property
    def predicted_zero_radius(self) -> float:
        return float(np.sqrt(2.0) * self.y3)


def _radial_zero_estimate(y3: float, half_width: float, step: float) -> float:
    # The kernel is negative at the origin; walk 8 rays outward and
    # bracket the first sign change at the sampling step.
    estimates = []
    radii = np.arange(step, half_width + 0.5 * step, step)
    for k in range(8):
        angle = k * np.pi / 4.0
        x1 = radii * np.cos(angle)
        x2 = radii * np.sin(angle)
        vals = probe_kernel(x1, x2, y3)
        signs = np.sign(vals)
        prev = -1.0
        hit = np.nan
        for r, s in zip(radii, signs):
            if s > 0.0 and prev < 0.0:
                hit = r - 0.5 * step
                break
            if s != 0.0:
                prev = s
        estimates.append(hit)
    estimates = np.asarray(estimates)
    if np.all(np.isnan(estimates)):
        return float("nan")
    return float(np.nanmean(estimates))


def sign_map(y3: float, half_width: float = 1.0, resolution: int = 101) -> SignField:
    """Sample the restricted kernel on a centered square grid.

    resolution must be odd so the origin is a grid point; the kernel is
    strictly negative there (value -2 / y3^3), positive outside the
    circle of radius sqrt(2) y3, and the returned estimate brackets
    that circle to within one grid cell when it fits inside the grid.
    """
    if y3 <= 0.0:
        raise ValueError(f"plane height y3 must be positive, got {y3}")
    if half_width <= 0.0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if resolution < 3 or resolution % 2 == 0:
        raise ValueError(f"resolution must be an odd integer >= 3, got {resolution}")
    axis = np.linspace(-half_width, half_width, resolution)
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    values = probe_kernel(X1, X2, y3)
    step = axis[1] - axis[0]
    estimate = _radial_zero_estimate(y3, half_width, step)
    return SignField(y3=float(y3), axis=axis, values=values, zero_radius_estimate=estimate)


def sign_indefiniteness_certificate(y3_list, patch_radius: float) -> bool:
    """Check that the kernel changes sign on one fixed patch for every y3.

    The patch is the disk of radius patch_radius about the origin in
    the plane, the same for all heights; y3_list must be a nonempty
    strictly decreasing list of positive heights.  Returns True when
    strictly positive and strictly negative samples are found on the
    patch at every height, which is the discrete form of sign
    indefiniteness persisting down the height sequence.
    """
    heights = [float(v) for v in y3_list]
    if len(heights) == 0:
        raise ValueError("y3_list must be nonempty")
    if any(v <= 0.0 for v in heights):
        raise ValueError(f"all heights must be positive, got {heights}")
    if any(b >= a for a, b in zip(heights, heights[1:])):
        raise ValueError(f"heights must be strictly decreasing, got {heights}")
    if patch_radius <= 0.0:
        raise ValueError(f"patch_radius must be positive, got {patch_radius}")
    radii = np.linspace(0.0, patch_radius, CERTIFICATE_RADII + 1)[1:]
    angles = np.linspace(0.0, 2.0 * np.pi, CERTIFICATE_ANGLES, endpoint=False)
    RR, TT = np.meshgrid(radii, angles, indexing="ij")
    x1 = RR * np.cos(TT)
    x2 = RR * np.sin(TT)
    for y3 in heights:
        vals = probe_kernel(x1, x2, y3)
        center = probe_kernel(0.0, 0.0, y3)
        has_negative = bool(center < 0.0 or np.any(vals < 0.0))
        has_positive = bool(np.any(vals > 0.0))
        if not (has_negative and has_positive):
            return False
    return True


def enclosure_closed_form(tau: float, phi: float) -> complex:
    """Exact value -2 pi tau e^{-i phi} of the enclosure integral."""
    return -2.0 * np.pi * tau * complex(np.cos(phi), -np.sin(phi))


def required_enclosure_order(tau: float, boundary_radius: float) -> int:
    """Trapezoid nodes of the shifted enclosure rule: ENCLOSURE_NODES for every tau and R."""
    return ENCLOSURE_NODES


def validate_taus(tau_list) -> list[float]:
    """Probe frequencies as floats: a nonempty, strictly increasing list in [tiny, MAX_TAU], else ValueError."""
    try:
        taus = [float(v) for v in tau_list]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"frequencies must be a list of numbers, got {tau_list!r}") from exc
    # The smallest normal float64: below it tau e^(-i phi) loses bits that enclosure_bound does not count.
    tiny = np.finfo(float).tiny
    if not taus or not all(tiny <= v <= MAX_TAU for v in taus) or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"frequencies must be a nonempty, strictly increasing list in [{tiny:g}, {MAX_TAU:g}], got {taus}")
    return taus


def enclosure_indicator(tau: float, phi: float, boundary_radius: float) -> complex:
    """Enclosure integral for one probe frequency, by contour shift.

    The integral pairs the explicit Neumann gap trace with the complex
    exponential probe v = exp(tau e^{-i phi} z) over r = R.  The gap
    w = (1/r - r/R^2) cos(theta) is harmonic on 0 < r <= R and vanishes
    on r = R, and v is entire, so Green's identity moves the pairing to

        integral over r = eta of (w_r v - w v_r) ds,   eta = min(1, 1/tau),

    where |v| <= e.  Only the cos(theta) e^{i theta} products survive,
    the integrand is an entire function of e^{i theta} with no
    cancellation, and the trapezoid rule with ENCLOSURE_NODES nodes is
    exact to rounding: its aliasing error is below 1/63!.
    """
    if not 0.0 < tau <= MAX_TAU:
        raise ValueError(f"probe frequency tau must be in (0, {MAX_TAU:g}], got {tau}")
    if not np.isfinite(phi):
        raise ValueError(f"probe direction phi must be finite, got {phi}")
    if boundary_radius <= 1.0:
        raise ValueError(f"ambient radius must exceed the unit cavity radius, got {boundary_radius}")
    R = float(boundary_radius)
    eta = min(1.0, 1.0 / tau)
    a = tau * complex(np.cos(phi), -np.sin(phi))
    rotor = np.exp(2j * np.pi * np.arange(ENCLOSURE_NODES) / ENCLOSURE_NODES)
    z = a * eta * rotor
    # 1 / R / R rather than R**2, which overflows a Python float past R ~ 1.3e154.
    w_r = -(1.0 / eta**2 + 1.0 / R / R)
    w = 1.0 / eta - eta / R / R
    # cos(theta) (w_r v - w v_r) with v_r = a e^{i theta} v on r = eta.  The
    # constant 1 in v integrates to zero against cos(theta); pairing w_r
    # with v - 1 keeps that zero out of the sum, which matters for tau << 1.
    total = np.sum(rotor.real * (w_r * np.expm1(z) - w * a * rotor * np.exp(z)))
    return complex(total) * (2.0 * np.pi * eta / ENCLOSURE_NODES)


@dataclass(frozen=True)
class EnclosureSample:
    """One probe frequency with its computed integral value."""

    tau: float
    phi: float
    value: complex

    @property
    def modulus(self) -> float:
        return abs(self.value)

    @property
    def log_over_tau(self) -> float:
        return float(np.log(self.modulus) / self.tau)


def enclosure_bound(tau: float, boundary_radius: float) -> float:
    """A priori bound on the relative error of enclosure_indicator against its closed form.

    beta = kappa u max(1, rho), u = 2^-53, kappa = ENCLOSURE_KAPPA, with
    rho = eta (|w_r| expm1(x) + |w| tau e^x) / tau and x = tau eta <= 1:
    each of the 64 terms is at most M = |w_r| expm1(x) + |w| tau e^x in
    modulus, and 2 pi eta M = rho |I_tau| < (2e - 1) |I_tau|.  As I = -2 pi a
    on every circle r = eta < R for every complex a, the rounded eta and a
    are exact inputs.  To first order, with each operation and libm call
    within u, a complex product within sqrt(5) u, and x e^x / expm1(x)
    <= e / (e - 1), kappa = 10 + 37 + 5 counts
      10  the pairwise sum: eight running sums of eight, then a 3-level tree;
      37  per term, in units of u M: w_r 3; w 3.2 (its error stays below
          2 u |w_r| x e^x where it cancels); z 5.3 ((1 + sqrt 5) u |z|,
          times e^x); exp or expm1 1; the products and difference 7.6; the
          nodes 16 (fl(2 pi k) / 64 and e^(i theta) move theta_k by 5.2 u
          on average, against a theta-derivative below 3 M);
       5  in units of u |I_tau|: a, the scale 2 pi eta / 64 and its
          product, and the closed form's two products (np.pi cancels).
    The aliasing error, below 1/63!, falls under one rounding.
    """
    R = float(boundary_radius)
    eta = min(1.0, 1.0 / tau)
    x = tau * eta
    w_r = 1.0 / eta**2 + 1.0 / R / R
    w = abs(1.0 / eta - eta / R / R)
    rho = eta * (w_r * math.expm1(x) + w * tau * math.exp(x)) / tau
    return ENCLOSURE_KAPPA * 2.0**-53 * max(1.0, rho)


def enclosure_sweep(tau_list, phi: float, boundary_radius: float) -> tuple[EnclosureSample, ...]:
    """Enclosure samples at the given probe frequencies, in order."""
    taus = validate_taus(tau_list)
    return tuple(EnclosureSample(tau, float(phi), enclosure_indicator(tau, phi, boundary_radius)) for tau in taus)
