"""Cross-checks with closed forms: pairing identity, sign maps, enclosure.

Three independent consistency routes for the cavity measurement:

* the Fourier pairing on r = R against -2 pi dx z_g(0) for the harmonic
  lift z_g, taken in closed form from the datum's cos(theta) mode, which
  must agree for every boundary datum;
* the sign of the second-normal-derivative kernel -d^2/dy3^2 (1/|x - y|)
  restricted to a horizontal plane, exactly sign(|x|^2 - 2 y3^2): each
  sampled cell is checked against it, one ray estimates the zero circle,
  and indefiniteness on a fixed patch as y3 -> 0 follows from its radius;
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
import sys
from dataclasses import dataclass

import numpy as np

from .harmonic import BoundaryData, boundary_pairing

# Trapezoid nodes on the shifted enclosure circle r = min(1, 1/tau).
ENCLOSURE_NODES = 64
# Largest probe frequency: on the shifted circle w_r grows like tau^2,
# which would overflow near tau = 1e154; the cap keeps every sweep far
# inside that range.
MAX_TAU = 1e6
# Smallest probe frequency, the smallest normal float64: below it
# tau e^(-i phi) loses bits that enclosure_bound does not count.
MIN_TAU = sys.float_info.min
# Rounding steps in the enclosure_bound derivation, in units of u rho_tau.
ENCLOSURE_KAPPA = 52
# Rounding steps in the sign_cell_counts band, in units of u (|x|^2 + 2 y3^2).
SIGN_KAPPA = 3


def gradient_identity(data: BoundaryData, boundary_radius: float, w_trace: BoundaryData) -> tuple[float, float]:
    """Both sides of the pairing identity for one boundary datum.

    Returns (pairing, gradient_form) where pairing integrates the
    Neumann gap trace against g over r = R and gradient_form is
    -2 pi dx z_g(0) for the harmonic lift z_g.  The lift carries mode n
    as g_n (r/R)^n, so only mode 1 has a gradient at the origin, and
    dx z_g(0) = g_1 / R.  The two sides agree mode by mode, so their
    difference is a pure roundoff residual.  w_trace is the explicit
    cavity's gap trace at this R, built once by a caller that pairs
    many data.
    """
    pairing = boundary_pairing(w_trace, data, boundary_radius)
    # R^-1 from numpy's array power, as dirichlet_disk_solve damps mode 1:
    # Python's R ** -1.0 differs from it in the last bit for some R.  The
    # 0.0 + turns a -0.0 mode into the lift's +0.0 gradient.
    dx_lift = 0.0 + data.cos_coeff[1] * (boundary_radius ** -np.arange(2.0))[1] if data.max_order >= 1 else 0.0
    return pairing, -2.0 * np.pi * float(dx_lift)


def probe_kernel(x1, x2, y3: float):
    """Restricted kernel -(2 y3^2 - x1^2 - x2^2) / (x1^2 + x2^2 + y3^2)^(5/2).

    This is -d^2/dy3^2 of 1/|x - y| evaluated at x = (x1, x2, 0) and
    y = (0, 0, y3), up to the constant 4 pi of the fundamental
    solution normalization, which is irrelevant for signs.

    With d^2 = x1^2 + x2^2 + y3^2, the denominator d^5 is formed as
    d^2 d^2 sqrt(d^2): two products and a correctly rounded root, so its
    bits do not depend on which of numpy's power loops the CPU selects,
    as those of d^2 ** 2.5 do, and it is within 3u of d^5 (u = 2^-53)
    wherever it is a normal float.  d^2 d^2 is itself normal for
    1.5e-154 < d^2 < 1.3e154, which holds every d^2 where d^5 is neither
    0 nor inf (about 3.6e-130 < d^2 < 2.0e123), so the product underflows
    to 0 and overflows where d^5 does, up to that rounding.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    rho_sq = x1 * x1 + x2 * x2
    dist_sq = rho_sq + y3 * y3
    return -(2.0 * y3 * y3 - rho_sq) / (dist_sq * dist_sq * np.sqrt(dist_sq))


@dataclass(frozen=True)
class SignField:
    """Kernel values on a square grid in the plane, with the zero circle.

    axis holds the shared x1/x2 grid, values[i, j] is the kernel at
    (axis[i], axis[j]).  zero_radius_estimate comes from the first sign
    change along one ray from the origin and is nan when no change
    occurs inside the grid.
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
    # The kernel is radial and negative at the origin: on one ray at the
    # sampling step, the first positive sample brackets the zero circle.
    radii = np.arange(step, half_width + 0.5 * step, step)
    positive = np.flatnonzero(probe_kernel(radii, 0.0, y3) > 0.0)
    return float(radii[positive[0]] - 0.5 * step) if positive.size else float("nan")


def sign_map(y3: float, half_width: float, resolution: int) -> SignField:
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


def sign_cell_counts(field: SignField) -> tuple[int, int, int, int, tuple[float, float, float] | None]:
    """Check every cell of a sign map against the closed-form sign of |x|^2 - 2 y3^2.

    Returns (negative, positive, band, mismatched, first): the cells of
    each closed-form sign outside the rounding band
    | |x|^2 - 2 y3^2 | <= kappa u (|x|^2 + 2 y3^2), u = 2^-53, kappa = SIGN_KAPPA,
    the cells inside it, the cells outside it whose kernel value has
    another sign, and (x1, x2, value) of the first of those in C order,
    or None.  The sign comes from the coordinates, never from probe_kernel.

    kappa = 2 + 1 to first order: fl(x1^2 + x2^2) is within 2u |x|^2 and
    fl(2 y3^2) within u 2 y3^2, so their difference, here and in the
    kernel's numerator alike, has the exact sign where it exceeds
    2u (|x|^2 + 2 y3^2); the third unit covers the band test's own
    roundings and the second-order terms.  kappa reads only the
    numerator: the kernel's denominator d^5, d^2 = |x|^2 + y3^2, is
    positive however it is formed (probe_kernel), and changes no sign.
    A subnormal square errs by at most 2^-1075, far inside the band
    wherever d^5 has not underflowed to 0, which takes d^2 > 3e-130.
    Outside the band the numerator is at least kappa u d^2, so the
    quotient is at least kappa u / d^3 > 3e-202 wherever d^5 did not
    overflow (then d^3 < 1e186): it cannot underflow to a signless zero.
    """
    sq = field.axis * field.axis
    rho_sq = sq[:, None] + sq
    two_y3_sq = 2.0 * field.y3 * field.y3
    gap = rho_sq - two_y3_sq
    band = np.abs(gap) <= SIGN_KAPPA * 2.0**-53 * (rho_sq + two_y3_sq)
    expected = np.where(band, 0.0, np.sign(gap))
    wrong = np.flatnonzero((expected != 0.0) & (np.sign(field.values) != expected))
    first = None
    if wrong.size:
        i, j = divmod(int(wrong[0]), field.axis.size)
        first = (float(field.axis[i]), float(field.axis[j]), float(field.values[i, j]))
    counts = (np.count_nonzero(expected < 0.0), np.count_nonzero(expected > 0.0), np.count_nonzero(band), wrong.size)
    return (*(int(n) for n in counts), first)


def sign_indefiniteness_certificate(y3_list, patch_radius: float) -> bool:
    """Check that the kernel changes sign on one fixed patch for every y3.

    The patch is the disk of radius patch_radius about the origin in
    the plane, the same for all heights; y3_list must be a nonempty
    strictly decreasing list of positive heights.  The kernel is
    negative at the origin and positive exactly outside the circle of
    radius sqrt(2) y3, so it takes both signs on the patch at every
    height exactly when patch_radius > sqrt(2) y3 at the first, largest
    height.  The comparison patch_radius^2 > 2 y3^2 is made exactly, on
    the floats' integer ratios (see certificate_margin).
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
    return certificate_margin(heights[0], patch_radius) > 0.0


def certificate_margin(y3: float, patch_radius: float) -> float:
    """patch_radius - sqrt(2) y3 at the largest height y3, with the exact sign of patch_radius^2 - 2 y3^2.

    With patch_radius = a / b and y3 = c / d as integer ratios, b and d
    powers of two, patch_radius^2 - 2 y3^2 = (a^2 d^2 - 2 c^2 b^2) / (b d)^2,
    whose numerator is never 0, as sqrt(2) is irrational.  The rounded
    difference is kept wherever its sign is that numerator's.  Within a
    few units of a tie it can read 0 or the other sign; there the margin
    is (patch_radius^2 - 2 y3^2) / (2 patch_radius) from the exact
    numerator, which is the difference to a relative few units since
    patch_radius and sqrt(2) y3 agree that closely, rounded away from 0
    to the smallest subnormal if it underflows.
    """
    a, b = float(patch_radius).as_integer_ratio()
    c, d = float(y3).as_integer_ratio()
    gap = a * a * d * d - 2 * c * c * b * b
    margin = patch_radius - math.sqrt(2.0) * y3
    if (margin > 0.0) != (gap > 0):
        margin = gap / (2 * a * b * d * d) or math.copysign(math.ulp(0.0), gap)
    return margin


def enclosure_closed_form(tau: float, phi: float) -> complex:
    """Exact value -2 pi tau e^{-i phi} of the enclosure integral."""
    return -2.0 * np.pi * tau * complex(np.cos(phi), -np.sin(phi))


def required_enclosure_order(tau: float, boundary_radius: float) -> int:
    """Trapezoid nodes of the shifted enclosure rule: ENCLOSURE_NODES for every tau and R."""
    return ENCLOSURE_NODES


def validate_taus(tau_list) -> list[float]:
    """Probe frequencies as floats: a nonempty, strictly increasing list in [MIN_TAU, MAX_TAU], else ValueError."""
    try:
        taus = [float(v) for v in tau_list]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"frequencies must be a list of numbers, got {tau_list!r}") from exc
    if not taus or not all(MIN_TAU <= v <= MAX_TAU for v in taus) or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"frequencies must be a nonempty, strictly increasing list in [{MIN_TAU:g}, {MAX_TAU:g}], got {taus}")
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
    if not MIN_TAU <= tau <= MAX_TAU:
        raise ValueError(f"probe frequency tau must be in [{MIN_TAU:g}, {MAX_TAU:g}], got {tau}")
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


def enclosure_sweep(tau_list, phi: float, boundary_radius: float) -> tuple[complex, ...]:
    """Enclosure integrals at the given probe frequencies, in order."""
    return tuple(enclosure_indicator(tau, phi, boundary_radius) for tau in validate_taus(tau_list))
