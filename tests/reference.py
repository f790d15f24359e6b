"""Reference implementations that the tests check nrtlab's output against.

No nrtlab subcommand reaches any of these, so they live with the tests
rather than in the package.  Each keeps the guards it had there:

* point values of boundary data and harmonic series, and a series'
  trace on a circle, against the polar formulas typed out in the tests;
* membership in a closed disk;
* the logarithmic point source log|x - p|;
* circle contours with their trapezoid rule, and the Green pairing on an
  interior circle, the second route to the boundary pairing on r = R;
* the H1 inner product by area quadrature;
* a Runge fit's pairing modes rescaled to the constraint radius, the
  boundary-data route to the scaled pairing that `nrtlab runge` takes
  as -2 pi dx P(0) times the same scale;
* the Runge fit on samples: Vandermonde with Arnoldi on the 2m fit
  points and a least-squares solve over them, the route that
  `runge_fit` replaces by the circles' Taylor coefficients.

The quadrature Gram system and its sup stay in nrtlab.indicator, next
to the disk quadrature they use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nrtlab.geometry import DiskRegion, QuadratureRule, as_points
from nrtlab.harmonic import BoundaryData, HarmonicSeries
from nrtlab.indicator import RungeFit


def boundary_eval(g: BoundaryData, theta):
    """g at the angles theta (scalar or array)."""
    theta = np.asarray(theta, dtype=float)
    n = np.arange(g.cos_coeff.size)
    angles = np.multiply.outer(theta, n)
    out = np.cos(angles) @ g.cos_coeff + np.sin(angles) @ g.sin_coeff
    return float(out) if out.ndim == 0 else out


def series_eval(s: HarmonicSeries, points):
    """s at a point or an (n, 2) array of points; a series with singular terms refuses the origin."""
    z, single = s._complex_input(points)
    out = np.full(z.shape, s.regular_cos[0])
    if s.log_coeff != 0.0:
        out = out + s.log_coeff * np.log(np.abs(z))
    power = np.ones_like(z)
    for n in range(1, s.max_order + 1):
        power = power * z
        out = out + s.regular_cos[n] * power.real + s.regular_sin[n] * power.imag
    if np.any(s.singular_cos) or np.any(s.singular_sin):
        inv = 1.0 / z
        power = np.ones_like(z)
        for n in range(1, s.max_order + 1):
            power = power * inv
            out = out + s.singular_cos[n] * power.real - s.singular_sin[n] * power.imag
    return float(out[0]) if single else out


def series_trace(s: HarmonicSeries, radius: float) -> BoundaryData:
    """Dirichlet trace of s on the circle of given radius about the origin."""
    if radius <= 0.0:
        raise ValueError(f"trace radius must be positive, got {radius}")
    n = np.arange(s.max_order + 1)
    cos_coeff = s.regular_cos * radius**n + s.singular_cos * radius ** (-n.astype(float))
    sin_coeff = s.regular_sin * radius**n + s.singular_sin * radius ** (-n.astype(float))
    cos_coeff[0] += s.log_coeff * np.log(radius)
    return BoundaryData(cos_coeff, sin_coeff)


def disk_contains(disk: DiskRegion, points, tol: float = 0.0):
    """Membership in the closed disk, with an optional additive margin."""
    pts, single = as_points(points)
    d = np.hypot(pts[:, 0] - disk.center[0], pts[:, 1] - disk.center[1])
    inside = d <= disk.radius + tol
    return bool(inside[0]) if single else inside


@dataclass(frozen=True)
class LogSource:
    """Logarithmic point source x -> log|x - p|, harmonic away from p."""

    point: tuple[float, float]

    def __post_init__(self):
        px, py = float(self.point[0]), float(self.point[1])
        if not (np.isfinite(px) and np.isfinite(py)):
            raise ValueError(f"source point must be finite, got {self.point}")
        object.__setattr__(self, "point", (px, py))

    def _offsets(self, points):
        pts, single = as_points(points)
        dx = pts[:, 0] - self.point[0]
        dy = pts[:, 1] - self.point[1]
        if np.any((dx == 0.0) & (dy == 0.0)):
            raise ValueError(f"log source cannot be evaluated at its singular point {self.point}")
        return dx, dy, single

    def eval(self, points):
        dx, dy, single = self._offsets(points)
        out = 0.5 * np.log(dx * dx + dy * dy)
        return float(out[0]) if single else out

    def grad(self, points):
        dx, dy, single = self._offsets(points)
        rr = dx * dx + dy * dy
        out = np.column_stack([dx / rr, dy / rr])
        return out[0] if single else out


def evaluate(f, points):
    """Values of a LogSource or a HarmonicSeries at the points."""
    return f.eval(points) if isinstance(f, LogSource) else series_eval(f, points)


def singular_points(f) -> tuple[tuple[float, float], ...]:
    """Where f is undefined: a source's point, or the origin for a series with singular terms."""
    if isinstance(f, LogSource):
        return (f.point,)
    return ((0.0, 0.0),) if f.has_singular_part else ()


def h1_inner(f, g, rule: QuadratureRule, region: DiskRegion) -> float:
    """H1 inner product, the integral of f g + grad f . grad g, by an area rule on region.

    Integrands with a singular point inside region are rejected, since
    the quadrature sum would be meaningless there.
    """
    for fn in (f, g):
        for point in singular_points(fn):
            if disk_contains(region, point):
                raise ValueError(f"integrand is singular at {point} inside the integration region {region}")
    dens = evaluate(f, rule.nodes) * evaluate(g, rule.nodes)
    dens = dens + np.einsum("ij,ij->i", f.grad(rule.nodes), g.grad(rule.nodes))
    return float(rule.weights @ dens)


@dataclass(frozen=True)
class CircleContour:
    """Oriented circle used for line integrals; normal points outward."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"contour radius must be positive, got {self.radius}")
        cx, cy = float(self.center[0]), float(self.center[1])
        object.__setattr__(self, "center", (cx, cy))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def length(self) -> float:
        return 2.0 * np.pi * self.radius

    def on_contour(self, points, rtol: float = 1e-12):
        """True where a point lies on the circle up to a relative band."""
        pts, single = as_points(points)
        d = np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])
        hit = np.abs(d - self.radius) <= rtol * max(1.0, self.radius)
        return bool(hit[0]) if single else hit


def build_contour_quadrature(contour: CircleContour, order: int) -> QuadratureRule:
    """Trapezoid rule on a circle, exact for trigonometric degree <= order - 1."""
    if order < 1:
        raise ValueError("contour order must be >= 1")
    theta = 2.0 * np.pi * np.arange(order) / order
    nodes = np.column_stack(
        [
            contour.center[0] + contour.radius * np.cos(theta),
            contour.center[1] + contour.radius * np.sin(theta),
        ]
    )
    return QuadratureRule(nodes=nodes, weights=np.full(order, contour.length / order))


def _reject_singular_on_contour(f, contour: CircleContour) -> None:
    for point in singular_points(f):
        if contour.on_contour(point):
            raise ValueError(f"integrand is singular at {point} on the contour {contour}")


def contour_pairing_pieces(f, z, contour: CircleContour, quad: QuadratureRule | None = None) -> tuple[float, float]:
    """The two halves of the Green pairing on a circle.

    Returns (flux_term, value_term) with

        flux_term  = integral (df/dnu) z  ds
        value_term = integral f (dz/dnu) ds

    over the contour, normals pointing away from the contour center.
    Anything with a singular point on the contour is rejected, and so is
    a rule whose nodes do not lie on it.
    """
    _reject_singular_on_contour(f, contour)
    _reject_singular_on_contour(z, contour)
    if quad is None:
        quad = build_contour_quadrature(contour, order=256)
    elif not np.all(contour.on_contour(quad.nodes)):
        raise ValueError("contour pairing requires a rule whose nodes lie on the contour")
    pts = quad.nodes
    normal = (pts - np.asarray(contour.center)) / contour.radius
    fn_flux = np.einsum("ij,ij->i", f.grad(pts), normal)
    zn_flux = np.einsum("ij,ij->i", z.grad(pts), normal)
    flux_term = float(quad.weights @ (fn_flux * evaluate(z, pts)))
    value_term = float(quad.weights @ (evaluate(f, pts) * zn_flux))
    return flux_term, value_term


def contour_green_pairing(f, z, contour: CircleContour, quad: QuadratureRule | None = None) -> float:
    """Green pairing integral (df/dnu) z - f (dz/dnu) over a circle."""
    flux_term, value_term = contour_pairing_pieces(f, z, contour, quad)
    return flux_term - value_term


def scaled_sequence(fit: RungeFit, eps: float) -> BoundaryData:
    """Rescale the fitted boundary data so the fit has H1(G) norm near eps/2.

    The scale eps / (2 ||E_t||_{H1(G)}) uses the probe norm as the size
    reference; since the fit P tracks the probe on G, the scaled P lands
    close to eps/2 while the pairing inherits the same factor.  fit.g
    holds only the modes of P's trace that the pairing sees, so the
    result carries the scaled pairing, not the scaled P.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if fit.norm_on_G <= 0.0:
        raise ValueError("probe norm on the test region vanishes; cannot scale")
    return fit.g.scaled(eps / (2.0 * fit.norm_on_G))


def arnoldi_on_points(z: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Vandermonde with Arnoldi on the points z, up to degree order.

    Returns (Q, H): row k of Q holds q_k at the points, where q_0 = 1 and
    q_{k+1} = (z q_k - sum_{i<=k} H[i, k] q_i) / H[k+1, k], every row of
    2-norm sqrt(z.size) and the rows orthogonal (Brubeck, Nakatsukasa and
    Trefethen, SIAM Review 63(2), 2021).  Each step is block classical
    Gram-Schmidt with one reorthogonalisation.
    """
    count = z.size
    Q = np.empty((order + 1, count), dtype=complex)
    H = np.zeros((order + 1, order), dtype=complex)
    Q[0] = 1.0
    for k in range(order):
        v = z * Q[k]
        basis = Q[: k + 1]
        for _ in range(2):
            h = (basis @ v.conj()).conj() / count
            v -= h @ basis
            H[: k + 1, k] += h
        H[k + 1, k] = np.linalg.norm(v) / math.sqrt(count)
        Q[k + 1] = v / H[k + 1, k]
    return Q, H


def _derivative_at_origin(H: np.ndarray, coeff: np.ndarray) -> complex:
    """p'(0) for p = sum_k coeff[k] q_k, through H's recurrence."""
    order = H.shape[1]
    q = np.zeros(order + 1, dtype=complex)
    dq = np.zeros(order + 1, dtype=complex)
    q[0] = 1.0
    for k in range(order):
        q[k + 1] = -(H[: k + 1, k] @ q[: k + 1]) / H[k + 1, k]
        dq[k + 1] = (q[k] - H[: k + 1, k] @ dq[: k + 1]) / H[k + 1, k]
    return coeff @ dq


def _sampled_h1_norm_sq(samples: np.ndarray, rho: float) -> np.ndarray:
    """Squared H1 norm on disk(c, rho) of the harmonic functions whose traces have these m samples."""
    m = samples.shape[-1]
    # |F_n|^2 / m^2 is a_0^2 at n = 0 and (a_n^2 + b_n^2) / 4 above.
    power = np.abs(np.fft.rfft(samples, axis=-1)[..., : (m + 1) // 2]) ** 2 / (m * m)
    n = np.arange(power.shape[-1])
    weight = 4.0 * np.pi * (n + rho * rho / (2.0 * (n + 1.0)))
    weight[0] = np.pi * rho * rho
    return power @ weight


@dataclass(frozen=True)
class PointSpaceFit:
    """What the sampled Runge fit reports; see point_space_runge_fit."""

    H: np.ndarray
    coeff: np.ndarray
    n_retained: int
    dx_p0: float
    residual: float
    pairing_bound: float


def point_space_runge_fit(t: float, cavity: DiskRegion, order: int) -> PointSpaceFit:
    """The Runge fit of E_t = log|x - t e1| on samples, the reference for runge_fit's fit on coefficients.

    Vandermonde with Arnoldi on the m = 4N + 16 equispaced points of each
    of the circles bounding G and B = B(0, t/2), real least squares over
    those 2m points with numpy's default rank rule, H1 norms from one FFT
    of the fitted samples per circle, the bound's 4m samples on the circle
    of B by zero-padding that circle's FFT, and p'(0) through H's
    recurrence.  The caller keeps t e1 off both closed disks.
    """
    m = 4 * order + 16
    circle = np.exp(2j * np.pi * np.arange(m) / m)
    z = np.concatenate([complex(*cavity.center) + cavity.radius * circle, 0.5 * t * circle])
    probe = np.log(np.abs(z - t))
    Q, H = arnoldi_on_points(z, order)
    A = np.concatenate([Q.real, -Q[1:].imag]).T
    x, _, rank, _ = np.linalg.lstsq(A, probe, rcond=None)
    coeff = x[: order + 1] + 1j * np.concatenate([[0.0], x[order + 1 :]])
    fitted = A @ x
    on_G = _sampled_h1_norm_sq(fitted[:m] - probe[:m], cavity.radius)
    residual = math.sqrt(on_G + _sampled_h1_norm_sq(fitted[m:] - probe[m:], 0.5 * t))
    fine = 0.5 * t * np.exp(2j * np.pi * np.arange(4 * m) / (4 * m))
    # irfft divides by its output length 4m, not m, hence the factor 4.
    on_fine = np.fft.irfft(np.fft.rfft(fitted[m:]), 4 * m) * 4.0
    pairing_bound = 8.0 / np.pi * float(np.max(np.abs(on_fine - np.log(np.abs(fine - t)))))
    dp0 = _derivative_at_origin(H, coeff)
    return PointSpaceFit(H, coeff, int(rank), float(dp0.real), residual, pairing_bound)
