"""Harmonic functions on disks and annuli in separated polar form.

A harmonic function on an annulus around the origin is stored through
its expansion

    f(r, theta) = a_0 + gamma * log r
               + sum_n r^n  (a_n cos n*theta + b_n sin n*theta)
               + sum_n r^-n (c_n cos n*theta + d_n sin n*theta),

equivalently f = Re(F(z)) + gamma * log|z| with
F(z) = a_0 + sum_n (a_n - i b_n) z^n + sum_n (c_n + i d_n) z^-n.
Evaluation and gradients go through the complex form, which keeps the
cos/sin bookkeeping in one place and avoids pow() edge cases at the
origin.  Functions with singular terms (negative powers or the log)
refuse evaluation at the origin.

The module also provides the closed-form annulus problem the package
is built around: the Laplace solution with zero Neumann data on the
inner circle r = 1 and prescribed Dirichlet values on r = R, its
harmonic extension to the punctured disk, the full-disk comparison
solution sharing the Dirichlet trace, and the two boundary pairings
(Fourier form on r = R and Green form on an interior contour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CircleContour, QuadratureRule, as_points, build_contour_quadrature


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
    def mode(cls, order: int, kind: str = "cos", amplitude: float = 1.0) -> "BoundaryData":
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

    def eval(self, theta):
        """Evaluate g at angles theta (scalar or array)."""
        theta = np.asarray(theta, dtype=float)
        n = np.arange(self.cos_coeff.size)
        angles = np.multiply.outer(theta, n)
        out = np.cos(angles) @ self.cos_coeff + np.sin(angles) @ self.sin_coeff
        return float(out) if out.ndim == 0 else out

    def scaled(self, factor: float) -> "BoundaryData":
        return BoundaryData(self.cos_coeff * factor, self.sin_coeff * factor)

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "cos_coeff": self.cos_coeff.tolist(),
            "sin_coeff": self.sin_coeff.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundaryData":
        return cls(np.asarray(data["cos_coeff"], dtype=float), np.asarray(data["sin_coeff"], dtype=float))


def random_boundary_data(order: int, rng: np.random.Generator, scale: float = 1.0) -> BoundaryData:
    """Boundary data with independent N(0, scale^2) Fourier coefficients."""
    cos_coeff = scale * rng.standard_normal(order + 1)
    sin_coeff = scale * rng.standard_normal(order + 1)
    sin_coeff[0] = 0.0
    return BoundaryData(cos_coeff, sin_coeff)


@dataclass(frozen=True)
class HarmonicSeries:
    """Harmonic function in separated polar form around the origin.

    Coefficient arrays are indexed by mode number n.  regular_* hold the
    r^n terms (regular_cos[0] is the constant, regular_sin[0] is unused
    and forced to zero), singular_* hold the r^-n terms with the n = 0
    slots unused, and log_coeff multiplies log r.  Singular terms and
    the log make the function undefined at the origin; evaluation there
    raises instead of returning garbage.
    """

    regular_cos: np.ndarray
    regular_sin: np.ndarray
    singular_cos: np.ndarray = field(default=None)
    singular_sin: np.ndarray = field(default=None)
    log_coeff: float = 0.0

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
        object.__setattr__(self, "log_coeff", float(self.log_coeff))
        if not np.isfinite(self.log_coeff):
            raise ValueError("log_coeff must be finite")

    @property
    def max_order(self) -> int:
        return self.regular_cos.size - 1

    @property
    def has_singular_part(self) -> bool:
        return bool(np.any(self.singular_cos) or np.any(self.singular_sin) or self.log_coeff != 0.0)

    def singular_points(self) -> tuple[tuple[float, float], ...]:
        """Points where the function is undefined (the origin, if any)."""
        return ((0.0, 0.0),) if self.has_singular_part else ()

    def _complex_input(self, points) -> tuple[np.ndarray, bool]:
        pts, single = as_points(points)
        z = pts[:, 0] + 1j * pts[:, 1]
        if self.has_singular_part and np.any(z == 0.0):
            raise ValueError("series with singular terms cannot be evaluated at the origin")
        return z, single

    def eval(self, points):
        """Evaluate at a point or an (n, 2) array of points."""
        z, single = self._complex_input(points)
        out = np.full(z.shape, self.regular_cos[0])
        if self.log_coeff != 0.0:
            out = out + self.log_coeff * np.log(np.abs(z))
        power = np.ones_like(z)
        for n in range(1, self.max_order + 1):
            power = power * z
            out = out + self.regular_cos[n] * power.real + self.regular_sin[n] * power.imag
        if np.any(self.singular_cos) or np.any(self.singular_sin):
            inv = 1.0 / z
            power = np.ones_like(z)
            for n in range(1, self.max_order + 1):
                power = power * inv
                out = out + self.singular_cos[n] * power.real - self.singular_sin[n] * power.imag
        return float(out[0]) if single else out

    def grad(self, points):
        """Gradient; returns (2,) for a single point, (n, 2) otherwise.

        Uses f = Re(F) + gamma log|z| with grad Re(F) = (Re F', -Im F')
        and grad log|z| = (x, y)/|z|^2 = conj(1/z) componentwise.
        """
        z, single = self._complex_input(points)
        dF = np.zeros_like(z)
        power = np.ones_like(z)
        for n in range(1, self.max_order + 1):
            dF = dF + n * (self.regular_cos[n] - 1j * self.regular_sin[n]) * power
            power = power * z
        if np.any(self.singular_cos) or np.any(self.singular_sin) or self.log_coeff != 0.0:
            inv = 1.0 / z
            if self.log_coeff != 0.0:
                dF = dF + self.log_coeff * inv
            power = inv * inv
            for n in range(1, self.max_order + 1):
                dF = dF - n * (self.singular_cos[n] + 1j * self.singular_sin[n]) * power
                power = power * inv
        out = np.column_stack([dF.real, -dF.imag])
        return out[0] if single else out

    def trace(self, radius: float) -> BoundaryData:
        """Dirichlet trace on the circle of given radius about the origin."""
        if radius <= 0.0:
            raise ValueError(f"trace radius must be positive, got {radius}")
        n = np.arange(self.max_order + 1)
        up = radius**n
        down = radius ** (-n.astype(float))
        cos_coeff = self.regular_cos * up + self.singular_cos * down
        sin_coeff = self.regular_sin * up + self.singular_sin * down
        cos_coeff[0] += self.log_coeff * np.log(radius)
        return BoundaryData(cos_coeff, sin_coeff)

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "regular_cos": self.regular_cos.tolist(),
            "regular_sin": self.regular_sin.tolist(),
            "singular_cos": self.singular_cos.tolist(),
            "singular_sin": self.singular_sin.tolist(),
            "log_coeff": self.log_coeff,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HarmonicSeries":
        return cls(
            regular_cos=np.asarray(data["regular_cos"], dtype=float),
            regular_sin=np.asarray(data["regular_sin"], dtype=float),
            singular_cos=np.asarray(data["singular_cos"], dtype=float),
            singular_sin=np.asarray(data["singular_sin"], dtype=float),
            log_coeff=float(data.get("log_coeff", 0.0)),
        )


@dataclass(frozen=True)
class LogSource:
    """Logarithmic point source x -> log|x - p|, harmonic away from p."""

    point: tuple[float, float]

    def __post_init__(self):
        px, py = float(self.point[0]), float(self.point[1])
        if not (np.isfinite(px) and np.isfinite(py)):
            raise ValueError(f"source point must be finite, got {self.point}")
        object.__setattr__(self, "point", (px, py))

    def singular_points(self) -> tuple[tuple[float, float], ...]:
        return (self.point,)

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
    -2 n singular_n R^(-n-1) and the log term contributes gamma / R to
    the constant mode.
    """
    if boundary_radius <= 0.0:
        raise ValueError(f"ambient radius must be positive, got {boundary_radius}")
    R = boundary_radius
    n = np.arange(u.max_order + 1)
    factor = -2.0 * n * R ** (-n - 1.0)
    cos_coeff = u.singular_cos * factor
    sin_coeff = u.singular_sin * factor
    cos_coeff[0] = u.log_coeff / R
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
    total = 2.0 * np.pi * R * w_trace.cos_coeff[0] * data.cos_coeff[0]
    if order >= 1:
        total += np.pi * R * float(
            w_trace.cos_coeff[1 : order + 1] @ data.cos_coeff[1 : order + 1]
            + w_trace.sin_coeff[1 : order + 1] @ data.sin_coeff[1 : order + 1]
        )
    return float(total)


def _reject_singular_on_contour(f, contour: CircleContour) -> None:
    singular = getattr(f, "singular_points", None)
    if singular is None:
        return
    for point in singular():
        if contour.on_contour(point):
            raise ValueError(f"integrand is singular at {point} on the contour {contour}")


def contour_pairing_pieces(f, z, contour: CircleContour, quad: QuadratureRule | None = None) -> tuple[float, float]:
    """The two halves of the Green pairing on a circle.

    Returns (flux_term, value_term) with

        flux_term  = integral (df/dnu) z  ds
        value_term = integral f (dz/dnu) ds

    over the contour, normals pointing away from the contour center.
    Both integrands must expose eval/grad; anything with a declared
    singular point on the contour is rejected.
    """
    _reject_singular_on_contour(f, contour)
    _reject_singular_on_contour(z, contour)
    if quad is None:
        quad = build_contour_quadrature(contour, order=256)
    elif quad.kind != "contour":
        raise ValueError("contour pairing requires a contour quadrature rule")
    pts = quad.nodes
    normal = (pts - np.asarray(contour.center)) / contour.radius
    fn_flux = np.einsum("ij,ij->i", np.asarray(f.grad(pts)), normal)
    zn_flux = np.einsum("ij,ij->i", np.asarray(z.grad(pts)), normal)
    flux_term = quad.integrate(fn_flux * np.asarray(z.eval(pts)))
    value_term = quad.integrate(np.asarray(f.eval(pts)) * zn_flux)
    return flux_term, value_term


def contour_green_pairing(f, z, contour: CircleContour, quad: QuadratureRule | None = None) -> float:
    """Green pairing integral (df/dnu) z - f (dz/dnu) over a circle."""
    flux_term, value_term = contour_pairing_pieces(f, z, contour, quad)
    return flux_term - value_term
