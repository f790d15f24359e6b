"""Planar regions, contours and quadrature rules.

All experiments run on subsets of a disk of radius R centered at the
origin.  Cavities and probing balls are disks, and Green-type pairings
are evaluated on circles.
Quadrature rules pair a node/weight table with the region they were
built for, so downstream code can reject integrands that are singular
inside the integration domain.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance for deciding whether a point sits on a circle.
BOUNDARY_RTOL = 1e-9


def as_points(points) -> tuple[np.ndarray, bool]:
    """Normalize point input to an (n, 2) float array.

    Accepts a single point (any length-2 sequence) or an (n, 2) array.
    Returns the array together with a flag telling whether the input was
    a single point, so callers can unwrap scalar results.
    """
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected a point or an (n, 2) array, got shape {np.shape(points)}")
    single = np.asarray(points).ndim == 1
    return arr, single


class OriginLocation(enum.Enum):
    """Position of the origin relative to a closed disk."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class DiskRegion:
    """Closed disk with center (cx, cy) and positive radius."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")
        cx, cy = float(self.center[0]), float(self.center[1])
        if not (np.isfinite(cx) and np.isfinite(cy)):
            raise ValueError(f"disk center must be finite, got {self.center}")
        object.__setattr__(self, "center", (cx, cy))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def area(self) -> float:
        return np.pi * self.radius**2

    def contains(self, points, tol: float = 0.0):
        """Membership in the closed disk, with an optional additive margin."""
        pts, single = as_points(points)
        d = np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])
        inside = d <= self.radius + tol
        return bool(inside[0]) if single else inside

    def classify_origin(self, tol: float = BOUNDARY_RTOL) -> OriginLocation:
        """Classify the origin as inside, outside or on the boundary circle.

        The tolerance band ``|dist - radius| <= tol * max(1, radius)`` is
        treated as the boundary, so near-tangent configurations fail loudly
        instead of silently landing on either side.
        """
        d = np.hypot(self.center[0], self.center[1])
        band = tol * max(1.0, self.radius)
        if d < self.radius - band:
            return OriginLocation.INSIDE
        if d > self.radius + band:
            return OriginLocation.OUTSIDE
        return OriginLocation.BOUNDARY

    def to_dict(self) -> dict:
        return {"shape": "disk", "center": [self.center[0], self.center[1]], "radius": self.radius}

    @classmethod
    def from_dict(cls, data: dict) -> "DiskRegion":
        if data.get("shape", "disk") != "disk":
            raise ValueError(f"unsupported region shape {data.get('shape')!r}")
        cx, cy = data["center"]
        return cls(center=(float(cx), float(cy)), radius=float(data["radius"]))


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


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights and the region the rule integrates over.

    kind is "area" for two-dimensional rules (weights carry the area
    element) and "contour" for line rules (weights carry arclength).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    region: object = field(default=None)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must be (n, 2), got {nodes.shape}")
        if weights.shape != (nodes.shape[0],):
            raise ValueError(f"weights shape {weights.shape} does not match {nodes.shape[0]} nodes")
        if self.kind not in ("area", "contour"):
            raise ValueError(f"kind must be 'area' or 'contour', got {self.kind!r}")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values sampled at the nodes."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.weights.shape:
            raise ValueError(f"values shape {values.shape} does not match rule size {self.size}")
        return float(self.weights @ values)


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy's leggauss costs milliseconds at the orders Runge fits use,
    # and every fit asks for the same few; the arrays are shared, so
    # they are read-only.
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_disk_quadrature(region: DiskRegion, radial_order: int, angular_order: int) -> QuadratureRule:
    """Tensor rule on a disk: Gauss-Legendre in radius, trapezoid in angle.

    The radial Gauss-Legendre rule on [-1, 1] is mapped to [0, rho] and
    the polar Jacobian r is folded into its weights, so integrands whose
    radial factor is a polynomial of degree <= 2*radial_order - 2 and
    trigonometric polynomials of degree <= angular_order - 1 are
    integrated exactly.
    """
    if radial_order < 1 or angular_order < 1:
        raise ValueError("quadrature orders must be >= 1")
    x, wx = _gauss_legendre(radial_order)
    r = 0.5 * region.radius * (x + 1.0)
    wr = wx * (0.5 * region.radius) * r
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    wt = np.full(angular_order, 2.0 * np.pi / angular_order)

    R, T = np.meshgrid(r, theta, indexing="ij")
    nodes = np.column_stack(
        [
            region.center[0] + (R * np.cos(T)).ravel(),
            region.center[1] + (R * np.sin(T)).ravel(),
        ]
    )
    weights = np.outer(wr, wt).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, kind="area", region=region)


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
    weights = np.full(order, contour.length / order)
    return QuadratureRule(nodes=nodes, weights=weights, kind="contour", region=contour)


def validate_admissible(cavity: DiskRegion, boundary_radius: float, tol: float = BOUNDARY_RTOL) -> None:
    """Check that a cavity disk sits strictly inside the ambient disk.

    The ambient domain is the disk of radius boundary_radius about the
    origin.  For a disk cavity strictly inside it the complement is
    automatically connected, so only the inclusion needs checking.
    Raises ValueError when the closure of the cavity touches or crosses
    the ambient boundary.
    """
    if boundary_radius <= 0.0:
        raise ValueError(f"ambient radius must be positive, got {boundary_radius}")
    d = np.hypot(cavity.center[0], cavity.center[1])
    margin = tol * max(1.0, boundary_radius)
    if d + cavity.radius >= boundary_radius - margin:
        raise ValueError(
            f"cavity disk(center={cavity.center}, radius={cavity.radius}) is not strictly "
            f"inside the ambient disk of radius {boundary_radius}"
        )
