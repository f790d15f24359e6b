"""Planar regions and the tensor quadrature rule on a disk.

All experiments run on subsets of a disk of radius R centered at the
origin.  Cavities and probing balls are disks.  The disk quadrature
serves the Gram reference of the indicator module.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

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
        cx, cy, radius = float(self.center[0]), float(self.center[1]), float(self.radius)
        if not np.isfinite(radius) or radius <= 0.0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")
        if not (np.isfinite(cx) and np.isfinite(cy)):
            raise ValueError(f"disk center must be finite, got {self.center}")
        object.__setattr__(self, "center", (cx, cy))
        object.__setattr__(self, "radius", radius)

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


@dataclass(frozen=True)
class QuadratureRule:
    """Read-only quadrature nodes, shape (n, 2), and their n weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must be (n, 2), got {nodes.shape}")
        if weights.shape != (nodes.shape[0],):
            raise ValueError(f"weights shape {weights.shape} does not match {nodes.shape[0]} nodes")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


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
    return QuadratureRule(nodes=nodes, weights=weights)


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
