"""Planar regions and the tensor quadrature rule on a disk.

All experiments run on subsets of a disk of radius R centered at the
origin.  Cavities and probing balls are disks.  The disk quadrature
serves the Gram reference of the indicator module.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np


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

    def classify_origin(self) -> OriginLocation:
        """Classify the origin as inside, outside or on the boundary circle, exactly (see power_sign)."""
        sign = power_sign((0.0, 0.0), self.center, self.radius)
        if sign < 0:
            return OriginLocation.INSIDE
        if sign > 0:
            return OriginLocation.OUTSIDE
        return OriginLocation.BOUNDARY


def point_power(point, center, *radii) -> tuple[int, int]:
    """|point - center|^2 - (sum of radii)^2, exactly, as integers (numerator, denominator).

    This is the power of point with respect to the circle about center
    whose radius is the exact sum of the radii: negative inside, 0 on
    the circle, positive outside.  Every finite float is a / b with b a
    power of two (float.as_integer_ratio), so each input is an integer
    over the largest such b, D, and the result an integer over D^2, with
    no rounding anywhere.  Non-finite inputs raise.
    """
    ratios = list(map(float.as_integer_ratio, map(float, (*point, *center, *radii))))
    scale = max(map(operator.itemgetter(1), ratios))
    px, py, cx, cy, *rs = [a * (scale // b) for a, b in ratios]
    return (px - cx) ** 2 + (py - cy) ** 2 - sum(rs) ** 2, scale * scale


def power_sign(point, center, *radii) -> int:
    """The sign of point_power(point, center, *radii), -1, 0 or 1, exactly.

    The float evaluation v = dx^2 + dy^2 - s^2 decides it where
    |v| > 8 u m + 2^-1070, m = dx^2 + dy^2 + s^2 in floats, u = 2^-53:
    dx, dy and s = sum(radii) (one or two terms) are off by u relatively,
    each square by 3u more and 2^-1075 once subnormal, the sum and the
    difference by u of their size, so v is off by less than 5.1 u m plus
    five subnormal roundings.  Elsewhere, and where a square overflows,
    point_power decides.
    """
    px, py, cx, cy, s = map(float, (*point, *center, sum(radii)))
    dx, dy = px - cx, py - cy
    v = dx * dx + dy * dy - s * s
    if abs(v) > 2.0**-50 * (dx * dx + dy * dy + s * s) + 2.0**-1070:
        return 1 if v > 0.0 else -1
    power = point_power(point, center, *radii)[0]
    return (power > 0) - (power < 0)


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
    x, wx = np.polynomial.legendre.leggauss(radial_order)
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


def validate_admissible(cavity: DiskRegion, boundary_radius: float) -> None:
    """Check that a cavity disk sits strictly inside the ambient disk.

    The ambient domain is the disk of radius boundary_radius about the
    origin.  For a disk cavity strictly inside it the complement is
    automatically connected, so only the inclusion needs checking:
    rho < R and |c|^2 < (R - rho)^2, decided exactly (see power_sign).
    Raises ValueError for a non-finite or non-positive R, and when the
    closure of the cavity touches or crosses the ambient boundary.
    """
    if not (math.isfinite(boundary_radius) and boundary_radius > 0.0):
        raise ValueError(f"ambient radius must be positive and finite, got {boundary_radius}")
    if not (cavity.radius < boundary_radius and power_sign((0.0, 0.0), cavity.center, boundary_radius, -cavity.radius) < 0):
        raise ValueError(
            f"cavity disk(center={cavity.center}, radius={cavity.radius}) is not strictly "
            f"inside the ambient disk of radius {boundary_radius}"
        )
