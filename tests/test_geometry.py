"""Region predicates and quadrature exactness against polar closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrtlab.geometry import (
    DiskRegion,
    OriginLocation,
    QuadratureRule,
    build_disk_quadrature,
    point_power,
    power_sign,
    validate_admissible,
)
from reference import CircleContour, as_points, build_contour_quadrature, disk_contains, exact_power, near


def test_as_points_shapes():
    arr, single = as_points((1.0, 2.0))
    assert single and arr.shape == (1, 2)
    arr, single = as_points(np.zeros((5, 2)))
    assert not single and arr.shape == (5, 2)
    with pytest.raises(ValueError):
        as_points(np.zeros((5, 3)))


def test_disk_validation():
    with pytest.raises(ValueError):
        DiskRegion((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        DiskRegion((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        DiskRegion((np.nan, 0.0), 1.0)


def test_disk_contains():
    disk = DiskRegion((1.0, 0.0), 0.5)
    assert disk_contains(disk, (1.2, 0.1))
    assert disk_contains(disk, (1.5, 0.0))
    assert not disk_contains(disk, (1.6, 0.0))
    flags = disk_contains(disk, np.array([[1.0, 0.0], [2.0, 2.0]]))
    assert flags.tolist() == [True, False]


@pytest.mark.parametrize(
    "center,radius,expected",
    [
        ((0.0, 0.0), 0.5, OriginLocation.INSIDE),
        ((0.2, 0.1), 0.5, OriginLocation.INSIDE),
        ((1.3, 0.0), 0.25, OriginLocation.OUTSIDE),
        ((0.5, 0.0), 0.5, OriginLocation.BOUNDARY),
        ((0.5 + 1e-12, 0.0), 0.5, OriginLocation.OUTSIDE),
    ],
)
def test_classify_origin(center, radius, expected):
    assert DiskRegion(center, radius).classify_origin() is expected


def test_quadrature_rule_validation():
    nodes = np.zeros((4, 2))
    with pytest.raises(ValueError):
        QuadratureRule(nodes=nodes, weights=np.ones(3))
    rule = QuadratureRule(nodes=nodes, weights=np.ones(4))
    with pytest.raises(ValueError):
        rule.nodes[0, 0] = 1.0


def test_disk_quadrature_basic_moments():
    disk = DiskRegion((0.0, 0.0), 1.0)
    rule = build_disk_quadrature(disk, 8, 16)
    assert_allclose(rule.weights @ np.ones(rule.size), np.pi, rtol=1e-12)
    rsq = rule.nodes[:, 0] ** 2 + rule.nodes[:, 1] ** 2
    assert_allclose(rule.weights @ rsq, np.pi / 2.0, rtol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_disk_quadrature_radial_exactness(k):
    # integral of (x^2+y^2)^k over the unit disk is 2 pi / (2k + 2).
    disk = DiskRegion((0.0, 0.0), 1.0)
    rule = build_disk_quadrature(disk, 8, 16)
    rsq = rule.nodes[:, 0] ** 2 + rule.nodes[:, 1] ** 2
    assert_allclose(rule.weights @ rsq**k, 2.0 * np.pi / (2.0 * k + 2.0), rtol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_disk_quadrature_angular_exactness(m):
    disk = DiskRegion((0.0, 0.0), 1.0)
    rule = build_disk_quadrature(disk, 8, 16)
    theta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
    assert abs(rule.weights @ np.cos(m * theta)) < 1e-13
    assert abs(rule.weights @ np.sin(m * theta)) < 1e-13


def test_disk_quadrature_shifted_center():
    disk = DiskRegion((2.0, -3.0), 0.7)
    rule = build_disk_quadrature(disk, 10, 24)
    area = np.pi * 0.7**2
    assert_allclose(rule.weights @ np.ones(rule.size), area, rtol=1e-12)
    assert_allclose(rule.weights @ rule.nodes[:, 0], 2.0 * area, rtol=1e-12)
    assert_allclose(rule.weights @ rule.nodes[:, 1], -3.0 * area, rtol=1e-12)


@pytest.mark.parametrize("order", [8, 60, 80])
def test_disk_quadrature_cached_radial_rule_is_bit_identical(order):
    # Repeated builds must match a build from numpy's Gauss-Legendre
    # rule bit for bit.
    disk = DiskRegion((1.3, 0.0), 0.25)
    x, wx = np.polynomial.legendre.leggauss(order)
    r = 0.5 * disk.radius * (x + 1.0)
    wr = wx * (0.5 * disk.radius) * r
    expected = np.outer(wr, np.full(24, 2.0 * np.pi / 24)).ravel()
    first, second = build_disk_quadrature(disk, order, 24), build_disk_quadrature(disk, order, 24)
    assert np.array_equal(first.weights, expected) and np.array_equal(second.weights, expected)
    assert np.array_equal(first.nodes, second.nodes)


def test_contour_quadrature_moments():
    contour = CircleContour((0.0, 0.0), 0.5)
    rule = build_contour_quadrature(contour, 64)
    assert_allclose(rule.weights @ np.ones(rule.size), contour.length, rtol=1e-14)
    theta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
    assert_allclose(rule.weights @ np.cos(theta) ** 2, np.pi * 0.5, rtol=1e-13)
    assert abs(rule.weights @ np.cos(5 * theta)) < 1e-13


def test_contour_on_contour_predicate():
    contour = CircleContour((0.1, 0.0), 0.1)
    assert contour.on_contour((0.0, 0.0))
    assert contour.on_contour((0.2, 0.0))
    assert not contour.on_contour((0.1, 0.0))


def test_validate_admissible():
    validate_admissible(DiskRegion((0.0, 0.0), 0.5), 2.0)
    validate_admissible(DiskRegion((1.3, 0.0), 0.25), 2.0)
    with pytest.raises(ValueError):
        validate_admissible(DiskRegion((1.5, 0.0), 0.5), 2.0)
    with pytest.raises(ValueError):
        validate_admissible(DiskRegion((0.0, 0.0), 2.5), 2.0)
    with pytest.raises(ValueError):
        validate_admissible(DiskRegion((0.0, 0.0), 0.5), -1.0)
    for radius in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            validate_admissible(DiskRegion((0.3, 0.0), 0.5), radius)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def test_point_power_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(500):
        values = rng.uniform(-1.0, 1.0, 6) * 10.0 ** rng.integers(-300, 300, 6)
        point, center, radii = values[:2], values[2:4], values[4:]
        num, den = point_power(point, center, *radii)
        assert Fraction(num, den) == exact_power(point, center, *radii)
        assert power_sign(point, center, *radii) == sign(num)
    assert point_power((0.0, 0.0), (0.5, 0.0), 0.5) == (0, 4)
    with pytest.raises((ValueError, OverflowError)):
        point_power((0.0, 0.0), (0.5, 0.0), float("inf"))


@pytest.mark.parametrize("scale", [1.0, 1e-160, 5e-324, 1e160, 1e300])
def test_power_sign_is_exact_where_floats_round_underflow_or_overflow(scale):
    # Ties and their neighbours at scales where the squares underflow or
    # overflow, so the float evaluation defers to the exact power.
    for center in ([3.0 * scale, 4.0 * scale], [0.0, scale]):
        radius = math.hypot(*center) if scale != 5e-324 else abs(center[1])
        for cx in near(center[0]):
            for rho in near(radius):
                args = ((0.0, 0.0), (cx, center[1]), rho)
                assert power_sign(*args) == sign(exact_power(*args)), (cx, rho)


# Disks whose circle passes through the origin: exactly, but for the last, whose
# rounded |c| equals rho with the origin a unit inside.
TANGENT_DISKS = [((0.5, 0.0), 0.5), ((0.0, -0.3), 0.3), ((0.75, 1.0), 1.25), ((-3.0, 4.0), 5.0), ((0.29999999999999993, 0.0), 0.3)]


@pytest.mark.parametrize("center,radius", TANGENT_DISKS)
def test_classify_origin_matches_rationals_next_to_tangency(center, radius):
    want = {-1: OriginLocation.INSIDE, 0: OriginLocation.BOUNDARY, 1: OriginLocation.OUTSIDE}
    for cx in near(center[0]):
        for rho in near(radius):
            expected = want[sign(exact_power((0.0, 0.0), (cx, center[1]), rho))]
            assert DiskRegion((cx, center[1]), rho).classify_origin() is expected, (cx, rho)


# Cavities whose closure touches the ambient circle r = R exactly, as (center, rho, R).
TOUCHING_CAVITIES = [((1.5, 0.0), 0.5, 2.0), ((0.75, 1.0), 0.75, 2.0), ((0.0, 0.0), 1.2, 1.2), ((0.0, -0.7), 0.5, 1.2)]


@pytest.mark.parametrize("center,rho,boundary_radius", TOUCHING_CAVITIES)
def test_validate_admissible_matches_rationals_next_to_the_ambient_circle(center, rho, boundary_radius):
    # Admissible exactly when rho < R and |c|^2 < (R - rho)^2.
    for cy in near(center[1]):
        for r in near(rho):
            for big in near(boundary_radius):
                cavity = DiskRegion((center[0], cy), r)
                want = r < big and exact_power((0.0, 0.0), cavity.center, big, -r) < 0
                try:
                    validate_admissible(cavity, big)
                except ValueError:
                    assert not want, (cy, r, big)
                else:
                    assert want, (cy, r, big)


def test_bad_orders_rejected():
    disk = DiskRegion((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        build_disk_quadrature(disk, 0, 16)
    with pytest.raises(ValueError):
        build_contour_quadrature(CircleContour((0.0, 0.0), 1.0), 0)
