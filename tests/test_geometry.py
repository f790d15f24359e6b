"""Region predicates and quadrature exactness against polar closed forms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrtlab import geometry
from nrtlab.geometry import (
    DiskRegion,
    OriginLocation,
    QuadratureRule,
    as_points,
    build_disk_quadrature,
    validate_admissible,
)
from reference import CircleContour, build_contour_quadrature, disk_contains


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
        ((0.5 + 1e-12, 0.0), 0.5, OriginLocation.BOUNDARY),
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
    # The radial Gauss-Legendre rule is cached per order; repeated
    # builds must match an uncached build bit for bit, and the shared
    # rule must not be writable through any caller.
    disk = DiskRegion((1.3, 0.0), 0.25)
    x, wx = np.polynomial.legendre.leggauss(order)
    r = 0.5 * disk.radius * (x + 1.0)
    wr = wx * (0.5 * disk.radius) * r
    expected = np.outer(wr, np.full(24, 2.0 * np.pi / 24)).ravel()
    first, second = build_disk_quadrature(disk, order, 24), build_disk_quadrature(disk, order, 24)
    assert np.array_equal(first.weights, expected) and np.array_equal(second.weights, expected)
    assert np.array_equal(first.nodes, second.nodes)
    cached_x, cached_w = geometry._gauss_legendre(order)
    assert not cached_x.flags.writeable and not cached_w.flags.writeable


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


def test_bad_orders_rejected():
    disk = DiskRegion((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        build_disk_quadrature(disk, 0, 16)
    with pytest.raises(ValueError):
        build_contour_quadrature(CircleContour((0.0, 0.0), 1.0), 0)
