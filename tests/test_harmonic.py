"""Series evaluation, solvers and pairings against independent oracles.

Oracles used here: literal polar formulas typed out separately from the
series code, centered finite differences for gradients and Neumann
traces, a five-point Laplacian for harmonicity, and plain trapezoid
quadrature for the Parseval pairing.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrtlab.geometry import DiskRegion, build_disk_quadrature
from nrtlab.harmonic import (
    BoundaryData,
    HarmonicSeries,
    annulus_neumann_solution,
    boundary_pairing,
    dirichlet_disk_solve,
    gap_neumann_trace,
    random_boundary_data,
)
from reference import (
    CircleContour,
    LogSource,
    boundary_eval,
    build_contour_quadrature,
    contour_green_pairing,
    contour_pairing_pieces,
    series_eval,
    series_trace,
)

R = 2.0


def random_series(rng, order, singular=True):
    return HarmonicSeries(
        regular_cos=rng.standard_normal(order + 1),
        regular_sin=rng.standard_normal(order + 1),
        singular_cos=rng.standard_normal(order + 1) if singular else None,
        singular_sin=rng.standard_normal(order + 1) if singular else None,
        log_coeff=float(rng.standard_normal()) if singular else 0.0,
    )


def test_boundary_data_eval_matches_cosine_sum():
    g = BoundaryData(np.array([0.5, 1.0, 0.0, 2.0]), np.array([0.0, 0.0, -1.5, 0.0]))
    theta = np.linspace(0.0, 2.0 * np.pi, 7)
    direct = 0.5 + np.cos(theta) + 2.0 * np.cos(3.0 * theta) - 1.5 * np.sin(2.0 * theta)
    assert_allclose(boundary_eval(g, theta), direct, rtol=0.0, atol=1e-14)


def test_boundary_data_mode():
    g = BoundaryData.mode(2, "cos", 3.0)
    assert g.max_order == 2
    assert g.cos_coeff.tolist() == [0.0, 0.0, 3.0] and not g.sin_coeff.any()
    g = BoundaryData.mode(5, "sin", -1.0)
    assert g.max_order == 5
    assert g.sin_coeff[5] == -1.0 and np.count_nonzero(g.sin_coeff) == 1 and not g.cos_coeff.any()
    with pytest.raises(ValueError):
        BoundaryData.mode(0, "sin")
    with pytest.raises(ValueError):
        BoundaryData.mode(1, "tan")


def test_annulus_solution_literal_formula():
    u = annulus_neumann_solution(R)
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rng.uniform(0.3, 2.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        point = (r * np.cos(theta), r * np.sin(theta))
        assert_allclose(series_eval(u, point), (r + 1.0 / r) * np.cos(theta), rtol=1e-13)


def test_annulus_solution_boundary_conditions():
    # Zero radial derivative on r = 1, prescribed values on r = R.
    u = annulus_neumann_solution(R)
    theta = np.linspace(0.0, 2.0 * np.pi, 13)
    unit = np.column_stack([np.cos(theta), np.sin(theta)])
    assert_allclose(np.einsum("ij,ij->i", u.grad(unit), unit), 0.0, atol=1e-15)
    top = series_trace(u, R)
    expected = np.zeros(2)
    expected[1] = R + 1.0 / R
    assert_allclose(top.cos_coeff, expected, rtol=1e-15)
    with pytest.raises(ValueError):
        annulus_neumann_solution(0.9)


def test_series_gradient_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(10):
        s = random_series(rng, int(rng.integers(1, 9)))
        r = rng.uniform(0.5, 1.5)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p = np.array([r * np.cos(theta), r * np.sin(theta)])
        fd = np.array(
            [
                (series_eval(s, p + [h, 0.0]) - series_eval(s, p - [h, 0.0])) / (2.0 * h),
                (series_eval(s, p + [0.0, h]) - series_eval(s, p - [0.0, h])) / (2.0 * h),
            ]
        )
        assert_allclose(s.grad(p), fd, rtol=1e-5, atol=1e-7)


def test_series_harmonicity_five_point_laplacian():
    rng = np.random.default_rng(2)
    h = 1e-4
    for _ in range(15):
        s = random_series(rng, int(rng.integers(1, 9)))
        r = rng.uniform(0.5, 1.5)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p = np.array([r * np.cos(theta), r * np.sin(theta)])
        lap = (
            series_eval(s, p + [h, 0.0])
            + series_eval(s, p - [h, 0.0])
            + series_eval(s, p + [0.0, h])
            + series_eval(s, p - [0.0, h])
            - 4.0 * series_eval(s, p)
        ) / h**2
        assert abs(lap) <= 1e-3 * max(1.0, float(np.linalg.norm(s.grad(p))))


def test_singular_series_rejects_origin():
    u = annulus_neumann_solution(R)
    with pytest.raises(ValueError):
        series_eval(u, (0.0, 0.0))
    with pytest.raises(ValueError):
        u.grad(np.array([[1.0, 0.0], [0.0, 0.0]]))
    regular = HarmonicSeries(regular_cos=np.array([1.0, 2.0]), regular_sin=np.zeros(2))
    assert_allclose(series_eval(regular, (0.0, 0.0)), 1.0, rtol=0.0)
    assert_allclose(regular.grad((0.0, 0.0)), [2.0, 0.0], rtol=0.0, atol=0.0)


def test_trace_matches_point_evaluation():
    rng = np.random.default_rng(4)
    s = random_series(rng, 6)
    for radius in (0.7, 1.0, 1.8):
        tr = series_trace(s, radius)
        theta = np.linspace(0.0, 2.0 * np.pi, 11)
        pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
        assert_allclose(boundary_eval(tr, theta), series_eval(s, pts), rtol=1e-12, atol=1e-12)


def test_dirichlet_disk_solve_single_mode():
    # g = cos(theta) at R = 2 lifts to 0.5 r cos(theta).
    z = dirichlet_disk_solve(BoundaryData.mode(1, "cos"), R)
    assert_allclose(series_eval(z, (0.6, 0.0)), 0.3, rtol=1e-14)
    assert_allclose(z.grad((0.0, 0.0)), [0.5, 0.0], rtol=1e-14, atol=0.0)


def test_dirichlet_disk_solve_reproduces_trace():
    rng = np.random.default_rng(7)
    g = random_boundary_data(10, rng)
    z = dirichlet_disk_solve(g, R)
    theta = np.linspace(0.0, 2.0 * np.pi, 13)
    pts = np.column_stack([R * np.cos(theta), R * np.sin(theta)])
    assert_allclose(series_eval(z, pts), boundary_eval(g, theta), rtol=1e-12, atol=1e-12)


def test_dirichlet_match_single_sin_mode():
    # u with trace c sin(3 theta) on r = R must match to c (r/R)^3 sin(3 theta).
    c = 1.7
    u = HarmonicSeries(
        regular_cos=np.zeros(4),
        regular_sin=np.zeros(4),
        singular_sin=np.array([0.0, 0.0, 0.0, c * R**3]),
    )
    v = dirichlet_disk_solve(series_trace(u, R), R)
    r = 1.1
    theta = 0.4
    expected = c * (r / R) ** 3 * np.sin(3 * theta)
    assert_allclose(series_eval(v, (r * np.cos(theta), r * np.sin(theta))), expected, rtol=1e-13)
    assert not v.has_singular_part


def test_gap_neumann_trace_explicit_solution():
    u = annulus_neumann_solution(R)
    w = gap_neumann_trace(u, R)
    expected = np.zeros(2)
    expected[1] = -2.0 / R**2
    assert_allclose(w.cos_coeff, expected, rtol=1e-15)
    assert_allclose(w.sin_coeff, 0.0, atol=0.0)


def test_gap_neumann_trace_finite_differences():
    rng = np.random.default_rng(8)
    u = random_series(rng, 5)
    v = dirichlet_disk_solve(series_trace(u, R), R)
    w = gap_neumann_trace(u, R)
    h = 1e-6
    for theta in np.linspace(0.0, 2.0 * np.pi, 9):
        outer = np.array([(R + h) * np.cos(theta), (R + h) * np.sin(theta)])
        inner = np.array([(R - h) * np.cos(theta), (R - h) * np.sin(theta)])
        fd = ((series_eval(u, outer) - series_eval(v, outer)) - (series_eval(u, inner) - series_eval(v, inner))) / (2.0 * h)
        assert_allclose(boundary_eval(w, theta), fd, rtol=1e-5, atol=1e-7)


def test_boundary_pairing_trapezoid_oracle():
    rng = np.random.default_rng(9)
    w = gap_neumann_trace(random_series(rng, 8), R)
    g = random_boundary_data(8, rng)
    M = 128
    theta = 2.0 * np.pi * np.arange(M) / M
    direct = float(np.sum(boundary_eval(w, theta) * boundary_eval(g, theta)) * R * 2.0 * np.pi / M)
    assert_allclose(boundary_pairing(w, g, R), direct, rtol=1e-12, atol=1e-13)


def test_boundary_pairing_linear_in_data():
    rng = np.random.default_rng(10)
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    g1 = random_boundary_data(12, rng)
    g2 = random_boundary_data(12, rng)
    a, b = 0.75, -2.5
    combo = BoundaryData(a * g1.cos_coeff + b * g2.cos_coeff, a * g1.sin_coeff + b * g2.sin_coeff)
    lhs = boundary_pairing(w, combo, R)
    rhs = a * boundary_pairing(w, g1, R) + b * boundary_pairing(w, g2, R)
    assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-15)


def test_log_source_eval_and_grad():
    src = LogSource((0.5, 0.0))
    assert_allclose(src.eval((1.5, 0.0)), 0.0, atol=1e-15)
    p = np.array([0.9, 0.4])
    h = 1e-7
    fd = np.array(
        [
            (src.eval(p + [h, 0.0]) - src.eval(p - [h, 0.0])) / (2.0 * h),
            (src.eval(p + [0.0, h]) - src.eval(p - [0.0, h])) / (2.0 * h),
        ]
    )
    assert_allclose(src.grad(p), fd, rtol=1e-6)
    with pytest.raises(ValueError):
        src.eval((0.5, 0.0))


@pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
def test_contour_green_pairing_matches_gradient(eta):
    rng = np.random.default_rng(11)
    u = annulus_neumann_solution(R)
    g = random_boundary_data(16, rng)
    z = dirichlet_disk_solve(g, R)
    c1 = float(z.grad((0.0, 0.0))[0])
    pairing = contour_green_pairing(u, z, CircleContour((0.0, 0.0), eta))
    assert_allclose(pairing, -2.0 * np.pi * c1, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("eta", [0.1, 0.05, 0.025])
def test_contour_pairing_pieces_closed_form(eta):
    # flux piece pi c1 (eta^2 - 1), value piece pi c1 (eta^2 + 1); the
    # eta^2 transients cancel in the difference.
    rng = np.random.default_rng(12)
    u = annulus_neumann_solution(R)
    g = random_boundary_data(8, rng)
    z = dirichlet_disk_solve(g, R)
    c1 = float(z.grad((0.0, 0.0))[0])
    flux, value = contour_pairing_pieces(u, z, CircleContour((0.0, 0.0), eta))
    assert_allclose(flux, np.pi * c1 * (eta**2 - 1.0), rtol=1e-10, atol=1e-12)
    assert_allclose(value, np.pi * c1 * (eta**2 + 1.0), rtol=1e-10, atol=1e-12)


def test_contour_pieces_converge_to_half_limits():
    rng = np.random.default_rng(13)
    u = annulus_neumann_solution(R)
    z = dirichlet_disk_solve(random_boundary_data(8, rng), R)
    c1 = float(z.grad((0.0, 0.0))[0])
    etas = np.array([0.1, 0.05, 0.025])
    flux_err = []
    value_err = []
    for eta in etas:
        flux, value = contour_pairing_pieces(u, z, CircleContour((0.0, 0.0), float(eta)))
        flux_err.append(abs(flux - (-np.pi * c1)))
        value_err.append(abs(value - np.pi * c1))
    # Quadratic transient: each halving of eta divides the error by ~4.
    for err in (flux_err, value_err):
        assert err[1] <= 0.3 * err[0]
        assert err[2] <= 0.3 * err[1]


def test_contour_rejects_singularities_on_circle():
    u = annulus_neumann_solution(R)
    z = dirichlet_disk_solve(BoundaryData.mode(1, "cos"), R)
    through_origin = CircleContour((0.025, 0.0), 0.025)
    with pytest.raises(ValueError):
        contour_green_pairing(u, z, through_origin)
    src = LogSource((0.5, 0.0))
    with pytest.raises(ValueError):
        contour_pairing_pieces(src, z, CircleContour((0.0, 0.0), 0.5))


def test_contour_pairing_rejects_area_rule():
    u = annulus_neumann_solution(R)
    z = dirichlet_disk_solve(BoundaryData.mode(1, "cos"), R)
    contour = CircleContour((0.0, 0.0), 0.5)
    area_rule = build_disk_quadrature(DiskRegion((0.0, 0.0), 0.5), 4, 8)
    with pytest.raises(ValueError):
        contour_green_pairing(u, z, contour, quad=area_rule)
    contour_rule = build_contour_quadrature(contour, 128)
    value = contour_green_pairing(u, z, contour, quad=contour_rule)
    assert_allclose(value, -2.0 * np.pi * 0.5, rtol=1e-12)
