"""Identity residuals, kernel sign structure and enclosure closed forms.

Oracles: the pairing identity is checked against both its Parseval and
gradient forms; the restricted kernel is checked against a second
difference of 1/|x - y| in the height variable, its sign map against
the exact sign of |x|^2 - 2 y3^2 in integer arithmetic, and the
certificate against a polar sample grid; the enclosure integral
is checked against -2 pi tau e^{-i phi} and, where float64 can still sum
it there, against the trapezoid rule on the outer circle r = R.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrtlab import checks
from nrtlab.checks import (
    ENCLOSURE_NODES,
    MAX_TAU,
    SignField,
    certificate_margin,
    enclosure_bound,
    enclosure_closed_form,
    enclosure_indicator,
    enclosure_sweep,
    gradient_identity,
    probe_kernel,
    required_enclosure_order,
    sign_cell_counts,
    sign_indefiniteness_certificate,
    sign_map,
    validate_taus,
)
from nrtlab.harmonic import (
    BoundaryData,
    annulus_neumann_solution,
    dirichlet_disk_solve,
    gap_neumann_trace,
    random_boundary_data,
)
from reference import polar_grid_certificate, series_grad

R = 2.0
W = gap_neumann_trace(annulus_neumann_solution(R), R)


@pytest.mark.parametrize("order", [1, 4, 8, 16, 32])
def test_gradient_identity_random_data(order):
    rng = np.random.default_rng(order)
    for _ in range(5):
        pairing, gradient_form = gradient_identity(random_boundary_data(order, rng), R, W)
        assert abs(pairing - gradient_form) <= 1e-10


def test_gradient_identity_single_modes():
    # Only cos(theta) produces a nonzero pairing: -2 pi / R = -pi at R = 2.
    pairing, gradient_form = gradient_identity(BoundaryData.mode(1, "cos"), R, W)
    assert_allclose(pairing, -np.pi, rtol=1e-14)
    assert_allclose(gradient_form, -np.pi, rtol=1e-14)
    for g in (BoundaryData.mode(0, "cos"), BoundaryData.mode(2, "cos"), BoundaryData.mode(3, "sin")):
        pairing, gradient_form = gradient_identity(g, R, W)
        assert pairing == 0.0
        assert gradient_form == 0.0


def test_gradient_form_is_the_lift_gradient_bit_for_bit():
    # The closed form -2 pi g_1 / R must round exactly as the lift's
    # gradient at the origin does, signed zeros included, up to the
    # float maximum, where R^-1 is subnormal.
    rng = np.random.default_rng(29)
    data = [BoundaryData.mode(0, "cos"), BoundaryData.mode(3, "sin"), BoundaryData.mode(1, "sin")]
    data += [BoundaryData.mode(n, "cos") for n in range(1, 5)]
    data += [BoundaryData.mode(1, "cos", -1.0), BoundaryData([0.0, -0.0], [0.0, 0.0])]
    data += [random_boundary_data(int(rng.integers(1, 1025)), rng) for _ in range(100)]
    for radius in (1.0000001, 1.5, 2.0, 3.0, math.pi, 1e10, 1e154, 1e300, np.finfo(float).max):
        w = gap_neumann_trace(annulus_neumann_solution(radius), radius)
        for g in data:
            _, gradient_form = gradient_identity(g, radius, w)
            lift = dirichlet_disk_solve(g, radius)
            expected = -2.0 * np.pi * float(series_grad(lift, (0.0, 0.0))[0])
            assert gradient_form.hex() == expected.hex(), (radius, g.max_order)


def test_gradient_identity_detects_perturbation():
    g = BoundaryData.mode(1, "cos")
    w = BoundaryData(W.cos_coeff * 1.01, W.sin_coeff * 1.01)
    pairing, gradient_form = gradient_identity(g, R, w)
    assert abs(pairing - gradient_form) > 1e-3


def test_probe_kernel_second_difference_oracle():
    # Kernel must equal -d^2/dy3^2 of 1/|x - y|; step 1e-5 as the
    # reference second difference.
    rng = np.random.default_rng(0)
    h = 1e-5

    def inv_dist(x1, x2, y3):
        return 1.0 / np.sqrt(x1 * x1 + x2 * x2 + y3 * y3)

    for _ in range(40):
        x1, x2 = rng.uniform(-1.0, 1.0, 2)
        y3 = rng.uniform(0.05, 0.3)
        fd = -(inv_dist(x1, x2, y3 + h) - 2.0 * inv_dist(x1, x2, y3) + inv_dist(x1, x2, y3 - h)) / h**2
        assert_allclose(probe_kernel(x1, x2, y3), fd, rtol=1e-4)


@pytest.mark.parametrize("y3", [0.2, 0.1, 0.05])
def test_probe_kernel_point_values(y3):
    assert_allclose(probe_kernel(0.0, 0.0, y3), -2.0 / y3**3, rtol=1e-14)
    assert probe_kernel(2.0 * y3, 0.0, y3) > 0.0
    # The zero circle at radius sqrt(2) y3, checked on several angles.
    r0 = np.sqrt(2.0) * y3
    for angle in np.linspace(0.0, 2.0 * np.pi, 5):
        val = probe_kernel(r0 * np.cos(angle), r0 * np.sin(angle), y3)
        assert abs(val) <= 1e-10 * abs(probe_kernel(0.0, 0.0, y3))


@pytest.mark.parametrize("y3", [0.2, 0.1, 0.05])
def test_sign_map_structure(y3):
    field = sign_map(y3, 1.0, 101)
    mid = field.axis.size // 2
    assert field.values[mid, mid] < 0.0
    X1, X2 = np.meshgrid(field.axis, field.axis, indexing="ij")
    rho = np.hypot(X1, X2)
    inside = rho < field.predicted_zero_radius - field.grid_step
    outside = rho > field.predicted_zero_radius + field.grid_step
    assert np.all(field.values[inside] < 0.0)
    assert np.all(field.values[outside] > 0.0)
    assert abs(field.zero_radius_estimate - field.predicted_zero_radius) <= field.grid_step


def test_sign_map_zero_circle_outside_grid():
    # Height so large the zero circle escapes the grid: all samples negative.
    field = sign_map(2.0, 1.0, 41)
    assert np.all(field.values < 0.0)
    assert np.isnan(field.zero_radius_estimate)


def test_sign_map_validation():
    with pytest.raises(ValueError):
        sign_map(0.0, 1.0, 101)
    with pytest.raises(ValueError):
        sign_map(0.1, -1.0, 101)
    with pytest.raises(ValueError):
        sign_map(0.1, 1.0, 100)
    with pytest.raises(ValueError):
        sign_map(0.1, 1.0, 1)


def test_certificate_default_heights():
    assert sign_indefiniteness_certificate([0.2, 0.1, 0.05], 1.0)


def test_certificate_fails_on_small_patch():
    # Patch strictly inside the negative region for y3 = 0.2:
    # radius 0.01 < sqrt(2) * 0.2.
    assert not sign_indefiniteness_certificate([0.2], 0.01)


def exact_signs(axis, y3):
    """sign(x1^2 + x2^2 - 2 y3^2) per grid cell, in integers scaled from the floats' exact values."""
    ratios = [v.as_integer_ratio() for v in [*axis.tolist(), y3]]
    den = max(d for _, d in ratios)
    *coords, height = [n * (den // d) for n, d in ratios]
    squares = [v * v for v in coords]
    two = 2 * height * height
    signs = [[(a + b > two) - (a + b < two) for b in squares] for a in squares]
    near = sum(10**14 * abs(a + b - two) <= a + b + two for a in squares for b in squares)
    return np.array(signs, dtype=float), near


# At y3 = 0.65 and 0.6 cells lie within rounding of the zero circle, where
# the float64 sign of |x|^2 - 2 y3^2 is wrong and a band of kappa = 0 fails.
@pytest.mark.parametrize(
    "y3,half_width,resolution",
    [(0.2, 1.0, 101), (0.1, 1.0, 101), (0.05, 1.0, 101), (1e-3, 1.0, 401), (1e-5, 1.0, 101), (3.0, 1.0, 41), (1e-50, 1e-49, 41), (1e50, 3e50, 41), (0.65, 1.0, 41), (0.6, 1.0, 101)],
)
def test_sign_cell_counts_agree_with_the_exact_sign(y3, half_width, resolution):
    field = sign_map(y3, half_width, resolution)
    cells = sign_cell_counts(field)
    negative, positive, band, mismatched, first = cells
    assert mismatched == 0 and first is None
    assert negative + positive + band == resolution**2
    exact, near = exact_signs(field.axis, y3)
    # A field holding the exact signs passes as well: outside the band the
    # closed-form sign the check computes in float64 is the exact one.
    assert sign_cell_counts(SignField(y3, field.axis, exact, np.nan)) == cells
    assert negative <= np.count_nonzero(exact < 0.0) and positive <= np.count_nonzero(exact > 0.0)
    # The band only takes cells within 1e-14 relative of the circle.
    assert band <= near


def test_sign_cell_counts_name_the_first_mismatched_cell():
    y3 = 0.2
    field = sign_map(y3, 1.0, 401)
    X1, X2 = np.meshgrid(field.axis, field.axis, indexing="ij")
    # A zero circle moved out by a relative 1e-3 leaves negative cells between the circles.
    moved = SignField(y3, field.axis, probe_kernel(X1, X2, y3 * (1.0 + 1e-3)), np.nan)
    *_, mismatched, (x1, x2, value) = sign_cell_counts(moved)
    assert mismatched > 0 and value < 0.0 and 2.0 * y3**2 < x1 * x1 + x2 * x2 < 2.0 * (y3 * (1.0 + 1e-3)) ** 2
    # The origin is a cell: a kernel that is not negative there mismatches, and so does nan.
    mid = field.axis.size // 2
    for bad in (0.0, 1.0, np.nan):
        values = field.values.copy()
        values[mid, mid] = bad
        *_, mismatched, first = sign_cell_counts(SignField(y3, field.axis, values, np.nan))
        assert mismatched == 1
        np.testing.assert_equal(first, (0.0, 0.0, bad))


def test_certificate_agrees_with_the_polar_grid_reference():
    # Heights a relative 10^-j either side of patch / sqrt(2), where the
    # zero circle crosses the patch edge.
    misses = []
    for patch in (1e-100, 1e-3, 0.3, 1.0, 7.5, 1e100):
        for j in range(1, 16):
            for side in (1.0, -1.0):
                y3 = patch / math.sqrt(2.0) * (1.0 + side * 10.0**-j)
                with np.errstate(all="ignore"):
                    grid = polar_grid_certificate([y3], patch)
                if grid != sign_indefiniteness_certificate([y3], patch):
                    misses.append((patch, j, side))
    # The grid misses at patch 1e100 alone: its samples overflow to nan
    # there, so it finds no positive one inside the patch.
    assert misses == [(1e100, j, -1.0) for j in range(1, 16)]
    assert sign_indefiniteness_certificate([0.2, 0.1, 0.05], 1.0) == polar_grid_certificate([0.2, 0.1, 0.05], 1.0)


@pytest.mark.parametrize("patch", [1.0, 0.3, 1e-3, 1e-100])
def test_certificate_decides_a_rounding_tie_exactly(patch):
    # y3 = fl(patch / sqrt(2)) lies below patch / sqrt(2), so patch^2 > 2 y3^2
    # holds exactly, yet the rounded patch - sqrt(2) y3 reads 0.
    y3 = patch / math.sqrt(2.0)
    assert patch != 1.0 or y3 == 0.7071067811865475
    assert patch - math.sqrt(2.0) * y3 <= 0.0
    assert 2 * Fraction(y3) ** 2 < Fraction(patch) ** 2
    assert sign_indefiniteness_certificate([y3], patch)
    assert certificate_margin(y3, patch) > 0.0
    # One unit of y3 higher, both read False.
    above = math.nextafter(y3, math.inf)
    assert not sign_indefiniteness_certificate([above], patch)
    assert certificate_margin(above, patch) < 0.0


def test_certificate_margin_is_the_rounded_difference_away_from_ties():
    for y3, patch in [(0.2, 1.0), (0.2, 0.01), (0.2, 1e300), (1e-300, 1e-290), (5e-324, 1.0), (1e300, 1e-300)]:
        assert certificate_margin(y3, patch) == patch - math.sqrt(2.0) * y3
        assert (certificate_margin(y3, patch) > 0.0) == sign_indefiniteness_certificate([y3], patch)


def test_certificate_preconditions():
    with pytest.raises(ValueError):
        sign_indefiniteness_certificate([], 1.0)
    with pytest.raises(ValueError):
        sign_indefiniteness_certificate([0.1, 0.2], 1.0)
    with pytest.raises(ValueError):
        sign_indefiniteness_certificate([0.2, -0.1], 1.0)
    with pytest.raises(ValueError):
        sign_indefiniteness_certificate([0.2, 0.1], 0.0)


PHIS = (0.0, 0.7, 2.5, -1.3)


def outer_circle_trapezoid(tau, phi, boundary_radius, nodes=128):
    """The enclosure integral summed where it is defined, on r = R.

    There the gap's normal derivative is -2 cos(theta) / R and the probe
    reaches e^(tau R) against an answer of size 2 pi tau, so float64
    keeps about 16 - log10(e^(tau R) / tau) digits.  The aliasing error
    pi sum_m x^(mM-1)/(mM-1)! with x = tau R and M = nodes is far below
    rounding for tau R <= 12.
    """
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    x = tau * boundary_radius
    integrand = np.cos(theta) * np.exp(x * np.exp(1j * (theta - phi)))
    return complex((-2.0 / boundary_radius) * (2.0 * np.pi / nodes) * integrand.sum())


@pytest.mark.parametrize("tau", [1.0, 3.0, 7.0, 10.0, 50.0, 100.0, 1e3, 1e4, 1e6])
def test_enclosure_matches_closed_form(tau):
    # One fixed rule on the shifted circle, whatever tau.
    assert required_enclosure_order(tau, R) == ENCLOSURE_NODES
    for phi in PHIS:
        value = enclosure_indicator(tau, phi, R)
        closed = enclosure_closed_form(tau, phi)
        assert abs(value - closed) / abs(closed) <= 1e-14


@pytest.mark.parametrize("boundary_radius", [1.5, 2.0, 4.0])
def test_enclosure_matches_outer_circle_trapezoid(boundary_radius):
    for tau_r in (0.5, 2.0, 6.0, 10.0, 12.0):
        # The reference itself is off by about eps e^(tau R) / pi
        # (6.3e-12 at tau R = 12 against the closed form).
        bar = max(1e-12, np.finfo(float).eps * np.exp(tau_r))
        tau = tau_r / boundary_radius
        for phi in PHIS:
            reference = outer_circle_trapezoid(tau, phi, boundary_radius)
            value = enclosure_indicator(tau, phi, boundary_radius)
            assert abs(value - reference) / abs(reference) <= bar


def test_enclosure_nonzero_direction():
    phi = 0.7
    tau = 10.0
    value = enclosure_indicator(tau, phi, R)
    closed = enclosure_closed_form(tau, phi)
    assert abs(value - closed) / abs(closed) <= 1e-10
    # Rotating the probe direction leaves the modulus unchanged.
    assert_allclose(abs(value), 2.0 * np.pi * tau, rtol=1e-10)


def test_enclosure_float64_path_accuracy():
    # At tau R = 10 the outer-circle sum would cancel ~e^10 against the
    # answer; on the shifted circle nothing cancels.  Small tau checks
    # that the constant part of the probe is kept out of the sum.
    for tau in (5.0, 1e-3, 1e-8):
        value = enclosure_indicator(tau, 0.0, R)
        closed = enclosure_closed_form(tau, 0.0)
        assert abs(value - closed) / abs(closed) <= 1e-14


def test_enclosure_validation():
    # Below the smallest normal float64 the value leaves enclosure_bound, so 5e-324 and 1e-310 are refused.
    for tau in (0.0, -1.0, np.nan, np.inf, 1.01 * MAX_TAU, 5e-324, 1e-310):
        with pytest.raises(ValueError):
            enclosure_indicator(tau, 0.0, R)
    enclosure_indicator(MAX_TAU, 0.0, R)
    enclosure_indicator(np.finfo(float).tiny, 0.0, R)
    with pytest.raises(ValueError):
        enclosure_indicator(1.0, np.nan, R)
    with pytest.raises(ValueError):
        enclosure_indicator(1.0, 0.0, 0.5)


def test_enclosure_sweep_samples_stay_within_their_bound_of_the_decay():
    # |I_tau| = 2 pi tau (1 +- beta) puts (1/tau) log|I_tau| within
    # beta / tau of log(2 pi tau) / tau, plus the rounding of the log and
    # of the division by tau.
    eps = np.finfo(float).eps
    taus = [1.0, 10.0, 20.0, 50.0, 100.0]
    values = enclosure_sweep(taus, 0.0, R)
    assert isinstance(values, tuple) and len(values) == len(taus)
    decay = [float(np.log(abs(value)) / tau) for tau, value in zip(taus, values)]
    for tau, rate in zip(taus, decay):
        exact = np.log(2.0 * np.pi * tau) / tau
        slack = (enclosure_bound(tau, R) + 2.0 * eps) / tau + 2.0 * eps * abs(exact)
        assert abs(rate - exact) <= slack
    assert all(b < a for a, b in zip(decay, decay[1:]))


def enclosure_bound_grid(boundary_radius):
    """Largest relative error and largest bound over tau in [1e-8, 1e6] at eight phi, with the worst error/bound."""
    worst_err = worst_bound = worst_share = 0.0
    for tau in np.geomspace(1e-8, 1e6, 1001).tolist():
        bound = enclosure_bound(tau, boundary_radius)
        for phi in np.linspace(-np.pi, np.pi, 8, endpoint=False) + 0.3:
            closed = enclosure_closed_form(tau, phi)
            err = abs(enclosure_indicator(tau, phi, boundary_radius) - closed) / abs(closed)
            worst_err, worst_bound, worst_share = max(worst_err, err), max(worst_bound, bound), max(worst_share, err / bound)
    return worst_err, worst_bound, worst_share


@pytest.mark.parametrize("boundary_radius", [1.0 + 1e-7, 2.0, 1e10, 1e300])
def test_enclosure_bound_holds_on_a_log_grid(boundary_radius):
    worst_err, worst_bound, worst_share = enclosure_bound_grid(boundary_radius)
    assert worst_share <= 1.0
    # Derived, not padded: the largest bound is within 100x of the largest error seen.
    assert worst_bound <= 100.0 * worst_err
    # rho_tau < 2e - 1, so no bound exceeds kappa u (2e - 1).
    assert worst_bound <= checks.ENCLOSURE_KAPPA * 2.0**-53 * (2.0 * np.e - 1.0) * (1.0 + 1e-15)


def test_enclosure_bound_holds_down_to_the_normal_range():
    # validate_taus stops at the smallest normal float64, where the bound still holds.
    for tau in np.geomspace(np.finfo(float).tiny, 1e-290, 50).tolist():
        for phi in (0.0, 0.7, 2.5, -1.3):
            closed = enclosure_closed_form(tau, phi)
            assert abs(enclosure_indicator(tau, phi, R) - closed) <= enclosure_bound(tau, R) * abs(closed)


def test_enclosure_bound_follows_rho():
    # rho -> 1 + 1/R^2 + 1 - 1/R^2 = 2 as tau -> 0, and rho = 2e - 1 - 1/(tau R)^2 for tau >= 1.
    u = 2.0**-53
    assert enclosure_bound(1e-12, R) == pytest.approx(checks.ENCLOSURE_KAPPA * u * 2.0, rel=1e-6)
    for tau in (1.0, 7.0, MAX_TAU):
        rho = 2.0 * np.e - 1.0 - 1.0 / (tau * R) ** 2
        assert enclosure_bound(tau, R) == pytest.approx(checks.ENCLOSURE_KAPPA * u * rho, rel=1e-14)


def test_enclosure_sweep_preconditions():
    # One frequency is a grid: nothing is fitted across the samples.
    assert enclosure_sweep([7.0], 0.0, R) == (enclosure_indicator(7.0, 0.0, R),)
    with pytest.raises(ValueError):
        enclosure_sweep([], 0.0, R)
    with pytest.raises(ValueError):
        enclosure_sweep([1.0, 3.0, 2.0, 4.0], 0.0, R)
    with pytest.raises(ValueError):
        enclosure_sweep([-1.0, 1.0, 2.0, 3.0], 0.0, R)
    for bad in ([1.0, 2.0, 3.0, "x"], [1.0, 2.0, 3.0, np.nan], [1.0, 2.0, 3.0, 2.0 * MAX_TAU], 5.0, [5e-324, 1.0]):
        with pytest.raises(ValueError):
            validate_taus(bad)
    assert validate_taus([1, 2, "3", MAX_TAU]) == [1.0, 2.0, 3.0, MAX_TAU]
    assert validate_taus([np.finfo(float).tiny]) == [np.finfo(float).tiny]
