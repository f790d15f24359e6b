"""Identity residuals, kernel sign structure and enclosure closed forms.

Oracles: the pairing identity is checked against both its Parseval and
gradient forms; the restricted kernel is checked against a second
difference of 1/|x - y| in the height variable; the enclosure integral
is checked against -2 pi tau e^{-i phi} and, where float64 can still sum
it there, against the trapezoid rule on the outer circle r = R.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrtlab import checks
from nrtlab.checks import (
    ENCLOSURE_NODES,
    MAX_TAU,
    enclosure_bound,
    enclosure_closed_form,
    enclosure_indicator,
    enclosure_sweep,
    gradient_identity,
    probe_kernel,
    required_enclosure_order,
    sign_indefiniteness_certificate,
    sign_map,
    validate_taus,
)
from nrtlab.harmonic import BoundaryData, random_boundary_data

R = 2.0


@pytest.mark.parametrize("order", [1, 4, 8, 16, 32])
def test_gradient_identity_random_data(order):
    rng = np.random.default_rng(order)
    for _ in range(5):
        pairing, gradient_form = gradient_identity(random_boundary_data(order, rng), R)
        assert abs(pairing - gradient_form) <= 1e-10


def test_gradient_identity_single_modes():
    # Only cos(theta) produces a nonzero pairing: -2 pi / R = -pi at R = 2.
    pairing, gradient_form = gradient_identity(BoundaryData.mode(1, "cos"), R)
    assert_allclose(pairing, -np.pi, rtol=1e-14)
    assert_allclose(gradient_form, -np.pi, rtol=1e-14)
    for g in (BoundaryData.mode(0, "cos"), BoundaryData.mode(2, "cos"), BoundaryData.mode(3, "sin")):
        pairing, gradient_form = gradient_identity(g, R)
        assert pairing == 0.0
        assert gradient_form == 0.0


def test_gradient_identity_detects_perturbation():
    g = BoundaryData.mode(1, "cos")
    from nrtlab.harmonic import annulus_neumann_solution, gap_neumann_trace

    w = gap_neumann_trace(annulus_neumann_solution(R), R).scaled(1.01)
    pairing, gradient_form = gradient_identity(g, R, w_trace=w)
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
    for tau in (0.0, -1.0, np.nan, np.inf, 1.01 * MAX_TAU):
        with pytest.raises(ValueError):
            enclosure_indicator(tau, 0.0, R)
    enclosure_indicator(MAX_TAU, 0.0, R)
    with pytest.raises(ValueError):
        enclosure_indicator(1.0, np.nan, R)
    with pytest.raises(ValueError):
        enclosure_indicator(1.0, 0.0, 0.5)


def test_enclosure_sweep_samples_stay_within_their_bound_of_the_decay():
    # |I_tau| = 2 pi tau (1 +- beta) puts (1/tau) log|I_tau| within
    # beta / tau of log(2 pi tau) / tau, plus the rounding of the log and
    # of the division by tau.
    eps = np.finfo(float).eps
    samples = enclosure_sweep([1.0, 10.0, 20.0, 50.0, 100.0], 0.0, R)
    assert isinstance(samples, tuple) and [s.tau for s in samples] == [1.0, 10.0, 20.0, 50.0, 100.0]
    for sample in samples:
        exact = np.log(2.0 * np.pi * sample.tau) / sample.tau
        slack = (enclosure_bound(sample.tau, R) + 2.0 * eps) / sample.tau + 2.0 * eps * abs(exact)
        assert abs(sample.log_over_tau - exact) <= slack
    decay = [s.log_over_tau for s in samples]
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
    assert [s.tau for s in enclosure_sweep([7.0], 0.0, R)] == [7.0]
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
