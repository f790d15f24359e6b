"""Gram assembly, constrained sup, sweeps and the log-potential fit.

The central oracle is the polar closed form for lifted-mode norms on an
origin-centered disk of radius rho inside the ambient disk of radius R:

    ||(r/R)^n trig(n theta)||^2_H1 = R^(-2n) (n pi rho^(2n)
                                     + pi rho^(2n+2) / (2n + 2)),

with the constant mode contributing pi rho^2.  Angular orthogonality
makes the Gram matrix exactly diagonal in that configuration, which
pins the sup down to a hand-computable number.
"""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrtlab.geometry import DiskRegion, build_disk_quadrature
from nrtlab.harmonic import BoundaryData, annulus_neumann_solution, boundary_pairing, dirichlet_disk_solve, gap_neumann_trace
from nrtlab.indicator import (
    MAX_RUNGE_ORDER,
    MAX_SWEEP_ORDER,
    GramConditioningError,
    GramSystem,
    IndicatorCurve,
    Verdict,
    assemble_gram,
    blow_up_diagnostic,
    indicator_sweep,
    log_slope,
    runge_fit,
    sup_indicator,
    validate_orders,
)
from reference import blockwise_indicator_sweep, complex_arnoldi_taylor, exact_power, h1_inner, near, point_space_runge_fit, scaled_sequence, series_grad

R = 2.0
EPS = 1e-3


def lifted_mode_norm_sq(n, rho, boundary_radius):
    if n == 0:
        return np.pi * rho**2
    return boundary_radius ** (-2 * n) * (n * np.pi * rho ** (2 * n) + np.pi * rho ** (2 * n + 2) / (2 * n + 2))


def log_disk_series_exact(center_dist: Fraction, rho: Fraction, order: int) -> float:
    """log of the sup gain 2 pi sqrt(sum_k k^2 |c|^(2k-2) / D_k) on disk(c, rho).

    D_k = pi rho^2k (k + rho^2 / (2 (k + 1))) is the squared H1 norm of
    Re/Im (z - c)^k.  The sum is rational in |c| and rho, so it is taken
    exactly and only its logarithm is rounded.
    """
    total = sum(
        Fraction(k * k) * center_dist ** (2 * k - 2) / (rho ** (2 * k) * (k + rho * rho / (2 * (k + 1))))
        for k in range(1, order + 1)
    )
    # gain^2 = 4 pi^2 * total / pi
    return 0.5 * (math.log(4.0 * math.pi) + math.log(total.numerator) - math.log(total.denominator))


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_h1_inner_closed_form(n, rho):
    z = dirichlet_disk_solve(BoundaryData.mode(n, "cos"), R)
    disk = DiskRegion((0.0, 0.0), rho)
    rule = build_disk_quadrature(disk, 16, 32)
    assert_allclose(h1_inner(z, z, rule, disk), lifted_mode_norm_sq(n, rho, R), rtol=1e-10)


def test_h1_inner_cross_modes_orthogonal():
    disk = DiskRegion((0.0, 0.0), 0.8)
    rule = build_disk_quadrature(disk, 16, 32)
    z1 = dirichlet_disk_solve(BoundaryData.mode(1, "cos"), R)
    z2 = dirichlet_disk_solve(BoundaryData.mode(2, "cos"), R)
    z1s = dirichlet_disk_solve(BoundaryData.mode(1, "sin"), R)
    assert abs(h1_inner(z1, z2, rule, disk)) < 1e-14
    assert abs(h1_inner(z1, z1s, rule, disk)) < 1e-14


def test_h1_inner_rejects_interior_singularity():
    u = annulus_neumann_solution(R)
    centred = DiskRegion((0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        h1_inner(u, u, build_disk_quadrature(centred, 8, 16), centred)
    off_center = DiskRegion((1.3, 0.0), 0.25)
    value = h1_inner(u, u, build_disk_quadrature(off_center, 8, 16), off_center)
    assert np.isfinite(value) and value > 0.0


def test_gram_origin_disk_is_diagonal():
    system = assemble_gram(DiskRegion((0.0, 0.0), 0.5), R, 6)
    off = system.Q - np.diag(np.diag(system.Q))
    assert np.max(np.abs(off)) < 1e-14
    for n in range(7):
        expected = lifted_mode_norm_sq(n, 0.5, R)
        assert_allclose(system.Q[max(2 * n - 1, 0), max(2 * n - 1, 0)], expected, rtol=1e-12)
        if n >= 1:
            assert_allclose(system.Q[2 * n, 2 * n], expected, rtol=1e-12)


def test_gram_b_vector_single_mode():
    # Only the cos(theta) mode pairs with the explicit gap trace:
    # b = pi R * (-2/R^2) = -pi at R = 2.
    system = assemble_gram(DiskRegion((0.0, 0.0), 0.5), R, 5)
    expected = np.zeros(11)
    expected[1] = -np.pi
    assert_allclose(system.b, expected, rtol=1e-14, atol=1e-15)


def test_gram_exactly_symmetric_and_frozen():
    system = assemble_gram(DiskRegion((1.3, 0.0), 0.25), R, 8)
    assert np.array_equal(system.Q, system.Q.T)
    with pytest.raises(ValueError):
        system.Q[0, 0] = 1.0


def test_gram_stable_under_quadrature_refinement():
    region = DiskRegion((1.3, 0.0), 0.25)
    base = assemble_gram(region, R, 8)
    fine = assemble_gram(region, R, 8, quad_orders=(40, 96))
    scale = np.sqrt(np.outer(np.diag(base.Q), np.diag(base.Q)))
    assert np.max(np.abs(base.Q - fine.Q) / scale) < 1e-12


def test_gram_validation():
    with pytest.raises(ValueError):
        assemble_gram(DiskRegion((0.0, 0.0), 0.5), R, 0)
    with pytest.raises(ValueError):
        assemble_gram(DiskRegion((1.9, 0.0), 0.5), R, 4)
    with pytest.raises(ValueError):
        GramSystem(order=1, boundary_radius=R, region=DiskRegion((0, 0), 0.5), Q=np.eye(4), b=np.zeros(4))
    asym = np.eye(3)
    asym[0, 1] = 1e-17
    with pytest.raises(ValueError):
        GramSystem(order=1, boundary_radius=R, region=DiskRegion((0, 0), 0.5), Q=asym, b=np.zeros(3))


def _direct_system(Q, b):
    return GramSystem(order=(Q.shape[0] - 1) // 2, boundary_radius=R, region=DiskRegion((0.0, 0.0), 0.5), Q=Q, b=b)


def test_sup_identity_matrix_example():
    # Q = I, b = (0, 3, 4): gain is |b| = 5, so eps = 0.1 gives 0.5.
    system = _direct_system(np.eye(3), np.array([0.0, 3.0, 4.0]))
    result = sup_indicator(system, 0.1)
    assert_allclose(result.value, 0.5, rtol=1e-15)
    assert_allclose(result.gain, 5.0, rtol=1e-15)
    assert result.discarded_share == 0.0
    assert not result.unbounded
    assert result.n_retained == 3


def test_sup_zero_objective():
    system = _direct_system(np.eye(3), np.zeros(3))
    result = sup_indicator(system, 0.1)
    assert result.value == 0.0
    assert result.discarded_share == 0.0


def test_sup_flags_unbounded_direction():
    # Rank-one Q leaves two null directions; b has mass there.
    system = _direct_system(np.ones((3, 3)), np.array([1.0, 0.0, 0.0]))
    result = sup_indicator(system, 1.0)
    assert result.unbounded
    assert result.discarded_share > 0.5
    assert_allclose(result.value, 1.0 / 3.0, rtol=1e-12)


def test_sup_rejects_indefinite_matrix():
    system = _direct_system(np.diag([1.0, -1.0, 1.0]), np.zeros(3))
    with pytest.raises(GramConditioningError):
        sup_indicator(system, 1.0)


def test_sup_rejects_nonpositive_eps():
    system = _direct_system(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        sup_indicator(system, 0.0)


def test_sup_invariant_under_diagonal_rescaling():
    # Equilibration maps any diagonal rescaling of (Q, b) to the same
    # correlation matrix, so the sup does not depend on column scaling.
    rng = np.random.default_rng(20)
    base = assemble_gram(DiskRegion((0.0, 0.0), 0.5), R, 8)
    s = 10.0 ** rng.uniform(-6, 6, base.dim)
    Q2 = (base.Q * s[:, None]) * s[None, :]
    Q2 = 0.5 * (Q2 + Q2.T)
    system2 = _direct_system(Q2, s * base.b)
    r1 = sup_indicator(base, EPS)
    r2 = sup_indicator(system2, EPS)
    assert_allclose(r2.value, r1.value, rtol=1e-12)
    assert r2.discarded_share == r1.discarded_share == 0.0


def test_sup_rescaling_stability_ill_conditioned():
    # Near the eigenvalue cutoff the retained set itself is scale
    # sensitive, so only loose value agreement plus identical flags can
    # be demanded for the rank-deficient off-center system.
    rng = np.random.default_rng(21)
    base = assemble_gram(DiskRegion((1.3, 0.0), 0.25), R, 8)
    s = 10.0 ** rng.uniform(-6, 6, base.dim)
    Q2 = (base.Q * s[:, None]) * s[None, :]
    Q2 = 0.5 * (Q2 + Q2.T)
    system2 = _direct_system(Q2, s * base.b)
    r1 = sup_indicator(base, EPS)
    r2 = sup_indicator(system2, EPS)
    assert r1.unbounded and r2.unbounded
    assert_allclose(r2.value, r1.value, rtol=1e-4)
    assert_allclose(r2.discarded_share, r1.discarded_share, rtol=1e-4)


def test_sup_eps_linearity_exact():
    system = assemble_gram(DiskRegion((0.0, 0.0), 0.5), R, 16)
    v1 = sup_indicator(system, EPS).value
    v2 = sup_indicator(system, 2.0 * EPS).value
    v10 = sup_indicator(system, 10.0 * EPS).value
    assert v2 == 2.0 * v1
    assert abs(v10 - 10.0 * v1) <= 1e-15 * v10


def test_bounded_region_gain_closed_form():
    # Diagonal Gram with b supported on cos(theta):
    # gain = 2 pi / sqrt(pi (rho^2 + rho^4 / 4)) at R = 2, rho = 0.5.
    expected_gain = 2.0 * np.pi / np.sqrt(np.pi * (0.25 + 0.25**2 / 4.0))
    result = sup_indicator(assemble_gram(DiskRegion((0.0, 0.0), 0.5), R, 8), EPS)
    assert_allclose(result.gain, expected_gain, rtol=1e-12)
    assert_allclose(result.cond, 1.0, rtol=1e-16, atol=2e-14)


def test_indicator_sweep_bounded_region():
    curve = indicator_sweep(DiskRegion((0.0, 0.0), 0.5), R, EPS, [4, 8, 16, 24, 32])
    assert curve.verdict is Verdict.BOUNDED
    # On a centred disk only Re/Im z pair with the gap trace:
    # I_N = eps 2 pi / sqrt(pi (rho^2 + rho^4 / 4)) at every N.
    expected = EPS * 2.0 * np.pi / np.sqrt(np.pi * (0.25 + 0.25**2 / 4.0))
    assert_allclose(curve.values, expected, rtol=1e-14)


def test_indicator_sweep_blow_up_region():
    orders = [4, 8, 16, 24, 32]
    curve = indicator_sweep(DiskRegion((1.3, 0.0), 0.25), R, EPS, orders)
    assert curve.verdict is Verdict.BLOW_UP
    expected = [EPS * np.exp(log_disk_series_exact(Fraction(13, 10), Fraction(1, 4), n)) for n in orders]
    assert_allclose(curve.values, expected, rtol=1e-13)


@pytest.mark.parametrize("center,rho,top", [((0.0, 0.0), 0.5, 32), ((1.3, 0.0), 0.25, 4)])
def test_series_matches_gram_oracle(center, rho, top):
    # The quadrature Gram path is accurate at these orders, so the two
    # independent routes to the same sup must agree.
    region = DiskRegion(center, rho)
    orders = list(range(1, top + 1))
    curve = indicator_sweep(region, R, EPS, orders)
    oracle = [sup_indicator(assemble_gram(region, R, n), EPS).value for n in orders]
    assert_allclose(curve.values, oracle, rtol=1e-9)


def test_indicator_sweep_offcentre_origin_inside_is_bounded():
    # The origin lies inside, so the series converges; the float64 rank
    # flag of the Gram path used to call this disk BlowUp.
    region = DiskRegion((0.365, 0.0), 0.546)
    orders = [4, 8, 16, 24, 32]
    curve = indicator_sweep(region, R, EPS, orders)
    assert curve.verdict is Verdict.BOUNDED
    expected = [EPS * np.exp(log_disk_series_exact(Fraction(73, 200), Fraction(273, 500), n)) for n in orders]
    assert_allclose(curve.values, expected, rtol=1e-13)


def test_indicator_sweep_exact_until_float64_overflow():
    orders = list(range(8, 513, 8))
    curve = indicator_sweep(DiskRegion((1.3, 0.0), 0.25), R, EPS, orders)
    assert curve.verdict is Verdict.BLOW_UP
    log_exact = np.array([log_disk_series_exact(Fraction(13, 10), Fraction(1, 4), n) + np.log(EPS) for n in orders])
    top = np.log(np.finfo(float).max)
    assert np.min(np.abs(log_exact - top)) > 1e-6  # no order sits on the overflow edge
    finite = log_exact < top
    assert 0 < np.count_nonzero(finite) < len(orders)
    assert_allclose(curve.values[finite], np.exp(log_exact[finite]), rtol=1e-11)
    assert np.all(np.isposinf(curve.values[~finite]))


PI_40 = Decimal("3.141592653589793238462643383279502884197")


def sweep_decimal(center_dist: float, rho: float, eps: float, orders) -> list[Decimal]:
    """eps sqrt(sum_k |mu_k|^2 / D_k) at 40 digits, from the floats' exact values."""
    with localcontext() as ctx:
        ctx.prec = 40
        c, r = Decimal(center_dist), Decimal(rho)
        total, out = Decimal(0), []
        for k in range(1, orders[-1] + 1):
            total += (2 * PI_40 * k * c ** (k - 1)) ** 2 / (PI_40 * r ** (2 * k) * (k + r * r / (2 * (k + 1))))
            if k in orders:
                out.append(Decimal(eps) * total.sqrt())
    return out


@pytest.mark.parametrize(
    "center,rho,eps,orders",
    [
        # rho^2 overflows; I_16 leaves the float64 range.
        ((1e250, 0.0), 1e200, 1e-3, [4, 8]),
        ((1e250, 0.0), 1e200, 1e300, [4, 8]),
        # Origin inside: the gain alone is subnormal, about 4e-320.
        ((1e160, 0.0), 2e160, 1e300, [4, 8, 16, 32]),
    ],
)
def test_indicator_sweep_at_huge_rho_matches_a_decimal_reference(center, rho, eps, orders):
    curve = indicator_sweep(DiskRegion(center, rho), 1e300, eps, orders)
    for got, want in zip(curve.values, sweep_decimal(center[0], rho, eps, orders)):
        assert abs(Decimal(float(got)) - want) <= Decimal("1e-12") * want


@pytest.mark.parametrize("radius", [1.5, 10.0, 1e10, 1e155, 1e300])
def test_indicator_sweep_does_not_depend_on_the_ambient_radius(radius):
    # The pairings of Re/Im z^n with the gap trace carry R^(n+1) against
    # the trace's R^(-n-1); the sweep cancels them, so no R overflows it.
    orders = [4, 8, 16, 24, 32]
    for center, rho in [((0.0, 0.0), 0.5), ((1.1, -0.2), 0.3), ((0.365, 0.0), 0.546)]:
        region = DiskRegion(center, rho)
        with np.errstate(all="raise"):
            curve = indicator_sweep(region, radius, EPS, orders)
        reference = indicator_sweep(region, R, EPS, orders)
        assert curve.verdict is reference.verdict
        assert_allclose(curve.values, reference.values, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("radius", [1.1, 2.0, 10.0, 1e10])
def test_series_pairings_match_the_gap_trace(radius):
    # On a centred disk mu_k is the pairing omega_k of z^k itself, so the
    # series' k = 1 term is |omega_1|^2 / D_1, where omega_1 pairs Re/Im z
    # with the gap trace on r = R; the sweep's R-free pairings must match.
    from nrtlab.indicator import _series_log_terms

    rho = 0.5
    w = gap_neumann_trace(annulus_neumann_solution(radius), radius)

    def pairing(n, kind):
        return boundary_pairing(w, BoundaryData.mode(n, kind, radius**n), radius)

    omega = [pairing(0, "cos")] + [complex(pairing(n, "cos"), pairing(n, "sin")) for n in (1, 2)]
    d_k = [np.pi * rho**2] + [np.pi * rho ** (2 * k) * (k + rho**2 / (2 * (k + 1))) for k in (1, 2)]
    with np.errstate(divide="ignore"):
        expected = [2.0 * np.log(abs(o)) - np.log(d) for o, d in zip(omega, d_k)]
    assert_allclose(_series_log_terms(DiskRegion((0.0, 0.0), rho), 2), expected, rtol=1e-14)


def test_indicator_sweep_refuses_origin_on_boundary():
    with pytest.raises(ValueError, match="passes through the origin"):
        indicator_sweep(DiskRegion((0.5, 0.0), 0.5), R, EPS, [4, 8])


def test_indicator_sweep_refuses_a_non_finite_ambient_radius():
    for radius in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            indicator_sweep(DiskRegion((0.3, 0.0), 0.5), radius, EPS, [4, 8])


@pytest.mark.parametrize(
    "center,rho,verdict",
    [
        ((0.5 * (1.0 - 1e-12), 0.0), 0.5, Verdict.BOUNDED),
        ((0.5 * (1.0 - 2.0**-52), 0.0), 0.5, Verdict.BOUNDED),
        # A unit inside: the rounded q = |c|^2 / rho^2 is 1.
        ((0.29999999999999993, 0.0), 0.3, Verdict.BOUNDED),
        ((0.5 * (1.0 + 1e-12), 0.0), 0.5, Verdict.BLOW_UP),
    ],
)
def test_indicator_sweep_decides_disks_next_to_tangency(center, rho, verdict):
    # Within the old 1e-9 band, down to a unit from the circle.  Inside,
    # the tail (4 pi / rho^2) q^N (1 + N (1 - q)) / (1 - q)^2 takes 1 - q
    # from rationals here and from the exact power in the sweep.
    curve = indicator_sweep(DiskRegion(center, rho), R, EPS, [8, 64, 1024])
    assert curve.verdict is verdict
    assert np.all(np.isfinite(curve.values))
    if verdict is Verdict.BLOW_UP:
        assert np.isposinf(curve.limit_bound)
        return
    n, gap = 1024, float(1 - Fraction(center[0]) ** 2 / Fraction(rho) ** 2)
    tail = 4.0 * np.pi / rho**2 * math.exp(n * math.log1p(-gap)) * (1.0 + n * gap) / gap**2
    assert math.isfinite(curve.limit_bound) and curve.limit_bound >= curve.values[-1]
    assert_allclose(curve.limit_bound, EPS * math.sqrt((curve.values[-1] / EPS) ** 2 + tail), rtol=1e-12)


def test_indicator_sweep_two_orders_give_the_geometric_verdict():
    assert indicator_sweep(DiskRegion((0.0, 0.0), 0.5), R, EPS, [4, 8]).verdict is Verdict.BOUNDED
    assert indicator_sweep(DiskRegion((1.3, 0.0), 0.25), R, EPS, [4, 8]).verdict is Verdict.BLOW_UP


@pytest.mark.parametrize("orders", [[4, 8, 16, 24, 32], [4, 8]])
def test_indicator_sweep_verdict_is_the_geometry_next_to_the_origin(orders):
    # Disks whose boundary passes within a relative 1e-6 of the origin on
    # either side: the series converges or diverges there ever more slowly,
    # and the verdict still follows the side the origin is on.
    rng = np.random.default_rng(5)
    ratios = np.concatenate([np.linspace(0.9, 1.0 - 1e-6, 200), np.linspace(1.0 + 1e-6, 1.1, 200)])
    for ratio, angle in zip(ratios, rng.uniform(0.0, 2.0 * np.pi, ratios.size)):
        center = (0.5 * ratio * np.cos(angle), 0.5 * ratio * np.sin(angle))
        want = Verdict.BOUNDED if np.hypot(*center) < 0.5 else Verdict.BLOW_UP
        assert indicator_sweep(DiskRegion(center, 0.5), R, EPS, orders).verdict is want, (ratio, angle)


@pytest.mark.parametrize("center,rho", [((0.365, 0.0), 0.546), ((0.5, 0.0), 0.505), ((0.4995, 0.0), 0.5)])
def test_limit_bound_holds_beyond_the_sweep(center, rho):
    region = DiskRegion(center, rho)
    bound = indicator_sweep(region, R, EPS, [4, 8, 16, 24, 32]).limit_bound
    assert indicator_sweep(region, R, EPS, [1024]).values[-1] <= bound * (1.0 + 1e-15)
    # The bound only tightens with N, and I_N only grows, so their gap never widens.
    gaps = []
    for n in range(1, 129):
        curve = indicator_sweep(region, R, EPS, list(range(1, n + 1)))
        assert curve.values[-1] <= curve.limit_bound
        gaps.append(curve.limit_bound - curve.values[-1])
    assert np.all(np.diff(gaps) <= 0.0)


def test_limit_bound_is_the_tail_closed_form():
    # A centred disk has its whole series in k = 1, so the bound is the
    # k = 1 term plus (4 pi / rho^2) * 0 = I_N; off-centre the tail of
    # sum k q^(k-1) beyond N is summed exactly.
    centred = indicator_sweep(DiskRegion((0.0, 0.0), 0.5), R, EPS, [4, 8])
    assert centred.limit_bound == centred.values[-1]
    rho, c, n = 0.5, 0.25, 8
    q = c**2 / rho**2
    terms = [(2 * np.pi * k * c ** (k - 1)) ** 2 / (np.pi * rho ** (2 * k) * (k + rho**2 / (2 * (k + 1)))) for k in range(1, n + 1)]
    tail = 4 * np.pi / rho**2 * sum(k * q ** (k - 1) for k in range(n + 1, 2000))
    curve = indicator_sweep(DiskRegion((c, 0.0), rho), R, EPS, [4, n])
    assert_allclose(curve.limit_bound, EPS * np.sqrt(sum(terms) + tail), rtol=1e-14)
    assert np.isposinf(indicator_sweep(DiskRegion((1.3, 0.0), 0.25), R, EPS, [4, 8]).limit_bound)


# region-map's disk classes as (|c| / rho range, radius range), and its
# anchors, the first of them centred, as perfbench/workloads.py draws them.
REGION_MAP_CLASSES = (((0.0, 0.2), (0.1, 0.8)), ((0.2, 0.9), (0.1, 0.8)), ((1.1, 2.0), (0.1, 0.8)), ((2.0, 6.0), (0.1, 0.6)))
REGION_MAP_ANCHORS = (((0.0, 0.0), 0.5), ((1.3, 0.0), 0.25), ((0.365, 0.0), 0.546))


def region_map_disks(seed: int, per_class: int) -> list:
    rng = np.random.default_rng(seed)
    disks = list(REGION_MAP_ANCHORS)
    for (q_lo, q_hi), (r_lo, r_hi) in REGION_MAP_CLASSES:
        for rho, u, angle in zip(rng.uniform(r_lo, r_hi, per_class), rng.random(per_class), rng.uniform(0.0, 2.0 * np.pi, per_class)):
            q = q_lo + u * (min(q_hi, (1.9 - rho) / rho) - q_lo)
            disks.append(((q * rho * math.cos(angle), q * rho * math.sin(angle)), float(rho)))
    return disks


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("orders", [[4, 8, 16, 24, 32], list(range(1, 1025)), [1, 2, 3, 1024], list(range(8, 1025, 8))])
def test_indicator_sweep_blocks_round_like_one_logsumexp_per_block(orders):
    # One reduceat pass against a max, exp, sum and log per block: the sums
    # may round differently, and one unit of a log S_N near L moves I_N by
    # about L u relative, so the bar is 8 u max(1, |log S_N|) with
    # S_N = (I_N / eps)^2.  With eps = 1e-3 a value near 1 has log I_N near
    # 0 but log S_N near 14, so a bar in log I_N would be 14 times too tight.
    u = 2.0**-53
    for center, rho in region_map_disks(11, 25):
        region = DiskRegion(center, rho)
        curve = indicator_sweep(region, R, EPS, orders)
        reference = blockwise_indicator_sweep(region, EPS, orders)
        assert curve.verdict is reference.verdict
        got = np.append(curve.values, curve.limit_bound)
        want = np.append(reference.values, reference.limit_bound)
        assert np.array_equal(np.isfinite(got), np.isfinite(want)) and np.array_equal(got[np.isinf(got)], want[np.isinf(want)])
        finite = np.isfinite(want)
        log_s = 2.0 * (np.log(want[finite]) - math.log(EPS))
        bar = 8.0 * u * np.maximum(1.0, np.abs(log_s)) * want[finite]
        assert np.all(np.abs(got[finite] - want[finite]) <= bar), (center, rho)


def test_indicator_sweep_validates_orders():
    region = DiskRegion((0.0, 0.0), 0.5)
    for bad in ([], [8, 4], [4, 8, 4], [0, 4], ["x"], [4.5], 8, [4, MAX_SWEEP_ORDER + 1]):
        with pytest.raises(ValueError):
            indicator_sweep(region, R, EPS, bad)
    for bad_eps in (0.0, -EPS, np.nan, np.inf):
        with pytest.raises(ValueError):
            indicator_sweep(region, R, bad_eps, [4, 8])
    with pytest.raises(ValueError):
        indicator_sweep(DiskRegion((1.9, 0.0), 0.5), R, EPS, [4, 8])
    assert validate_orders(np.array([4, 8, MAX_SWEEP_ORDER])) == [4, 8, MAX_SWEEP_ORDER]


@pytest.mark.parametrize("t", [0.5, 0.25])
def test_runge_fit_recovers_pairing_target(t):
    fit = runge_fit(t, DiskRegion((1.3, 0.0), 0.25), R, 32)
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    pairing = boundary_pairing(w, fit.g, R)
    target = 2.0 * np.pi / t
    assert abs(pairing - target) <= 0.01 * target
    assert fit.residual < 0.2
    assert 0.0 < fit.zg_norm_on_G < 2.0 * fit.norm_on_G


def test_runge_fit_pairing_consistent_with_gradient_route():
    fit = runge_fit(0.5, DiskRegion((1.3, 0.0), 0.25), R, 32)
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    pairing = boundary_pairing(w, fit.g, R)
    lift = dirichlet_disk_solve(fit.g, R)
    gradient_route = -2.0 * np.pi * float(series_grad(lift, (0.0, 0.0))[0])
    assert_allclose(pairing, gradient_route, rtol=1e-10)


def test_runge_fit_preconditions():
    region = DiskRegion((1.3, 0.0), 0.25)
    with pytest.raises(ValueError, match="cavity"):
        runge_fit(1.3, region, R, 8)
    with pytest.raises(ValueError, match="ball"):
        runge_fit(1.6, region, R, 8)
    with pytest.raises(ValueError):
        runge_fit(2.5, region, R, 8)
    with pytest.raises(ValueError):
        runge_fit(-0.5, region, R, 8)
    near_origin = DiskRegion((0.4, 0.0), 0.3)
    with pytest.raises(ValueError):
        runge_fit(0.5, near_origin, R, 8)
    for order in (0, MAX_RUNGE_ORDER + 1):
        with pytest.raises(ValueError, match="cutoff order"):
            runge_fit(0.5, region, R, order)


def test_runge_fit_builds_no_quadrature_and_calls_no_eigh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the boundary fit must not reach this")

    import nrtlab.geometry
    import nrtlab.indicator

    monkeypatch.setattr(nrtlab.geometry, "build_disk_quadrature", forbidden)
    monkeypatch.setattr(nrtlab.indicator, "build_disk_quadrature", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    fit = runge_fit(0.5, DiskRegion((1.3, 0.0), 0.25), R, 16)
    assert fit.n_retained == 2 * 16 + 1


def test_runge_fit_calls_no_lstsq(monkeypatch):
    # The least squares runs through the orthonormal basis, not gelsd,
    # also where the rank rule drops a column and at the lowest order.
    def forbidden(*args, **kwargs):
        raise AssertionError("the boundary fit must not reach this")

    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    for t, order, rank in ((0.5, 1, 3), (0.5, 16, 33), (1e-6, 64, 128)):
        assert runge_fit(t, DiskRegion((1.3, 0.0), 0.25), R, order).n_retained == rank


def test_runge_fit_calls_no_fft(monkeypatch):
    # E_t's Taylor coefficients and the bound come from closed forms.
    def forbidden(*args, **kwargs):
        raise AssertionError("the boundary fit must not reach this")

    for name in ("rfft", "irfft", "fft"):
        monkeypatch.setattr(np.fft, name, forbidden)
    for order in (1, 32, 96):
        fit = runge_fit(0.5, DiskRegion((1.3, 0.0), 0.25), R, order)
        assert math.isfinite(fit.log10_max_g) and fit.pairing_bound > 0.0


def dense_samples(order: int) -> int:
    # Per circle: E_t's modes m - n alias onto mode n of m samples, so
    # well past the fit's m = 4N + 16 the sampled fit is the exact one.
    return 2 * (4 * order + 16) + 64


@pytest.mark.parametrize("order,sampled", [(1, 2.05), (2, 1.27), (3, 1.09)])
def test_runge_fit_at_the_lowest_orders(order, sampled):
    # With 2N + 1 <= 3 unknowns at N = 1, the three directions where the
    # least-squares matrix is not an isometry span every column.  The
    # bounds certify nothing there but are still reported, at or above
    # the sampled max.
    region = DiskRegion((1.3, 0.0), 0.25)
    fit = runge_fit(0.5, region, R, order)
    ref = point_space_runge_fit(0.5, region, order, dense_samples(order))
    assert fit.n_retained == ref.n_retained == 2 * order + 1
    assert abs(ref.pairing_bound - sampled) <= 0.005
    assert fit.pairing_bound >= ref.pairing_bound
    assert_allclose(fit.dx_p0, ref.dx_p0, rtol=1e-12)
    assert_allclose(fit.residual, ref.residual, rtol=1e-12)


@pytest.mark.parametrize("center,rho,t,order", [((1.3, 0.0), 0.25, 0.5, 16), ((1.3, 0.0), 0.25, 1e-6, 64), ((0.8, 0.6), 0.3, 1e-3, 96)])
def test_runge_least_squares_is_an_isometry_off_three_directions(center, rho, t, order):
    # The real (4N + 2) x (2N + 1) matrix of the fit, formed here column by
    # column, has 2N - 2 unit singular values and sqrt(2), sqrt(1 + s),
    # sqrt(1 - s) for s = |Q[:, 0] - Q[:, 1]|^2 / 4: Q Q^H = 2I and q_0 = 1.
    # Squared, the small one is 1 - s at the resolution the computed s allows.
    from nrtlab.indicator import _arnoldi_taylor

    Q, _ = _arnoldi_taylor(complex(*center), rho, 0.5 * t, order)
    scale = np.full(2 * (order + 1), math.sqrt(0.5))
    scale[:2] = 1.0
    M = Q.T * scale[:, None]
    A = np.concatenate([np.concatenate([M.real, -M[:, 1:].imag], axis=1), np.concatenate([M[2:].imag, M[2:, 1:].real], axis=1)])
    s = float(np.sum(np.abs(Q[:, 0] - Q[:, 1]) ** 2)) / 4.0
    closed = np.sort(np.concatenate([np.ones(2 * order - 2), [2.0, 1.0 + s, 1.0 - s]]))
    assert_allclose(np.sort(np.linalg.svd(A, compute_uv=False) ** 2), closed, rtol=0.0, atol=2e-13)
    assert_allclose(Q[:, 0] + Q[:, 1], 2.0 * np.eye(order + 1)[0], rtol=0.0, atol=1e-14)


# Centers at angles 0, pi/6, pi/2, 2pi/3, pi and -pi/2 about the origin,
# and one a tiny angle off the real axis, each at distance 1.3.
ROTATED_CENTERS = [
    complex(1.3, 0.0),
    cmath.rect(1.3, math.pi / 6),
    complex(0.0, 1.3),
    cmath.rect(1.3, 2 * math.pi / 3),
    complex(-1.3, 0.0),
    complex(0.0, -1.3),
    complex(1.3, 1.3e-300),
]


@pytest.mark.parametrize("order", [1, 8, 32, 96])
@pytest.mark.parametrize("center", ROTATED_CENTERS)
def test_arnoldi_taylor_rotated_build_matches_the_complex_reference(center, order):
    # The real build about |c| twisted by phases is the complex build about c.
    from nrtlab.indicator import _arnoldi_taylor

    rho, radius = 0.25, 0.25
    Q, H = _arnoldi_taylor(center, rho, radius, order)
    Q_ref, H_ref = complex_arnoldi_taylor(center, rho, radius, order)
    assert float(np.max(np.abs(Q - Q_ref))) <= 1e-13
    assert float(np.max(np.abs(H - H_ref))) <= 1e-13
    assert float(np.max(np.abs(Q @ Q.conj().T - 2.0 * np.eye(order + 1)))) <= 1e-14
    assert np.all(np.diag(H, -1).imag == 0.0) and np.all(np.diag(H, -1).real > 0.0)
    # z q_k = sum_j H[j, k] q_j, with z acting on the coefficients as the bidiagonal map.
    shifted = np.zeros_like(Q[:order])
    shifted[:, 0::2] = center * Q[:order, 0::2]
    shifted[:, 2::2] += rho * Q[:order, 0:-2:2]
    shifted[:, 3::2] += radius * Q[:order, 1:-2:2]
    assert float(np.max(np.abs(shifted - H.T @ Q))) <= 1e-14 * max(1.0, abs(center))


@pytest.mark.parametrize("center", ROTATED_CENTERS)
def test_arnoldi_taylor_is_bitwise_stable(center):
    # Row k and H's column k depend on k alone, so the order-96 build
    # holds the order-8 build bit for bit, and a call repeats its bits.
    from nrtlab.indicator import _arnoldi_taylor

    Q, H = _arnoldi_taylor(center, 0.2, 0.25, MAX_RUNGE_ORDER)
    Q8, H8 = _arnoldi_taylor(center, 0.2, 0.25, 8)
    assert np.array_equal(Q[:9, :18], Q8) and np.all(Q[:9, 18:] == 0.0)
    assert np.array_equal(H[:9, :8], H8) and np.all(H[9:, :8] == 0.0)
    again = _arnoldi_taylor(center, 0.2, 0.25, MAX_RUNGE_ORDER)
    assert np.array_equal(Q, again[0]) and np.array_equal(H, again[1])
    if center.imag == 0.0 and center.real > 0.0:
        assert Q.dtype == H.dtype == complex
        assert np.all(Q.imag == 0.0) and np.all(H.imag == 0.0)


def test_runge_fit_runs_one_recurrence_off_the_fit_points(monkeypatch):
    # The fit reads its bound, P(0) and p'(0) off its Taylor coefficients,
    # so it runs no recurrence.  log10_max_g runs one on r = R when read.
    import nrtlab.indicator

    calls = []
    original = nrtlab.indicator._arnoldi_real_part

    def counting(*args):
        calls.append(args[2].size)
        return original(*args)

    monkeypatch.setattr(nrtlab.indicator, "_arnoldi_real_part", counting)
    for order in (8, 32, 64):
        fit = runge_fit(0.25, DiskRegion((1.1, -0.2), 0.3), R, order)
        assert calls == []
        assert math.isfinite(fit.log10_max_g)
        assert calls == [4 * order + 16]
        calls.clear()


# Criterion 10's disks, and the seeded disks of the benchmark's probe route
# at seed 1 with the order each gets there.
BOUND_DISKS = [((1.3, 0.0), 0.25, order) for order in range(8, 97, 8)] + [
    ((1.1, -0.2), 0.3, order) for order in range(8, 97, 8)
]
PROBE_ROUTE_DISKS = [
    ((1.0544105135721669, -0.260075219456525), 0.1082432929124773, 16),
    ((-0.5031129204746526, 0.928183374782859), 0.332010218949651, 16),
    ((-1.2434005541134632, -0.575350347689965), 0.1447107175857101, 16),
    ((-0.2275616447121662, -0.9469748966211226), 0.18633744723701628, 32),
    ((0.017722949276130856, -1.228123348578736), 0.36212977436079097, 32),
    ((0.6231821056935333, 1.296311713482469), 0.3187591168157513, 32),
    ((0.8029458798471956, 1.3110029541765627), 0.23507782466117827, 48),
    ((0.6470215375615206, -0.49458881987577646), 0.20335104243117913, 48),
    ((1.1470861424083985, 0.3149835387045002), 0.28155783351104624, 48),
    ((-0.6490734954152036, 0.7914631406350664), 0.39951842999503107, 64),
    ((-1.559798252367089, 0.4858292234646851), 0.25508638101690373, 64),
    ((-1.0884135738185896, -0.9895461712557766), 0.15757987073229116, 64),
]
# Fits where lstsq's rank rule drops one of the 2N + 1 columns.
RANK_DEFICIENT = [((1.3, 0.0), 0.25, order, t) for order in range(32, 97, 8) for t in (1e-3, 1e-6)] + [
    ((0.8, 0.6), 0.3, order, 1e-3) for order in range(48, 97, 8)
]


def test_runge_fit_bound_samples_match_the_recurrence():
    # pairing_bound covers (8/pi) max |P - E_t| on the circle of B, with P
    # evaluated by H's recurrence at 10^5 points.  Each sample carries
    # float64 rounding of its own: the recurrence ends in a dot product of
    # N + 1 terms (gamma_{N+1} |P|), log |z - t| is off by u |E_t| plus the
    # 2u relative error of the modulus, the difference adds u, and points
    # off |w| = 1 by 2u scale a degree-N series by (1 + 2u)^N.  The
    # allowance takes 2 (N + 4) u times |P| + |E_t| + 1 + the bound for all
    # of it.  log10_max_g is that recurrence on m points of r = R.
    from nrtlab.indicator import FLOAT_EPS, _arnoldi_real_part

    count = 10**5
    circle = np.exp(2j * np.pi * np.arange(count) / count)
    worst = 0.0
    for center, rho, order in BOUND_DISKS + PROBE_ROUTE_DISKS:
        for t in (0.5, 0.25, 0.125):
            fit = runge_fit(t, DiskRegion(center, rho), R, order)
            sampled, sizes = 0.0, 0.0
            for chunk in np.split(0.5 * t * circle, 10):
                values, exponent = _arnoldi_real_part(fit.H, fit.coeff, chunk)
                P, E = np.ldexp(values, exponent), np.log(np.abs(chunk - t))
                sampled = max(sampled, float(np.max(np.abs(P - E))))
                sizes = max(sizes, float(np.max(np.abs(P) + np.abs(E))))
            allowance = (order + 4) * FLOAT_EPS * (sizes + 1.0 + fit.pairing_bound)
            assert fit.pairing_bound >= 8.0 / np.pi * (sampled - allowance), (center, rho, order, t)
            worst = max(worst, 8.0 / np.pi * sampled / fit.pairing_bound)
            m = 4 * order + 16
            values, exponent = _arnoldi_real_part(fit.H, fit.coeff, R * np.exp(2j * np.pi * np.arange(m) / m))
            assert fit.log10_max_g == exponent * math.log10(2.0) + math.log10(float(np.max(np.abs(values))))
    assert worst < 1.0


def test_runge_fit_matches_the_point_space_reference():
    # On each circle the m-point trapezoid rule is exact for the products
    # of two polynomials of degree <= N, so the fit on Taylor coefficients
    # is the fit on the 2m sample points up to rounding and aliasing: the
    # same Hessenberg matrix, the same rank, pairing and residual, and a
    # bound at or above the sampled max.  The reference takes dense_samples
    # per circle, which leaves E_t's aliased modes below rounding, and
    # keeps the rank rule of m = 4N + 16.
    # The rank-deficient fits keep 2N columns, through the rank rule on
    # the one small singular value.  Their balls are far smaller, and the
    # two Hessenberg matrices agree there only to about 3e-12, so H is
    # compared on the reference fits alone; the two fits' P differ there
    # by about 1e-10 on the circle of B, so the sampled max of the
    # reference's P may pass the bound by up to the 1e-9 these bounds were
    # held to when both were sampled.
    worst = {"pairing": 0.0, "residual": 0.0, "H": 0.0}
    reference_fits = [(c, rho, order, t) for c, rho, order in BOUND_DISKS + PROBE_ROUTE_DISKS for t in (0.5, 0.25, 0.125)]
    for center, rho, order, t in reference_fits + RANK_DEFICIENT:
        region = DiskRegion(center, rho)
        fit = runge_fit(t, region, R, order)
        ref = point_space_runge_fit(t, region, order, dense_samples(order))
        assert fit.n_retained == ref.n_retained
        worst["pairing"] = max(worst["pairing"], abs(fit.dx_p0 - ref.dx_p0) / abs(ref.dx_p0))
        worst["residual"] = max(worst["residual"], abs(fit.residual - ref.residual))
        if (center, rho, order, t) in RANK_DEFICIENT:
            assert ref.n_retained == 2 * order
            assert ref.pairing_bound - fit.pairing_bound <= 1e-9
        else:
            assert fit.pairing_bound >= ref.pairing_bound
            worst["H"] = max(worst["H"], float(np.linalg.norm(fit.H - ref.H) / np.linalg.norm(ref.H)))
    assert worst["pairing"] <= 1e-9, worst
    assert worst["residual"] <= 1e-10, worst
    assert worst["H"] <= 1e-13, worst


def test_runge_fit_keeps_modes_up_to_one():
    # g carries P(0) and R grad P(0); the gap trace pairs with nothing else.
    fit = runge_fit(0.25, DiskRegion((1.1, -0.2), 0.3), R, 32)
    assert fit.g.max_order == 1
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    assert_allclose(boundary_pairing(w, fit.g, R), -2.0 * np.pi * fit.g.cos_coeff[1] / R, rtol=1e-15)
    assert_allclose(boundary_pairing(w, fit.g, R), 8.0 * np.pi, rtol=1e-5)


def exact_tail_sq(q: float, rho: float, start: int, terms: int = 2 * 10**6) -> float:
    """pi sum_{n > start} q^n / n^2 (n + rho^2 / (2 (n + 1))), the Dirichlet part in closed form."""
    head = np.arange(1.0, start + 1.0)
    n = np.arange(start + 1.0, terms + 1.0)
    dirichlet = -math.log1p(-q) - float(np.sum(q**head / head))
    return np.pi * (dirichlet + 0.5 * rho**2 * float(np.sum(q**n / (n * n * (n + 1.0)))))


@pytest.mark.parametrize(
    "center,rho,t,resolved",
    [((1.3, 0.0), 0.25, 0.5, True), ((1.1, -0.2), 0.3, 0.25, True), ((0.0, 1.2), 0.4, 0.125, True), ((1.0, 0.0), 0.4995, 0.5, False)],
)
def test_runge_fit_probe_norm_matches_closed_form(center, rho, t, resolved):
    # log|z - t| = log d - sum_n Re(((z - c) / s)^n) / n with s = t - c and
    # d = |s| > rho, so its trace on the circle of G has mode amplitudes
    # (rho / d)^n / n and, with q = (rho / d)^2, ||E_t||^2 = pi rho^2 log^2 d
    # - pi log1p(-q) + (pi rho^2 / 2) sum_n q^n / (n^2 (n + 1)).  The last
    # disk is near tangent, q = 0.998, where N = 32 does not resolve E_t.
    fit = runge_fit(t, DiskRegion(center, rho), R, 32)
    d = math.hypot(t - center[0], center[1])
    exact = np.pi * rho**2 * math.log(d) ** 2 + exact_tail_sq((rho / d) ** 2, rho, 0)
    assert_allclose(fit.norm_on_G, math.sqrt(exact), rtol=1e-12)
    if resolved:
        assert_allclose(fit.zg_norm_on_G, fit.norm_on_G, rtol=1e-3)


def test_runge_fit_near_tangent_norms_stay_within_their_remainder():
    # At |d| / rho = 1 + 1e-6 the tails would need about 2e7 terms; they
    # stop at M = N + TAIL_TERMS, where the L2 part leaves less than
    # pi rho^2 / (4 M^2) and the Dirichlet part's rest is in closed form.
    # The fit's own misfit up to N is summed here from its coefficients.
    from nrtlab.indicator import TAIL_TERMS, _arnoldi_taylor

    t, order, d = 0.5, 32, 0.5
    rho = d / (1.0 + 1e-6)
    fit = runge_fit(t, DiskRegion((1.0, 0.0), rho), R, order)
    q = (rho / d) ** 2
    Q, _ = _arnoldi_taylor(complex(1.0, 0.0), rho, 0.5 * t, order)
    fitted = (fit.coeff @ Q).reshape(order + 1, 2).T
    fitted[:, 0] = fitted[:, 0].real
    n = np.arange(1, order + 1)
    misfit_sq = 0.0
    for row, radius, e0, e in ((0, rho, math.log(d), -((-rho / d) ** n) / n), (1, 0.5 * t, math.log(t), -(0.5**n) / n)):
        weight = np.pi * (n + radius**2 / (2.0 * (n + 1.0)))
        misfit_sq += np.pi * radius**2 * (fitted[row, 0].real - e0) ** 2 + np.abs(fitted[row, 1:] - e) ** 2 @ weight
    tail_B = sum(np.pi * 0.25**k / k**2 * (k + (0.5 * t) ** 2 / (2.0 * (k + 1))) for k in range(order + 1, 400))
    residual_sq = misfit_sq + exact_tail_sq(q, rho, order) + tail_B
    norm_sq = np.pi * rho**2 * math.log(d) ** 2 + exact_tail_sq(q, rho, 0)
    for value, exact in ((fit.residual, residual_sq), (fit.norm_on_G, norm_sq)):
        assert math.isfinite(value)
        assert 0.0 <= exact - value**2 <= np.pi * rho**2 / (4.0 * (order + TAIL_TERMS) ** 2)


@pytest.mark.parametrize(
    "center,rho,t",
    [
        # Exactly outside, yet the rounded |c - t| equals rho, so the rounded q = (rho / |c - t|)^2 is 1.
        ((0.75, 0.0), 0.6499999999999999, 0.10000000000000003),
        ((0.5 + 0.25 * (1.0 + 2.0**-50), 0.0), 0.25, 0.5),
    ],
)
def test_runge_fit_a_unit_from_tangency_stays_finite(center, rho, t):
    # The tails take 1 - q from the exact power.  On G, ||E_t||^2 =
    # pi rho^2 log^2 d - pi log(1 - q) + (pi rho^2 / 2) sum_n q^n / (n^2 (n + 1)),
    # and the last sum is pi^2 / 6 - 1 to within 1 - q here; the fit's
    # L2 part stops at M = N + TAIL_TERMS, short by less than pi rho^2 / (4 M^2).
    from nrtlab.indicator import TAIL_TERMS

    d_sq = (Fraction(center[0]) - Fraction(t)) ** 2 + Fraction(center[1]) ** 2
    gap = float(1 - Fraction(rho) ** 2 / d_sq)
    exact = np.pi * (rho**2 * (0.5 * math.log(float(d_sq))) ** 2 - math.log(gap) + 0.5 * rho**2 * (np.pi**2 / 6.0 - 1.0))
    for order in (1, 8, 32):
        fit = runge_fit(t, DiskRegion(center, rho), R, order)
        assert all(math.isfinite(v) for v in (fit.dx_p0, fit.residual, fit.pairing_bound, fit.log10_max_g))
        assert -1e-12 * exact <= exact - fit.norm_on_G**2 <= np.pi * rho**2 / (4.0 * (order + TAIL_TERMS) ** 2)


@pytest.mark.parametrize(
    "center,rho,t",
    [((0.75, 0.0), 0.6499999999999999, 0.10000000000000003), ((0.75, 0.0), 0.5, 0.25), ((0.375, 0.5), 0.375, 0.25), ((-0.375, -0.5), 0.375, 0.25)],
)
def test_runge_fit_preconditions_match_rationals_next_to_tangency(center, rho, t):
    # t e1 outside the closed cavity, |c - t e1|^2 > rho^2, and the cavity
    # outside the closed ball of radius t, |c|^2 > (t + rho)^2, on a scan
    # across the exact ties (|c| = t + rho in each base case but the first).
    for probe in near(t):
        for radius in near(rho):
            outside = exact_power((probe, 0.0), center, radius) > 0
            apart = exact_power((0.0, 0.0), center, probe, radius) > 0
            if outside and apart:
                runge_fit(probe, DiskRegion(center, radius), R, 1)
                continue
            with pytest.raises(ValueError, match="cavity closure" if not outside else "closed ball"):
                runge_fit(probe, DiskRegion(center, radius), R, 1)


def test_runge_fit_log10_max_g_survives_huge_radius():
    # The fit does not depend on R.  Far out, the degree-N term dominates
    # P, so log10 max |P| on r = R grows by N per decade of R; 10^300 ^ 32
    # is far beyond the float64 range, yet the log stays finite.
    region = DiskRegion((1.3, 0.0), 0.25)
    fits = [runge_fit(0.5, region, radius, 32) for radius in (2.0, 1e10, 1e20, 1e300)]
    assert all(f.pairing_bound == fits[0].pairing_bound and f.residual == fits[0].residual for f in fits)
    assert fits[0].log10_max_g < fits[1].log10_max_g
    assert_allclose(fits[2].log10_max_g - fits[1].log10_max_g, 32 * 10.0, rtol=1e-9)
    assert_allclose(fits[3].log10_max_g - fits[2].log10_max_g, 32 * 280.0, rtol=1e-9)


def test_scaled_sequence_window():
    fit = runge_fit(0.5, DiskRegion((1.3, 0.0), 0.25), R, 32)
    g = scaled_sequence(fit, EPS)
    scale = EPS / (2.0 * fit.norm_on_G)
    assert_allclose(g.cos_coeff, fit.g.cos_coeff * scale, rtol=0.0, atol=0.0)
    lift_norm = fit.zg_norm_on_G * scale
    assert 0.4 * EPS < lift_norm < 0.6 * EPS
    with pytest.raises(ValueError):
        scaled_sequence(fit, 0.0)


def test_log_slope_exact_power_law():
    ts = np.array([0.5, 0.25, 0.125])
    curve = IndicatorCurve(parameter="t", grid=ts, values=2.0 * np.pi / ts, eps=EPS)
    slope, r2 = log_slope(curve)
    assert_allclose(slope, 1.0, rtol=1e-12)
    assert_allclose(r2, 1.0, rtol=1e-12)


@pytest.mark.parametrize(
    "values,expected",
    [
        (lambda t: 2.0 * np.pi / t, Verdict.BLOW_UP),
        (lambda t: 3.0 + 0.0 * t, Verdict.BOUNDED),
        (lambda t: (1.0 / t) ** 0.4, Verdict.INCONCLUSIVE),
        (lambda t: 0.0 * t, Verdict.BOUNDED),
    ],
)
def test_blow_up_diagnostic_cases(values, expected):
    ts = np.array([0.5, 0.25, 0.125, 0.0625])
    curve = IndicatorCurve(parameter="t", grid=ts, values=values(ts), eps=EPS)
    assert blow_up_diagnostic(curve) is expected


def test_blow_up_diagnostic_order_parameter():
    grid = np.array([4.0, 8.0, 16.0])
    curve = IndicatorCurve(parameter="N", grid=grid, values=np.exp(grid), eps=EPS)
    assert blow_up_diagnostic(curve) is Verdict.BLOW_UP


def test_blow_up_diagnostic_preconditions():
    short = IndicatorCurve(parameter="t", grid=np.array([0.5, 0.25]), values=np.array([1.0, 2.0]), eps=EPS)
    with pytest.raises(ValueError):
        blow_up_diagnostic(short)
    mixed = IndicatorCurve(parameter="t", grid=np.array([0.5, 0.25, 0.125]), values=np.array([1.0, -2.0, 3.0]), eps=EPS)
    with pytest.raises(ValueError):
        blow_up_diagnostic(mixed)


def test_indicator_curve_validation():
    with pytest.raises(ValueError):
        IndicatorCurve(parameter="x", grid=np.array([1.0]), values=np.array([1.0]), eps=EPS)
    with pytest.raises(ValueError):
        IndicatorCurve(parameter="t", grid=np.array([1.0, 2.0]), values=np.array([1.0]), eps=EPS)
    curve = IndicatorCurve(parameter="t", grid=np.array([0.5, 0.25]), values=np.array([2, 4]), eps=EPS)
    assert curve.values.dtype == float and curve.values.tolist() == [2.0, 4.0] and not curve.values.flags.writeable
