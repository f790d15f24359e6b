"""Acceptance gate: the headline claims of the package at stated tolerances.

Each criterion is one test that records a single PASS/FAIL line and
then asserts.  The conftest terminal-summary hook prints the recorded
scorecard, so a plain pytest run always shows one line per criterion.
"""

import numpy as np

from nrtlab.checks import (
    enclosure_bound,
    enclosure_closed_form,
    enclosure_indicator,
    enclosure_sweep,
    gradient_identity,
    probe_kernel,
    sign_cell_counts,
    sign_indefiniteness_certificate,
    sign_map,
)
from nrtlab.geometry import DiskRegion, build_disk_quadrature
from nrtlab.harmonic import (
    HarmonicSeries,
    annulus_neumann_solution,
    boundary_pairing,
    dirichlet_disk_solve,
    gap_neumann_trace,
    random_boundary_data,
)
from nrtlab.indicator import IndicatorCurve, Verdict, blow_up_diagnostic, indicator_sweep, log_slope, runge_fit
from reference import CircleContour, contour_green_pairing, h1_inner, scaled_sequence

R = 2.0
EPS = 1e-3
BOUNDED_REGION = DiskRegion((0.0, 0.0), 0.5)
BLOWUP_REGION = DiskRegion((1.3, 0.0), 0.25)
ORDERS = [4, 8, 16, 24, 32]


SCORECARD = []


def _report(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    SCORECARD.append(f"[criterion {num}] {status} {label}: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def test_criterion_1_gradient_identity():
    rng = np.random.default_rng(101)
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    worst = 0.0
    for _ in range(50):
        order = int(rng.integers(1, 33))
        pairing, gradient_form = gradient_identity(random_boundary_data(order, rng), R, w)
        worst = max(worst, abs(pairing - gradient_form))
    _report(1, "gradient identity", worst <= 1e-10, f"max residual {worst:.3e} over 50 random data (tol 1e-10)")


def test_criterion_2_contour_pairing_matches_boundary_pairing():
    rng = np.random.default_rng(102)
    u = annulus_neumann_solution(R)
    w = gap_neumann_trace(u, R)
    worst = 0.0
    for _ in range(10):
        g = random_boundary_data(12, rng)
        reference = boundary_pairing(w, g, R)
        z = dirichlet_disk_solve(g, R)
        for eta in (0.2, 0.5, 0.8):
            value = contour_green_pairing(u, z, CircleContour((0.0, 0.0), eta))
            worst = max(worst, abs(value - reference))
    _report(2, "contour pairing", worst <= 1e-9, f"max |contour - modal| {worst:.3e} at radii 0.2/0.5/0.8 (tol 1e-9)")


def test_criterion_3_bounded_region_plateau():
    curve = indicator_sweep(BOUNDED_REGION, R, EPS, ORDERS)
    tail = curve.values[-3:]
    spread = float((tail.max() - tail.min()) / tail.max())
    base = curve.values
    rel2 = np.max(np.abs(indicator_sweep(BOUNDED_REGION, R, 2 * EPS, ORDERS).values - 2 * base) / (2 * base))
    rel10 = np.max(np.abs(indicator_sweep(BOUNDED_REGION, R, 10 * EPS, ORDERS).values - 10 * base) / (10 * base))
    checks = [
        (curve.verdict is Verdict.BOUNDED, f"verdict {curve.verdict.value}"),
        (spread <= 0.10, f"tail spread {spread:.2%}"),
        (max(rel2, rel10) <= 1e-15, f"eps-linearity rel {max(rel2, rel10):.2e}"),
    ]
    passed = all(ok for ok, _ in checks)
    _report(3, "bounded plateau", passed, "; ".join(msg for _, msg in checks))


def test_criterion_4_blow_up_route():
    ts = [0.5, 0.25, 0.125]
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    pairings = []
    scaled = []
    # (1 - b_t) 2 pi / t is a proven lower bound on the pairing wherever b_t < 1.
    lowers = []
    for t in ts:
        fit = runge_fit(t, BLOWUP_REGION, R, 32)
        pairings.append(boundary_pairing(w, fit.g, R))
        scaled.append(abs(boundary_pairing(w, scaled_sequence(fit, EPS), R)))
        lowers.append((1.0 - fit.pairing_bound) * 2.0 * np.pi / t)
    rel = abs(pairings[0] - 4.0 * np.pi) / (4.0 * np.pi)
    growth = min(b / a for a, b in zip(scaled, scaled[1:]))
    curve = IndicatorCurve(parameter="t", grid=np.array(ts), values=np.abs(pairings), eps=EPS)
    slope, _ = log_slope(curve)
    diag = blow_up_diagnostic(curve)
    sweep = indicator_sweep(BLOWUP_REGION, R, EPS, ORDERS)
    checks = [
        (rel <= 0.05, f"pairing at t=0.5 off 2 pi / t by {rel:.2%}"),
        (growth >= 1.8, f"min scaled growth per halving {growth:.2f}"),
        (diag is Verdict.BLOW_UP and 0.8 <= slope <= 1.2, f"diagnostic {diag.value} slope {slope:.3f}"),
        (all(0.0 < lower <= p for lower, p in zip(lowers, pairings)),
         f"certified lower bounds {', '.join(f'{lower:.3f}' for lower in lowers)}"),
        (sweep.verdict is Verdict.BLOW_UP, f"sup sweep verdict {sweep.verdict.value}"),
    ]
    passed = all(ok for ok, _ in checks)
    _report(4, "blow-up route", passed, "; ".join(msg for _, msg in checks))


def test_criterion_5_sign_indefiniteness():
    y3s = [0.2, 0.1, 0.05]
    certificate = sign_indefiniteness_certificate(y3s, patch_radius=1.0)
    checks = [(certificate, f"certificate issued, margin {1.0 - np.sqrt(2.0) * y3s[0]:.3f}")]
    for y3 in y3s:
        field = sign_map(y3, half_width=1.0, resolution=101)
        radius_err = abs(field.zero_radius_estimate - np.sqrt(2.0) * y3)
        center = probe_kernel(0.0, 0.0, y3)
        center_rel = abs(center + 2.0 / y3**3) * y3**3 / 2.0
        outside = probe_kernel(2.0 * y3, 0.0, y3)
        mismatched = sign_cell_counts(field)[3]
        checks.append((radius_err <= field.grid_step, f"y3={y3} zero radius off by {radius_err:.3f} (cell {field.grid_step:.3f})"))
        checks.append((center_rel <= 1e-12 and outside > 0.0, f"y3={y3} center rel {center_rel:.1e}, outer sign {np.sign(outside):+.0f}"))
        checks.append((mismatched == 0, f"y3={y3} {mismatched} cells off the closed-form sign"))
    passed = all(ok for ok, _ in checks)
    _report(5, "sign indefiniteness", passed, "; ".join(msg for _, msg in checks))


def test_criterion_6_enclosure_decay():
    worst = 0.0
    for tau in (1.0, 10.0, 50.0):
        value = enclosure_indicator(tau, 0.0, R)
        closed = enclosure_closed_form(tau, 0.0)
        worst = max(worst, abs(value - closed) / abs(closed))
    taus = [1.0, 10.0, 20.0, 50.0, 100.0]
    rates = [float(np.log(abs(value)) / tau) for tau, value in zip(taus, enclosure_sweep(taus, 0.0, R))]
    decreasing = all(b < a for a, b in zip(rates, rates[1:]))
    # |I_tau| = 2 pi tau (1 +- beta) puts each rate within beta / tau of
    # log(2 pi tau) / tau, which tends to 0; the log and the division round.
    eps = np.finfo(float).eps
    share = max(
        abs(rate - np.log(2.0 * np.pi * tau) / tau)
        / ((enclosure_bound(tau, R) + 2.0 * eps) / tau + 2.0 * eps * abs(rate))
        for tau, rate in zip(taus, rates)
    )
    checks = [
        (worst <= 1e-8, f"max rel error vs closed form {worst:.2e}"),
        (decreasing, f"log-modulus rate decreasing {decreasing}"),
        (share <= 1.0, f"max rate offset from log(2 pi tau) / tau {share:.2f} of its bound"),
    ]
    passed = all(ok for ok, _ in checks)
    _report(6, "enclosure decay", passed, "; ".join(msg for _, msg in checks))


def _orthogonal_basis(region, order, nodes):
    """Values, gradients and pairings of 1, Re (z - c)^k, Im (z - c)^k, k <= order.

    Pairings use the gradient identity l(f) = -2 pi d/dx f(0), with
    d/dx (z - c)^k = k (z - c)^(k-1); rows follow the order 1, Re, Im, ...
    """
    c = complex(*region.center)
    s = nodes[:, 0] + 1j * nodes[:, 1] - c
    vals, gx, gy, pairings = [np.ones(s.size)], [np.zeros(s.size)], [np.zeros(s.size)], [0.0]
    for k in range(1, order + 1):
        power, dpower, at_origin = s**k, k * s ** (k - 1), k * (-c) ** (k - 1)
        vals += [power.real, power.imag]
        gx += [dpower.real, dpower.imag]
        gy += [-dpower.imag, dpower.real]
        pairings += [-2.0 * np.pi * at_origin.real, -2.0 * np.pi * at_origin.imag]
    return np.array(vals), np.array(gx), np.array(gy), np.array(pairings)


def test_criterion_7_sup_dominates_feasible_samples():
    # Draws on the constraint ellipse in the orthogonal basis of H1(G),
    # with norms from quadrature and pairings from the gradient identity,
    # so nothing here reuses the series the sweep sums.  One draw is the
    # maximiser, which must come within 1e-6 of the sweep value.
    rng = np.random.default_rng(107)
    worst = 0.0
    attained = np.inf
    for region in (BOUNDED_REGION, BLOWUP_REGION):
        for order in (8, 16):
            value = indicator_sweep(region, R, EPS, [order]).values[0]
            rule = build_disk_quadrature(region, order + 4, 2 * order + 8)
            V, Gx, Gy, pairings = _orthogonal_basis(region, order, rule.nodes)
            w = rule.weights
            gram = (V * w) @ V.T + (Gx * w) @ Gx.T + (Gy * w) @ Gy.T
            scale = 1.0 / np.sqrt(np.diag(gram))
            W = rng.standard_normal((1000, pairings.size))
            W[0] = pairings * scale
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            # Back off the boundary by more than the roundoff of the
            # quadratic form so every sample stays strictly feasible.
            C = EPS * (1.0 - 1e-7) * W * scale
            quad = np.einsum("ki,ij,kj->k", C, gram, C)
            assert quad.max() <= EPS**2 * (1.0 + 1e-9)
            ratios = np.abs(C @ pairings) / value
            worst = max(worst, float(ratios.max()))
            attained = min(attained, float(ratios[0]))
    passed = worst <= 1.0 + 1e-9 and attained >= 1.0 - 1e-6
    _report(
        7,
        "sup domination",
        passed,
        f"max sample/sup ratio {worst:.12f}, maximiser reaches {attained:.12f}, over 4 systems x 1000 draws",
    )


def test_criterion_8_energy_inner_product_closed_form():
    region = DiskRegion((0.0, 0.0), 1.0)
    rule = build_disk_quadrature(region, 16, 32)
    f = HarmonicSeries(regular_cos=[0.0, 1.0], regular_sin=[0.0, 0.0])
    value = h1_inner(f, f, rule, region)
    expected = np.pi + np.pi / 4.0
    rel = abs(value - expected) / expected
    _report(8, "energy inner product", rel <= 1e-10, f"r cos theta on unit disk rel error {rel:.2e} (tol 1e-10)")


def test_criterion_9_exact_series_growth():
    far = indicator_sweep(BLOWUP_REGION, R, EPS, [48, 64])
    rate = float(np.log(far.values[1] / far.values[0])) / 16.0
    walsh = float(np.log(np.hypot(*BLOWUP_REGION.center) / BLOWUP_REGION.radius))
    rate_rel = abs(rate - walsh) / walsh
    near = indicator_sweep(DiskRegion((0.365, 0.0), 0.546), R, EPS, range(1, 401))
    limit_rel = abs(near.values[399] - near.values[199]) / near.values[399]
    monotone = bool(np.all(np.diff(near.values) >= 0.0))
    checks = [
        (rate_rel <= 0.01, f"growth per order over N=48..64 {rate:.4f} vs log(|c|/rho) {walsh:.4f}"),
        (limit_rel <= 1e-12 and monotone, f"origin-inside I_200 vs I_400 rel {limit_rel:.1e}, nondecreasing {monotone}"),
        (near.verdict is Verdict.BOUNDED, f"origin-inside verdict {near.verdict.value}"),
    ]
    passed = all(ok for ok, _ in checks)
    _report(9, "exact series growth", passed, "; ".join(msg for _, msg in checks))


def test_criterion_10_certified_runge_bound():
    # The boundary fit's bound (8/pi) max |P - E_t| on the circle of B must
    # hold on every fit, and the fit must converge to near rounding level.
    w = gap_neumann_trace(annulus_neumann_solution(R), R)
    worst_ratio = 0.0
    at_96 = 0.0
    for region in (BLOWUP_REGION, DiskRegion((1.1, -0.2), 0.3)):
        for t in (0.5, 0.25):
            for order in range(8, 97, 8):
                fit = runge_fit(t, region, R, order)
                rel = abs(boundary_pairing(w, fit.g, R) - 2.0 * np.pi / t) / (2.0 * np.pi / t)
                worst_ratio = max(worst_ratio, rel / fit.pairing_bound)
                if order == 96:
                    at_96 = max(at_96, rel)
    checks = [
        (worst_ratio <= 1.0, f"max error/bound {worst_ratio:.2e} over 2 disks x 2 t x N=8..96"),
        (at_96 <= 1e-9, f"max error at N=96 {at_96:.1e} (tol 1e-9)"),
    ]
    passed = all(ok for ok, _ in checks)
    _report(10, "certified Runge bound", passed, "; ".join(msg for _, msg in checks))
