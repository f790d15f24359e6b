"""Closed forms the benchmark checks the program's numbers against.

Every function here is derived by hand from the problem set-up and uses
only the standard library, so the checks share no code with nrtlab.
"""

from __future__ import annotations

import cmath
import math

# Ambient radius and constraint radius of the default configuration.
BOUNDARY_RADIUS = 2.0
EPS = 1e-3


def disk_series(center_dist: float, radius: float, order: int, eps: float = EPS) -> float:
    """Exact constrained sup I_N on the disk G = disk(c, rho), |c| = center_dist.

    Derivation.  The lifted data of order <= N span the harmonic
    polynomials of degree <= N, which on G are also spanned by
    e_0 = 1 and Re/Im (z - c)^k, k = 1..N.  These are orthogonal in
    H1(G) by angular orthogonality on the circles |z - c| = r, with

        ||Re (z-c)^k||^2 = ||Im (z-c)^k||^2
          = int_0^rho r^2k pi r dr + int_0^rho k^2 r^(2k-2) 2 pi r dr
          = pi rho^2k (k + rho^2 / (2 (k + 1)))  =: D_k,

    the gradient term being |(z-c)^k'|^2 = k^2 r^(2k-2) on every circle.

    The measured pairing of the default unit cavity is the gradient
    identity l(f) = -2 pi d/dx f(0), so l(e_0) = 0 and, with
    d/dx (z-c)^k = k (z-c)^(k-1), the pair Re/Im of order k contributes
    (2 pi)^2 k^2 |c|^(2(k-1)) to sum_i l(e_i)^2 / ||e_i||^2.  The sup of
    |l| over the ball ||f||_H1(G) <= eps is eps times the dual norm:

        I_N = eps * 2 pi * sqrt( sum_{k=1..N} k^2 |c|^(2(k-1)) / D_k ).

    The sum is taken in log space, since for |c| > rho its terms grow
    like (|c| / rho)^(2k).
    """
    if radius <= 0.0 or center_dist < 0.0 or order < 1:
        raise ValueError(f"need radius > 0, center_dist >= 0, order >= 1; got {radius}, {center_dist}, {order}")
    logs = []
    for k in range(1, order + 1):
        if center_dist == 0.0 and k > 1:
            continue  # |c|^(2(k-1)) vanishes
        log_c = 2 * (k - 1) * math.log(center_dist) if k > 1 else 0.0
        log_d = math.log(math.pi) + 2 * k * math.log(radius) + math.log(k + radius * radius / (2 * (k + 1)))
        logs.append(2 * math.log(k) + log_c - log_d)
    top = max(logs)
    return eps * 2 * math.pi * math.exp(0.5 * top) * math.sqrt(sum(math.exp(v - top) for v in logs))


def runge_target(t: float) -> float:
    """Limit 2 pi / t of the Runge pairing for the probe log|x - t e1|.

    The fit drives the lift z_g towards E_t(x) = log|x - t e1| near the
    origin, so l(g) = -2 pi d/dx z_g(0) tends to
    -2 pi d/dx E_t(0) = -2 pi (0 - t) / t^2 = 2 pi / t.
    """
    return 2 * math.pi / t


def enclosure_target(tau: float, phi: float) -> complex:
    """Exact enclosure value -2 pi tau e^(-i phi).

    The gap trace of the unit cavity on r = R is dw/dr = -(2 / R^2) cos t,
    and the probe exp(tau x.(w + i w_perp)), w = (cos phi, sin phi), equals
    exp(tau e^(-i phi) z) = sum_n (tau e^(-i phi))^n R^n e^(i n t) / n! on
    |z| = R.  Against cos t only n = 1 survives the integral over t, which
    gives (-2 / R^2) * R * tau e^(-i phi) R * pi = -2 pi tau e^(-i phi).
    """
    return -2 * math.pi * tau * cmath.exp(-1j * phi)


def sign_center(y3: float) -> float:
    """Kernel value -(2 y3^2 - 0) / (0 + y3^2)^(5/2) = -2 / y3^3 at the patch centre."""
    return -2.0 / y3**3


def geometry_verdict(center: tuple[float, float], radius: float) -> str:
    """Verdict the mathematics gives: Bounded iff the origin is inside G.

    Off the origin the exact sup grows like (|c| / rho)^N (Walsh 1935),
    while for |c| < rho the series above converges as N grows.
    """
    return "Bounded" if math.hypot(*center) < radius else "BlowUp"


def rel_err(value, exact) -> float:
    return abs(value - exact) / abs(exact)
