"""Constrained-sup indicator on a test region and its probing sweeps.

For a test region G inside the ambient disk |x| < R the indicator asks
how large the measured pairing l(g) can get over boundary data g whose
harmonic lifts z_g stay small on G:

    sup { |l(g)| : ||z_g||_{H1(G)} <= eps },

with g restricted to trigonometric polynomials of order <= N.  In that
finite-dimensional slice the constraint is the ellipsoid c^T Q c <=
eps^2 for the Gram matrix Q of the lifted basis and the objective is
b^T c, so the sup equals eps * sqrt(b^T Q^+ b).  Whether the sup stays
bounded or grows without bound as N increases is exactly what separates
regions that do or do not feel the cavity.

On a disk G = disk(c, rho) the sup has a closed form.  The harmonic
polynomials of degree <= N are also spanned by 1 and Re/Im (z - c)^k,
k = 1..N, which are orthogonal in H1(G), so the sup is the positive
series eps * sqrt(sum_i l(e_i)^2 / ||e_i||^2) with no cancellation.
Sweeps evaluate that series in log space; the quadrature Gram matrix
and its pseudo-inverse sup stay as a low-order reference.

The module provides the Gram assembly, the pseudo-inverse sup with its
discarded-mass diagnostics, the exact series sweep over N with a
verdict, the boundary least-squares fit of the log potential that drives
the blow-up route, and a slope-based diagnostic for curves of indicator
values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DiskRegion,
    OriginLocation,
    QuadratureRule,
    build_disk_quadrature,
    validate_admissible,
)
from .harmonic import (
    BoundaryData,
    annulus_neumann_solution,
    gap_neumann_trace,
)

# Relative eigenvalue cutoff below which Gram directions are treated as
# numerically null, and the share of |b| mass in those directions above
# which the sup is flagged as unbounded within the current order.
EIGEN_FLOOR = 1e-12
UNBOUNDED_SHARE = 1e-8
# Largest cutoff order a sweep accepts.  The series costs O(N), so the
# cap bounds the run time of every sweep.
MAX_SWEEP_ORDER = 1024
# Largest cutoff order a Runge fit accepts.  The fit samples m = 4N + 16
# points on each of two circles, so its arrays grow like N^2 and its time
# like N^3 (N Arnoldi steps against up to N + 1 rows, and a 2m x (2N + 1)
# least-squares solve); the cap bounds both.
MAX_RUNGE_ORDER = 96
# blow_up_diagnostic's bars on the fitted slope of log(value) and its R^2.
BLOW_UP_SLOPE = 0.8
BLOW_UP_R2 = 0.9
FLAT_SLOPE = 0.1


class Verdict(enum.Enum):
    """Outcome of a sweep: indicator bounded, blowing up, or unclear."""

    BOUNDED = "Bounded"
    BLOW_UP = "BlowUp"
    INCONCLUSIVE = "Inconclusive"


class OriginOnBoundaryError(ValueError):
    """Raised when the test region boundary passes through the origin.

    The indicator dichotomy needs the origin to be strictly inside or
    strictly outside the region; on the boundary neither closed form
    applies, so sweeps refuse to run.
    """


class GramConditioningError(RuntimeError):
    """Raised when a Gram matrix fails the positive-semidefinite check."""


def h1_inner(f, g, rule: QuadratureRule) -> float:
    """H1 inner product integral (f g + grad f . grad g) over an area rule.

    Both arguments must expose eval/grad.  Integrands with a declared
    singular point inside the rule's region are rejected, since the
    quadrature result would be meaningless there.
    """
    if rule.kind != "area":
        raise ValueError("H1 inner product requires an area quadrature rule")
    for fn in (f, g):
        singular = getattr(fn, "singular_points", None)
        if singular is None or rule.region is None:
            continue
        for point in singular():
            if rule.region.contains(point):
                raise ValueError(
                    f"integrand is singular at {point} inside the integration region {rule.region}"
                )
    fv = np.asarray(f.eval(rule.nodes))
    gv = np.asarray(g.eval(rule.nodes))
    fg = np.asarray(f.grad(rule.nodes))
    gg = np.asarray(g.grad(rule.nodes))
    dens = fv * gv + np.einsum("ij,ij->i", fg, gg)
    return rule.integrate(dens)


def _mode_numbers(order: int) -> np.ndarray:
    # Index layout: 0 -> constant, 2n-1 -> cos n, 2n -> sin n.
    n = np.arange(2 * order + 1)
    return (n + 1) // 2


def _harmonic_basis(order: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and gradients of the harmonic polynomials 1, Re z^n, Im z^n.

    Returns (V, Gx, Gy), each of shape (2*order+1, n_points), in the
    index layout of _mode_numbers.  Powers are built iteratively so the
    origin never hits a 0**0 ambiguity.
    """
    z = points[:, 0] + 1j * points[:, 1]
    dim = 2 * order + 1
    V = np.empty((dim, z.size))
    Gx = np.empty((dim, z.size))
    Gy = np.empty((dim, z.size))
    V[0] = 1.0
    Gx[0] = 0.0
    Gy[0] = 0.0
    power = np.ones_like(z)
    for n in range(1, order + 1):
        dpower = n * power
        power = power * z
        V[2 * n - 1] = power.real
        V[2 * n] = power.imag
        Gx[2 * n - 1] = dpower.real
        Gy[2 * n - 1] = -dpower.imag
        Gx[2 * n] = dpower.imag
        Gy[2 * n] = dpower.real
    return V, Gx, Gy


def _basis_gram(V: np.ndarray, Gx: np.ndarray, Gy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    A = (V * weights) @ V.T + (Gx * weights) @ Gx.T + (Gy * weights) @ Gy.T
    return 0.5 * (A + A.T)


@dataclass(frozen=True)
class GramSystem:
    """Quadratic constraint and linear objective for one cutoff order.

    Q is the H1(G) Gram matrix of the lifted boundary modes
    z_phi(r, theta) = (r/R)^n {cos, sin}(n theta) in the layout of
    _mode_numbers, and b collects the pairings l(phi).  Q is kept
    symmetric to machine precision by construction.
    """

    order: int
    boundary_radius: float
    region: DiskRegion
    Q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        dim = 2 * self.order + 1
        Q = np.ascontiguousarray(np.asarray(self.Q, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=float))
        if Q.shape != (dim, dim):
            raise ValueError(f"Q must be ({dim}, {dim}) for order {self.order}, got {Q.shape}")
        if b.shape != (dim,):
            raise ValueError(f"b must have length {dim}, got {b.shape}")
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be exactly symmetric; symmetrize before constructing")
        Q.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return 2 * self.order + 1


def assemble_gram(
    cavity: DiskRegion,
    boundary_radius: float,
    order: int,
    quad_orders: tuple[int, int] | None = None,
) -> GramSystem:
    """Build the Gram system for a test region at one cutoff order.

    The Gram matrix is assembled in the monomial basis 1, Re z^n, Im z^n
    (exact for the default quadrature orders, which integrate all
    products of degree <= 2*order) and rescaled by R^-n per column to
    the unit-trace boundary modes.  The pairings use the Neumann gap
    trace of the explicit unit-cavity solution at the given R, which
    requires R > 1.
    """
    if order < 1:
        raise ValueError(f"cutoff order must be >= 1, got {order}")
    validate_admissible(cavity, boundary_radius)
    if quad_orders is None:
        quad_orders = (max(order + 4, 16), max(2 * order + 8, 32))
    rule = build_disk_quadrature(cavity, quad_orders[0], quad_orders[1])
    V, Gx, Gy = _harmonic_basis(order, rule.nodes)
    A = _basis_gram(V, Gx, Gy, rule.weights)
    damp = float(boundary_radius) ** (-_mode_numbers(order).astype(float))
    Q = (A * damp[:, None]) * damp[None, :]
    Q = 0.5 * (Q + Q.T)

    w_trace = gap_neumann_trace(annulus_neumann_solution(boundary_radius), boundary_radius)
    R = float(boundary_radius)
    b = np.zeros(2 * order + 1)
    b[0] = 2.0 * np.pi * R * w_trace.cos_coeff[0]
    shared = min(order, w_trace.max_order)
    for n in range(1, shared + 1):
        b[2 * n - 1] = np.pi * R * w_trace.cos_coeff[n]
        b[2 * n] = np.pi * R * w_trace.sin_coeff[n]
    return GramSystem(
        order=order,
        boundary_radius=R,
        region=cavity,
        Q=Q,
        b=b,
    )


def _truncated_eigh(M: np.ndarray, rhs: np.ndarray, what: str):
    """Truncated pseudo-inverse pieces of a positive semidefinite system M x = rhs.

    Symmetric diagonal equilibration comes first: scaling by
    1/sqrt(diag M) maps any diagonal rescaling of the same system to the
    identical equilibrated matrix, so the results do not depend on how
    the basis columns were normalized.  Eigendirections at or below
    EIGEN_FLOOR relative to the top eigenvalue are dropped.  Returns
    (scale, U, lam, proj) restricted to the kept directions, where proj
    is the equilibrated rhs in the eigenbasis, together with the
    condition number of the kept part and the share of |proj| in the
    dropped directions.  Raises GramConditioningError when M fails the
    positive-semidefinite check; what names M in the message.
    """
    d = np.sqrt(np.abs(np.diag(M)))
    d[d == 0.0] = 1.0
    scale = 1.0 / d
    Ms = (M * scale[:, None]) * scale[None, :]
    Ms = 0.5 * (Ms + Ms.T)
    lam, U = np.linalg.eigh(Ms)
    lam_max = lam[-1]
    if lam_max <= 0.0 or lam[0] < -1e-10 * lam_max:
        raise GramConditioningError(
            f"{what} is not positive semidefinite "
            f"(eigenvalue range [{lam[0]:.3e}, {lam_max:.3e}])"
        )
    keep = lam > EIGEN_FLOOR * lam_max
    proj = U.T @ (scale * rhs)
    cond = float(lam_max / lam[keep].min()) if np.any(keep) else float("inf")
    proj_norm = float(np.linalg.norm(proj))
    discarded = float(np.linalg.norm(proj[~keep]) / proj_norm) if proj_norm > 0.0 else 0.0
    return scale, U[:, keep], lam[keep], proj[keep], cond, discarded


@dataclass(frozen=True)
class SupResult:
    """Constrained sup at one cutoff order with conditioning diagnostics."""

    order: int
    eps: float
    value: float
    gain: float
    cond: float
    discarded_share: float
    unbounded: bool
    n_retained: int
    n_total: int


def sup_indicator(system: GramSystem, eps: float) -> SupResult:
    """Exact sup of |b^T c| over the ellipsoid c^T Q c <= eps^2.

    Computed as eps * sqrt(b^T Q^+ b) through an equilibrated
    eigendecomposition.  Eigendirections below EIGEN_FLOOR (relative to
    the top eigenvalue) are dropped; if those directions carry more than
    a tiny share of b the true sup is infinite within this order and the
    result is flagged unbounded, with the finite part still reported.
    The value scales exactly linearly in eps because the gain is
    computed once and multiplied.
    """
    if eps <= 0.0:
        raise ValueError(f"constraint radius eps must be positive, got {eps}")
    _, _, lam, proj, cond, discarded = _truncated_eigh(system.Q, system.b, f"Gram matrix at order {system.order}")
    gain = float(np.sqrt(np.sum(proj**2 / lam)))
    return SupResult(
        order=system.order,
        eps=float(eps),
        value=float(eps) * gain,
        gain=gain,
        cond=cond,
        discarded_share=discarded,
        unbounded=discarded > UNBOUNDED_SHARE,
        n_retained=lam.size,
        n_total=system.dim,
    )


@dataclass(frozen=True)
class IndicatorCurve:
    """Indicator values along a sweep parameter, with verdict attached.

    parameter is "N" for cutoff-order sweeps and "t" for probe-distance
    sweeps; grid holds the parameter values in sweep order.
    """

    parameter: str
    grid: np.ndarray
    values: np.ndarray
    eps: float
    verdict: Verdict | None = None

    def __post_init__(self):
        if self.parameter not in ("N", "t"):
            raise ValueError(f"sweep parameter must be 'N' or 't', got {self.parameter!r}")
        grid = np.ascontiguousarray(np.asarray(self.grid, dtype=float))
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be one-dimensional arrays of equal length")
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def growth_ratios(self) -> np.ndarray:
        """Consecutive ratios values[k+1] / values[k], nan where undefined."""
        prev = self.values[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(prev != 0.0, self.values[1:] / prev, np.nan)


def validate_orders(orders) -> list[int]:
    """Cutoff orders as a list of ints, checked to be a sweep's order grid.

    The grid must be a nonempty, strictly increasing sequence of
    integers in [1, MAX_SWEEP_ORDER]; anything else raises ValueError.
    """
    try:
        raw = list(orders)
        checked = [int(n) for n in raw]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"orders must be a list of integers, got {orders!r}") from exc
    if (
        not checked
        or any(n != r for n, r in zip(checked, raw))
        or checked[0] < 1
        or checked[-1] > MAX_SWEEP_ORDER
        or any(b <= a for a, b in zip(checked, checked[1:]))
    ):
        raise ValueError(
            f"orders must be a nonempty increasing sequence of integers in [1, {MAX_SWEEP_ORDER}], got {raw!r}"
        )
    return checked


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    if not np.isfinite(top):
        return top
    return top + float(np.log(np.sum(np.exp(x - top))))


def _series_log_terms(cavity: DiskRegion, boundary_radius: float, order: int) -> np.ndarray:
    """log(l(e)^2 / ||e||^2_H1(G)) per orthogonal order k = 0..order on the disk G.

    Entry 0 is the constant e_0 = 1 with ||e_0||^2 = D_0 = pi rho^2; entry
    k >= 1 sums the pair Re/Im (z - c)^k, both of squared norm
    D_k = pi rho^2k (k + rho^2 / (2 (k + 1))), into |mu_k|^2 / D_k with
    mu_k = l(Re (z - c)^k) + i l(Im (z - c)^k).  With omega_n = l(Re z^n)
    + i l(Im z^n), the binomial expansion gives mu_k = sum_n C(k, n)
    (-c)^(k - n) omega_n.  omega_n = pi R^(n+1) w_n pairs z^n with the gap
    trace w_n = -2 n s_n R^(-n-1) of the explicit cavity, whose singular
    coefficients are s_n and log coefficient gamma; the powers of R
    cancel, leaving omega_n = -2 pi n s_n and omega_0 = 2 pi gamma, which
    stay finite for every R.  Everything is kept in logs, since off the
    origin mu_k grows like |c|^k.  A term whose pairing vanishes is -inf.
    """
    u = annulus_neumann_solution(boundary_radius)
    n_all = np.arange(u.max_order + 1)
    omega = -2.0 * np.pi * n_all * (u.singular_cos + 1j * u.singular_sin)
    omega[0] = 2.0 * np.pi * u.log_coeff
    modes = [n for n in n_all if omega[n] != 0.0]

    rho = cavity.radius
    k = np.arange(order + 1)
    minus_c = -complex(*cavity.center)
    log_c = math.log(abs(minus_c)) if minus_c != 0.0 else -np.inf
    log_d = np.log(np.pi) + 2.0 * k * math.log(rho) + np.log(k + rho * rho / (2.0 * (k + 1.0)))
    log_d[0] = math.log(np.pi * rho * rho)
    # One row per nonzero mode n: log |C(k, n) (-c)^(k - n) omega_n| and its phase.
    log_mag = np.full((len(modes), k.size), -np.inf)
    phase = np.zeros((len(modes), k.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, n in enumerate(modes):
            ks = k[n:]
            log_binom = np.sum(np.log(ks[:, None] - np.arange(n)), axis=1) - math.lgamma(n + 1)
            power = np.where(ks == n, 0.0, (ks - n) * log_c)
            log_mag[row, n:] = log_binom + power + math.log(abs(omega[n]))
            phase[row, n:] = (ks - n) * np.angle(minus_c) + np.angle(omega[n])
        top = np.max(log_mag, axis=0)
        live = np.isfinite(top)
        mu = np.sum(np.exp(log_mag[:, live] - top[live] + 1j * phase[:, live]), axis=0)
        log_mu = np.full(k.size, -np.inf)
        log_mu[live] = top[live] + np.log(np.abs(mu))
    return 2.0 * log_mu - log_d


def indicator_sweep(cavity: DiskRegion, boundary_radius: float, eps: float, orders) -> IndicatorCurve:
    """Exact constrained sup on a disk region over increasing cutoff orders.

    I_N = eps * sqrt(l(1)^2 / D_0 + sum_{k=1..N} |mu_k|^2 / D_k) in the
    orthogonal basis of _series_log_terms, accumulated in log space over
    the order grid, so the values stay exact until I_N itself leaves the
    float64 range, where it rounds to inf.  Refuses regions whose
    boundary passes through the origin; there the bounded/blow-up
    dichotomy is not defined.

    The verdict compares the mean series term over the last order window
    (orders[-2], orders[-1]] with the mean over the window before it:
    BlowUp if the last mean is larger, Bounded if it is smaller or both
    windows are zero, Inconclusive if they are equal or fewer than three
    orders are given.
    """
    orders = validate_orders(orders)
    where = cavity.classify_origin()
    if where is OriginLocation.BOUNDARY:
        raise OriginOnBoundaryError(
            f"boundary of disk(center={cavity.center}, radius={cavity.radius}) passes through "
            f"the origin (within relative tolerance 1e-9); the sweep verdict is undefined there"
        )
    validate_admissible(cavity, boundary_radius)
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"constraint radius eps must be positive and finite, got {eps}")

    terms = _series_log_terms(cavity, boundary_radius, orders[-1])
    starts = [0] + [n + 1 for n in orders[:-1]]
    blocks = np.array([_logsumexp(terms[a : n + 1]) for a, n in zip(starts, orders)])
    log_sq = np.logaddexp.accumulate(blocks)
    with np.errstate(over="ignore"):
        gain = np.exp(0.5 * log_sq)
        # eps * gain keeps the value exactly linear in eps; only where the
        # gain alone overflows is eps folded into the exponent instead.
        values = np.where(np.isfinite(gain), eps * gain, np.exp(math.log(eps) + 0.5 * log_sq))

    if len(orders) < 3:
        verdict = Verdict.INCONCLUSIVE
    else:
        before = blocks[-2] - math.log(orders[-2] - orders[-3])
        last = blocks[-1] - math.log(orders[-1] - orders[-2])
        if last > before:
            verdict = Verdict.BLOW_UP
        elif last < before or last == -np.inf:
            verdict = Verdict.BOUNDED
        else:
            verdict = Verdict.INCONCLUSIVE
    return IndicatorCurve(
        parameter="N",
        grid=np.array(orders, dtype=float),
        values=values,
        eps=float(eps),
        verdict=verdict,
    )


@dataclass(frozen=True)
class RungeFit:
    """Least-squares fit P of a shifted log potential by harmonic polynomials.

    g keeps the modes n <= 1 of P's trace on r = R, built from P(0) and
    grad P(0): those are the only modes the cavity's gap trace pairs
    with, so l(g) = -2 pi dx P(0) and the lift of g matches P to first
    order at the origin.  residual is the H1 misfit of P against E_t over
    G and B, norm_on_G and zg_norm_on_G the H1(G) norms of E_t and of P.
    pairing_bound bounds the relative error of l(g) against 2 pi / t,
    and log10_max_g is log10 of max |P| on r = R, the size of the full
    boundary data the fit stands for.  n_retained is the rank of the
    least-squares matrix, out of 2 order + 1 columns.
    """

    t: float
    cavity: DiskRegion
    ball: DiskRegion
    order: int
    g: BoundaryData
    residual: float
    norm_on_G: float
    zg_norm_on_G: float
    pairing_bound: float
    log10_max_g: float
    n_retained: int


def _arnoldi(z: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Vandermonde with Arnoldi on the points z, up to degree order.

    Returns (Q, H): row k of Q holds q_k at the points, where q_0 = 1 and
    q_{k+1} = (z q_k - sum_{i<=k} H[i, k] q_i) / H[k+1, k], every row of
    2-norm sqrt(z.size) and the rows orthogonal (Brubeck, Nakatsukasa and
    Trefethen, SIAM Review 63(2), 2021).  Each step is block classical
    Gram-Schmidt with one reorthogonalisation.
    """
    count = z.size
    Q = np.empty((order + 1, count), dtype=complex)
    H = np.zeros((order + 1, order), dtype=complex)
    Q[0] = 1.0
    for k in range(order):
        v = z * Q[k]
        basis = Q[: k + 1]
        for _ in range(2):
            h = (basis @ v.conj()).conj() / count
            v -= h @ basis
            H[: k + 1, k] += h
        H[k + 1, k] = np.linalg.norm(v) / math.sqrt(count)
        Q[k + 1] = v / H[k + 1, k]
    return Q, H


def _arnoldi_real_part(H: np.ndarray, coeff: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, int]:
    """Re sum_k coeff[k] q_k at new points z, through H's recurrence, as (values, exponent).

    The sum is values * 2**exponent.  Each q_k is carried as a row S_k
    times 2**e_k, with S_k rescaled to a largest entry in [1/2, 1), so
    the recurrence runs on circles far outside the fit points, where
    q_k grows geometrically, without overflow.  Powers of two keep the
    rescaling exact.
    """
    order = H.shape[1]
    S = np.empty((order + 1, z.size), dtype=complex)
    e = np.zeros(order + 1, dtype=int)
    S[0] = 1.0
    for k in range(order):
        weights = H[: k + 1, k] * np.ldexp(1.0, e[: k + 1] - e[k])
        v = (z * S[k] - weights @ S[: k + 1]) / H[k + 1, k]
        _, shift = np.frexp(np.max(np.abs(v)))
        S[k + 1] = v * np.ldexp(1.0, -shift)
        e[k + 1] = e[k] + shift
    top = int(e.max())
    return ((coeff * np.ldexp(1.0, e - top)) @ S).real, top


def _at_origin(H: np.ndarray, coeff: np.ndarray) -> tuple[complex, complex]:
    """p(0) and p'(0) for p = sum_k coeff[k] q_k, through H's recurrence."""
    order = H.shape[1]
    q = np.zeros(order + 1, dtype=complex)
    dq = np.zeros(order + 1, dtype=complex)
    q[0] = 1.0
    for k in range(order):
        q[k + 1] = -(H[: k + 1, k] @ q[: k + 1]) / H[k + 1, k]
        dq[k + 1] = (q[k] - H[: k + 1, k] @ dq[: k + 1]) / H[k + 1, k]
    return coeff @ q, coeff @ dq


def _h1_norm_sq(samples: np.ndarray, rho: float) -> np.ndarray:
    """Squared H1 norm on disk(c, rho) of the harmonic functions with these traces.

    Each row holds m equispaced samples on the circle about c.  With the
    trace's Fourier coefficients a_n, b_n from one real FFT,
    ||h||^2 = pi rho^2 a_0^2 + pi sum_{n>=1} (a_n^2 + b_n^2)(n + rho^2 / (2 (n + 1))),
    summed over the modes n < m/2 the samples resolve.
    """
    m = samples.shape[-1]
    # |F_n|^2 / m^2 is a_0^2 at n = 0 and (a_n^2 + b_n^2) / 4 above.
    power = np.abs(np.fft.rfft(samples, axis=-1)[..., : (m + 1) // 2]) ** 2 / (m * m)
    n = np.arange(power.shape[-1])
    weight = 4.0 * np.pi * (n + rho * rho / (2.0 * (n + 1.0)))
    weight[0] = np.pi * rho * rho
    return power @ weight


def runge_fit(
    t: float,
    cavity: DiskRegion,
    boundary_radius: float,
    order: int,
) -> RungeFit:
    """Fit E_t(x) = log|x - t e1| on G union B_{t/2}(0) at cutoff order N.

    P = Re p for a complex polynomial p of degree <= N, fitted by real
    least squares to E_t on m = 4N + 16 equispaced points on each of the
    circles bounding G and the ball B = B_{t/2}(0), in the Arnoldi basis
    of those 2m points.  t e1 lies outside both closed disks, so P - E_t
    is harmonic on each and its boundary values control it: the H1 norms
    come from the boundary Fourier coefficients, and since dx (P - E_t)(0)
    is the Poisson average of (P - E_t) cos(theta) over the circle of B,
    the relative pairing error is at most (8 / pi) max |P - E_t| on that
    circle, taken on 4m points.  P's values there come from its m fitted
    samples on that circle by one zero-padded FFT, which is exact: P is a
    trigonometric polynomial of degree <= N < m / 2 there.  Preconditions
    keep the singular point t e1 away from both disks: it must lie
    strictly outside the cavity closure, and the cavity must stay outside
    the closed ball of radius t about the origin.  Requires t < R so the
    probe point stays inside the ambient disk.
    """
    validate_admissible(cavity, boundary_radius)
    if not (0.0 < t < boundary_radius):
        raise ValueError(f"probe distance must satisfy 0 < t < {boundary_radius}, got {t}")
    if not 1 <= order <= MAX_RUNGE_ORDER:
        raise ValueError(f"cutoff order must be in [1, {MAX_RUNGE_ORDER}], got {order}")
    point = (float(t), 0.0)
    gap = np.hypot(point[0] - cavity.center[0], point[1] - cavity.center[1])
    if gap <= cavity.radius:
        raise ValueError(
            f"singular point {point} lies inside the cavity closure "
            f"disk(center={cavity.center}, radius={cavity.radius})"
        )
    center_dist = np.hypot(cavity.center[0], cavity.center[1])
    if center_dist <= t + cavity.radius:
        raise ValueError(
            f"cavity disk(center={cavity.center}, radius={cavity.radius}) meets the closed "
            f"ball of radius {t} about the origin; move the cavity or shrink t"
        )
    t = float(t)
    R = float(boundary_radius)
    ball = DiskRegion((0.0, 0.0), 0.5 * t)
    m = 4 * order + 16
    circle = np.exp(2j * np.pi * np.arange(m) / m)
    z = np.concatenate([complex(*cavity.center) + cavity.radius * circle, ball.radius * circle])
    probe = np.log(np.abs(z - t))

    Q, H = _arnoldi(z, order)
    # P = sum_k a_k Re q_k - b_k Im q_k for coefficients a_k + i b_k;
    # Im q_0 = 0, so b_0 has no column.
    A = np.concatenate([Q.real, -Q[1:].imag]).T
    x, _, rank, _ = np.linalg.lstsq(A, probe, rcond=None)
    coeff = x[: order + 1] + 1j * np.concatenate([[0.0], x[order + 1 :]])

    fitted = A @ x
    on_G = _h1_norm_sq(np.stack([fitted[:m] - probe[:m], fitted[:m], probe[:m]]), cavity.radius)
    on_B = _h1_norm_sq(fitted[m:] - probe[m:], ball.radius)
    residual = math.sqrt(on_G[0] + on_B)
    zg_norm_on_G = math.sqrt(on_G[1])
    norm_on_G = math.sqrt(on_G[2])

    fine = ball.radius * np.exp(2j * np.pi * np.arange(4 * m) / (4 * m))
    # irfft divides by its output length 4m, not m, hence the factor 4.
    on_fine = np.fft.irfft(np.fft.rfft(fitted[m:]), 4 * m) * 4.0
    pairing_bound = 8.0 / np.pi * float(np.max(np.abs(on_fine - np.log(np.abs(fine - t)))))
    values, exponent = _arnoldi_real_part(H, coeff, R * circle)
    log10_max_g = exponent * math.log10(2.0) + math.log10(float(np.max(np.abs(values))))

    p0, dp0 = _at_origin(H, coeff)
    g = BoundaryData([p0.real, R * dp0.real], [0.0, -R * dp0.imag])
    return RungeFit(
        t=t,
        cavity=cavity,
        ball=ball,
        order=order,
        g=g,
        residual=residual,
        norm_on_G=norm_on_G,
        zg_norm_on_G=zg_norm_on_G,
        pairing_bound=pairing_bound,
        log10_max_g=log10_max_g,
        n_retained=int(rank),
    )


def scaled_sequence(fit: RungeFit, eps: float) -> BoundaryData:
    """Rescale the fitted boundary data so the fit has H1(G) norm near eps/2.

    The scale eps / (2 ||E_t||_{H1(G)}) uses the probe norm as the size
    reference; since the fit P tracks the probe on G, the scaled P lands
    close to eps/2 while the pairing inherits the same factor.  fit.g
    holds only the modes of P's trace that the pairing sees, so the
    result carries the scaled pairing, not the scaled P.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if fit.norm_on_G <= 0.0:
        raise ValueError("probe norm on the test region vanishes; cannot scale")
    return fit.g.scaled(eps / (2.0 * fit.norm_on_G))


def log_slope(curve: IndicatorCurve) -> tuple[float, float]:
    """Least-squares slope of log(value) along the sweep, with its R^2.

    The abscissa is log(1/t) for probe sweeps and N for order sweeps,
    so slope 1 on a t-sweep means values growing like 1/t.  Needs at
    least three samples and strictly positive values.
    """
    if curve.grid.size < 3:
        raise ValueError(f"slope fit needs at least 3 samples, got {curve.grid.size}")
    if np.any(curve.values <= 0.0):
        raise ValueError("slope fit requires strictly positive curve values")
    if curve.parameter == "t":
        x = -np.log(curve.grid)
    else:
        x = curve.grid
    y = np.log(curve.values)
    design = np.column_stack([x, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(sol[0])
    fitted = design @ sol
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


def blow_up_diagnostic(curve: IndicatorCurve) -> Verdict:
    """Classify a sweep curve by the slope of log(value) against the sweep axis.

    A fitted slope >= BLOW_UP_SLOPE with regression R^2 >= BLOW_UP_R2
    reads as blow-up, |slope| <= FLAT_SLOPE as bounded, anything else as
    inconclusive.  Needs at least three samples and
    strictly positive values (an all-zero curve is bounded outright).
    """
    if curve.grid.size < 3:
        raise ValueError(f"diagnostic needs at least 3 samples, got {curve.grid.size}")
    if np.all(curve.values == 0.0):
        return Verdict.BOUNDED
    slope, r2 = log_slope(curve)
    if slope >= BLOW_UP_SLOPE and r2 >= BLOW_UP_R2:
        return Verdict.BLOW_UP
    if abs(slope) <= FLAT_SLOPE:
        return Verdict.BOUNDED
    return Verdict.INCONCLUSIVE
