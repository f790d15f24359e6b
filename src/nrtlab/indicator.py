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
series eps * sqrt(sum_i l(e_i)^2 / ||e_i||^2) with no cancellation and
closed-form terms.  It converges exactly when the origin lies inside G,
which is a sweep's verdict.  Sweeps evaluate it in log space; the
quadrature Gram matrix and its pseudo-inverse sup stay as a low-order
reference.

The module provides the Gram assembly, the pseudo-inverse sup with its
discarded-mass diagnostics, the exact series sweep over N with its
verdict and limit bound, the boundary least-squares fit of the log
potential that drives the blow-up route, and a slope-based diagnostic
for curves of indicator values.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DiskRegion,
    OriginLocation,
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
# Largest cutoff order a Runge fit accepts.  The fit carries N + 1 Taylor
# coefficients per circle, so its arrays grow like N^2 and its time like
# N^3 (N Arnoldi steps on rows of 2(N + 1) coefficients against up to
# N + 1 rows; the least squares then costs O(N^2) through the orthonormal
# basis); E_t's FFT and the bound take m = 4N + 16 and 4m samples.  The
# cap bounds both.
MAX_RUNGE_ORDER = 96
# blow_up_diagnostic's bars on the fitted slope of log(value) and its R^2.
BLOW_UP_SLOPE = 0.8
BLOW_UP_R2 = 0.9
FLAT_SLOPE = 0.1


class Verdict(enum.Enum):
    """Indicator bounded or blowing up; only a slope diagnostic can be unclear."""

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
    sweeps; grid holds the parameter values in sweep order.  limit_bound
    bounds an order sweep's limit (see indicator_sweep), None on t-curves.
    """

    parameter: str
    grid: np.ndarray
    values: np.ndarray
    eps: float
    verdict: Verdict | None = None
    limit_bound: float | None = None

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


def _series_log_terms(cavity: DiskRegion, order: int) -> np.ndarray:
    """log(l(e)^2 / ||e||^2_H1(G)) per orthogonal order k = 0..order on the disk G.

    Entry k >= 1 sums the pair Re/Im (z - c)^k, both of squared norm
    D_k = pi rho^2k (k + rho^2 / (2 (k + 1))), into |mu_k|^2 / D_k with
    mu_k = l(Re (z - c)^k) + i l(Im (z - c)^k).  The cavity's only
    singular mode is r^-1 cos(theta), so l(f) = -2 pi dx f(0) at every R,
    mu_k = -2 pi k (-c)^(k - 1), and entry 0, the constant, is -inf.  The
    terms are taken from log rho and log |c|, as rho^2 may underflow.
    """
    rho = cavity.radius
    k = np.arange(1, order + 1)
    abs_c = math.hypot(*cavity.center)
    power = (k - 1) * math.log(abs_c) if abs_c > 0.0 else np.where(k == 1, 0.0, -np.inf)
    log_mu = np.log(k) + power + math.log(2.0 * np.pi)
    log_d = np.log(np.pi) + 2.0 * k * math.log(rho) + np.log(k + rho * rho / (2.0 * (k + 1.0)))
    return np.concatenate(([-np.inf], 2.0 * log_mu - log_d))


def indicator_sweep(cavity: DiskRegion, boundary_radius: float, eps: float, orders) -> IndicatorCurve:
    """Exact constrained sup on a disk region over increasing cutoff orders.

    I_N = eps * sqrt(S_N) with S_N = sum_{k=1..N} |mu_k|^2 / D_k in the
    orthogonal basis of _series_log_terms, accumulated in log space over
    the order grid, so the values stay exact until I_N itself leaves the
    float64 range, where it rounds to inf.  Refuses regions whose
    boundary passes through the origin; there the bounded/blow-up
    dichotomy is not defined.

    The verdict is the geometry's: Bounded if the origin lies inside the
    disk, where the series converges, BlowUp if outside, where its terms
    grow like (|c| / rho)^2k.  With q = |c|^2 / rho^2 and N = orders[-1],
    k^2 / (k + rho^2 / (2 (k + 1))) <= k bounds the tail beyond N by
    (4 pi / rho^2) sum_{k>N} k q^(k-1) = (4 pi / rho^2) q^N ((N + 1) - N q)
    / (1 - q)^2, so I_N <= I_inf <= limit_bound = eps * sqrt(S_N + tail)
    inside; outside, limit_bound is +inf.
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

    terms = _series_log_terms(cavity, orders[-1])
    starts = [0] + [n + 1 for n in orders[:-1]]
    blocks = np.array([_logsumexp(terms[a : n + 1]) for a, n in zip(starts, orders)])
    log_sq = np.logaddexp.accumulate(blocks)
    log_limit = np.inf
    if where is OriginLocation.INSIDE:
        n, log_rho, abs_c = orders[-1], math.log(cavity.radius), math.hypot(*cavity.center)
        log_q = 2.0 * (math.log(abs_c) - log_rho) if abs_c > 0.0 else -np.inf
        q = math.exp(log_q)
        tail = math.log(4.0 * np.pi) - 2.0 * log_rho + n * log_q + math.log((n + 1) - n * q) - 2.0 * math.log1p(-q)
        log_limit = np.logaddexp(log_sq[-1], tail)
    with np.errstate(over="ignore"):
        log_all = 0.5 * np.append(log_sq, log_limit)
        gain = np.exp(log_all)
        # eps * gain keeps the value exactly linear in eps; only where the
        # gain alone overflows is eps folded into the exponent instead.
        scaled = np.where(np.isfinite(gain), eps * gain, np.exp(math.log(eps) + log_all))
    verdict = Verdict.BOUNDED if where is OriginLocation.INSIDE else Verdict.BLOW_UP
    return IndicatorCurve("N", np.array(orders, dtype=float), scaled[:-1], float(eps), verdict, float(scaled[-1]))


@dataclass(frozen=True)
class RungeFit:
    """Least-squares fit P of a shifted log potential by harmonic polynomials.

    P = Re p with p = sum_k coeff[k] q_k in the Arnoldi basis of the fit,
    whose recurrence H keeps; both arrays are read-only.  H is the
    Hessenberg matrix of Vandermonde with Arnoldi on the m = 4N + 16
    equispaced points of each fit circle, built from the circles' Taylor
    coefficients (see runge_fit), so H's recurrence evaluates p anywhere.
    dx_p0 is dx P(0) = Re p'(0), so the pairing with the cavity's gap
    trace is l(g) = -2 pi dx_p0 at every boundary radius.  g keeps the
    modes n <= 1 of P's trace on r = boundary_radius, built from P(0) and
    grad P(0): those are the only modes the gap trace pairs with, and the
    lift of g matches P to first order at the origin.  residual is the H1
    misfit of P against E_t over G and B, norm_on_G and zg_norm_on_G the
    H1(G) norms of E_t and of P.  pairing_bound bounds the relative error
    of l(g) against 2 pi / t.  n_retained is the rank of the
    least-squares matrix under lstsq's rule, out of 2 order + 1 columns:
    its 2 order - 2 singular values equal to 1 and those of its other
    three that the rule keeps (see _least_squares).
    """

    t: float
    cavity: DiskRegion
    ball: DiskRegion
    order: int
    boundary_radius: float
    g: BoundaryData
    dx_p0: float
    residual: float
    norm_on_G: float
    zg_norm_on_G: float
    pairing_bound: float
    n_retained: int
    H: np.ndarray = field(compare=False, repr=False)
    coeff: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        for name in ("H", "coeff"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=complex))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def log10_max_g(self) -> float:
        """log10 of max |P| on r = R, the size of the full boundary data the fit stands for.

        Computed when read, by one pass of H's recurrence on m = 4N + 16
        equispaced points of r = R; powers of two carry the scale, so the
        log stays finite where P itself would overflow.
        """
        circle = _bound_circle(self.order)[::4]
        values, exponent = _arnoldi_real_part(self.H, self.coeff, self.boundary_radius * circle)
        return exponent * math.log10(2.0) + math.log10(float(np.max(np.abs(values))))


def _arnoldi_taylor(center: complex, rho: float, radius: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Vandermonde with Arnoldi on two circles, carried in scaled Taylor coefficients.

    Row k of Q holds q_k(center + rho w) = sum_n Q[k, 2n] w^n and
    q_k(radius w) = sum_n Q[k, 2n + 1] w^n, n = 0..order, so the first
    2(k + 1) entries hold all of q_k.  On m > 2 order equispaced points of
    each circle the trapezoid rule is exact for every product of two such
    polynomials, so the discrete inner product over those 2m points is m
    times the coefficient product, and (Q, H) are the Arnoldi basis and
    Hessenberg matrix of the 2m points (Brubeck, Nakatsukasa and
    Trefethen, SIAM Review 63(2), 2021) with every row of squared norm 2.
    Multiplying by z is a fixed bidiagonal map: a_n -> center a_n +
    rho a_{n-1} about the center, b_n -> radius b_{n-1} about 0.  Each
    step is block classical Gram-Schmidt with one reorthogonalisation.
    """
    size = 2 * (order + 1)
    diagonal = np.zeros(size, dtype=complex)
    diagonal[0::2] = center
    step = np.empty(size - 2)
    step[0::2] = rho
    step[1::2] = radius
    Q = np.zeros((order + 1, size), dtype=complex)
    # Row k of dual is conj(q_k) / 2, so dual @ v is the projection of v on the basis.
    dual = np.zeros_like(Q)
    H = np.zeros((order + 1, order), dtype=complex)
    Q[0, :2] = 1.0
    dual[0, :2] = 0.5
    for k in range(order):
        live = 2 * (k + 2)  # z q_k has degree k + 1
        v = diagonal[:live] * Q[k, :live]
        v[2:] += step[: live - 2] * Q[k, : live - 2]
        basis, duals = Q[: k + 1, :live], dual[: k + 1, :live]
        h = duals @ v
        v -= h @ basis
        again = duals @ v
        v -= again @ basis
        H[: k + 1, k] = h + again
        H[k + 1, k] = math.sqrt(np.vdot(v, v).real / 2.0)
        Q[k + 1, :live] = v / H[k + 1, k]
        dual[k + 1, :live] = Q[k + 1, :live].conj() / 2.0
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


def _least_squares(Q: np.ndarray, target: np.ndarray, rcond: float) -> tuple[np.ndarray, int]:
    """runge_fit's real least squares through the orthonormality of Q, as (coeff, rank).

    Q is _arnoldi_taylor's basis with each column weighted by its mode's
    share of the sum of squares (1 for mode 0, sqrt(1/2) above), and
    target holds E_t's coefficients, weighted alike.  The unknowns x are
    the real and imaginary parts of coeff, less Im coeff[0] since
    Im q_0 = 0; the residuals are the real and imaginary parts of
    coeff @ Q - target, less the imaginary parts of the two mode-0
    entries.  Both are kept as complex arrays, so the (4N + 2) x (2N + 1)
    real matrix A is never formed: A x is coeff @ Q with those imaginary
    parts dropped and A^T r is conj(Q) @ r, O(N^2) each.

    Q Q^H = 2I makes A nearly an isometry: A^T A = I + (u_G u_G^T -
    v_G v_G^T + u_B u_B^T - v_B v_B^T) / 2 for the real forms u, v of
    Re A_0 and Im A_0 on each circle.  Since q_0 = 1, the two mode-0
    columns of Q sum to 2 e_0, so u and v span Z = {e_0, z, i z} with
    z = conj(Q[:, 0] - Q[:, 1]) / |.|, and A maps these three to orthogonal
    images of norms sqrt(2), sqrt(1 + s) and sqrt(1 - s), s =
    |Q[:, 0] - Q[:, 1]|^2 / 4.  Every other singular value of A is 1.  So
    x = (I - Z Z^T) A^T r + sum_j z_j <A z_j, r> / |A z_j|^2 over the z_j
    that lstsq's rank rule sigma > rcond sigma_max keeps (only i z can
    fall below it), and rank counts the 2N - 2 unit singular values and
    the kept ones, as lstsq's rank of A would.

    Q is orthonormal only to about 1e-15, which a small |A i z| amplifies,
    so iterative refinement with the same operator follows, stopping once
    an update is at rounding level, after at most three steps: with two,
    the misfit can still differ from lstsq's by 2e-10, with three by 2e-12.
    """
    width = Q.shape[0]
    Z = np.zeros((3, width), dtype=complex)
    Z[0, 0] = 1.0
    Z[1] = (Q[:, 0] - Q[:, 1]).conj()
    Z[1] /= math.sqrt(np.vdot(Z[1], Z[1]).real)
    Z[2] = 1j * Z[1]
    image = Z @ Q
    image[:, :2].imag = 0.0
    norm_sq = np.sum(image.real**2 + image.imag**2, axis=1)
    keep = norm_sq > rcond * rcond * norm_sq.max()
    gain = np.divide(1.0, norm_sq, out=np.zeros(3), where=keep)
    image_h, Z_h, adjoint = image.conj(), Z.conj(), Q.conj()

    def solve(r: np.ndarray) -> np.ndarray:
        g = adjoint @ r
        return g + ((image_h @ r).real * gain - (Z_h @ g).real) @ Z

    coeff = solve(target)
    for _ in range(3):
        fitted = coeff @ Q
        fitted[:2].imag = 0.0
        update = solve(target - fitted)
        coeff += update
        if np.abs(update).max() <= np.finfo(float).eps * np.abs(coeff).max():
            break
    return coeff, 2 * width - 4 + int(np.count_nonzero(keep))


def _h1_weights(rho: float, size: int) -> np.ndarray:
    """Weights w_n with ||h||^2_{H1(disk(c, rho))} = sum_n w_n |coeffs[n]|^2 (see runge_fit).

    For the harmonic h with trace Re sum_n coeffs[n] e^{in theta} and
    coeffs[0] real, a_0 = coeffs[0] and a_n^2 + b_n^2 = |coeffs[n]|^2 for
    the trace's cosine and sine coefficients, and
    ||h||^2 = pi rho^2 a_0^2 + pi sum_{n>=1} (a_n^2 + b_n^2)(n + rho^2 / (2 (n + 1))).
    """
    n = np.arange(size)
    weight = np.pi * (n + rho * rho / (2.0 * (n + 1.0)))
    weight[0] = np.pi * rho * rho
    return weight


@functools.lru_cache(maxsize=None)
def _bound_circle(order: int) -> np.ndarray:
    # The 4m = 16N + 64 points of the unit circle on which a fit at order N
    # takes its bound.  Every fourth one gives the m-point circle of E_t's
    # samples and log10_max_g, as the same floats as exp(2 pi i k / m).
    # One read-only array per order: 25.6 KB at the largest, 1.3 MB for all.
    circle = np.exp(2j * np.pi * np.arange(16 * order + 64) / (16 * order + 64))
    circle.flags.writeable = False
    return circle


def runge_fit(
    t: float,
    cavity: DiskRegion,
    boundary_radius: float,
    order: int,
) -> RungeFit:
    """Fit E_t(x) = log|x - t e1| on G union B_{t/2}(0) at cutoff order N.

    P = Re p for a complex polynomial p of degree <= N, the real least
    squares fit to E_t on m = 4N + 16 equispaced points on each of the
    circles bounding G and the ball B = B_{t/2}(0), in the Arnoldi basis
    of those 2m points.  The fit runs on each circle's N + 1 scaled Taylor
    coefficients instead of its m samples: on a circle the m-point
    trapezoid rule is exact for every product of degree <= 2N < m
    (Trefethen and Weideman, SIAM Review 56(3), 2014), so by discrete
    Parseval the sum of squares over the 2m points is m times a sum over
    the coefficients.  The basis is _arnoldi_taylor's, and E_t's
    coefficients come from one real FFT of its m samples per circle; the
    sum of squares m [(Re A_0 - e_0)^2 + sum_{n=1..N} |A_n - e_n|^2 / 2]
    per circle, for P's coefficients A_n (B_n on the ball) against E_t's
    e_n, is a (4N + 2) x (2N + 1) least-squares problem instead of
    2m x (2N + 1).
    Its singular values are those of the point-space matrix over sqrt(m),
    so rcond = eps 2m keeps that matrix's rank rule.  The basis is
    orthonormal, so all but three of them are 1 and _least_squares solves
    it in O(N^2) through Q, without forming the matrix.  m itself only
    sets E_t's FFT and the 4m bound samples.

    t e1 lies outside both closed disks, so P - E_t is harmonic on each
    and its boundary coefficients control it: they give the H1 norms, and
    since dx (P - E_t)(0) is the Poisson average of (P - E_t) cos(theta)
    over the circle of B, the relative pairing error is at most
    (8 / pi) max |P - E_t| on that circle, taken on 4m points, where P's
    values come from one inverse FFT of its coefficients about 0.  Those
    coefficients also give P(0) = Re B_0 and p'(0) = B_1 / (t / 2).
    Preconditions keep the singular point t e1 away from both disks: it
    must lie strictly outside the cavity closure, and the cavity must stay
    outside the closed ball of radius t about the origin.  Requires t < R
    so the probe point stays inside the ambient disk.
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
    width = order + 1
    m = 4 * order + 16
    fine_circle = _bound_circle(order)
    circle = fine_circle[::4]
    z = np.stack([complex(*cavity.center) + cavity.radius * circle, ball.radius * circle])
    # E_t = Re sum_n e_n w^n on each circle, for the modes n < m / 2 the samples resolve.
    probe = np.fft.rfft(np.log(np.abs(z - t)), axis=-1)[:, : m // 2] / m
    probe[:, 1:] *= 2.0

    Q, H = _arnoldi_taylor(complex(*cavity.center), cavity.radius, ball.radius, order)
    # Each mode's entry is weighted by its share of the sum of squares:
    # Re A_0 of each circle gives one row, Re and Im A_n, n >= 1, two of weight 1/2.
    scale = np.full(2 * width, math.sqrt(0.5))
    scale[:2] = 1.0
    coeff, rank = _least_squares(Q * scale, probe[:, :width].T.ravel() * scale, np.finfo(float).eps * 2 * m)

    # P's coefficients A_n about the center and B_n about 0; P = Re p, so
    # only the real parts of A_0 and B_0 are P's.
    fitted = (coeff @ Q).reshape(width, 2).T
    fitted[:, 0] = fitted[:, 0].real
    misfit = probe.copy()
    misfit[:, :width] -= fitted
    on_G = _h1_weights(cavity.radius, m // 2)
    on_B = _h1_weights(ball.radius, m // 2)
    residual = math.sqrt(np.abs(misfit[0]) ** 2 @ on_G + np.abs(misfit[1]) ** 2 @ on_B)
    zg_norm_on_G = math.sqrt(np.abs(fitted[0]) ** 2 @ on_G[:width])
    norm_on_G = math.sqrt(np.abs(probe[0]) ** 2 @ on_G)

    fine = ball.radius * fine_circle
    # Unscaled, irfft sums X_0 + 2 Re sum_n X_n e^{in theta}, so X_n = B_n / 2 for n >= 1.
    on_fine = np.fft.irfft(np.concatenate([fitted[1, :1], 0.5 * fitted[1, 1:]]), 4 * m, norm="forward")
    pairing_bound = 8.0 / np.pi * float(np.max(np.abs(on_fine - np.log(np.abs(fine - t)))))

    p0 = fitted[1, 0].real
    dp0 = fitted[1, 1] / ball.radius
    g = BoundaryData([p0, R * dp0.real], [0.0, -R * dp0.imag])
    return RungeFit(
        t=t,
        cavity=cavity,
        ball=ball,
        order=order,
        boundary_radius=R,
        g=g,
        dx_p0=float(dp0.real),
        residual=residual,
        norm_on_G=norm_on_G,
        zg_norm_on_G=zg_norm_on_G,
        pairing_bound=pairing_bound,
        n_retained=int(rank),
        H=H,
        coeff=coeff,
    )


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
    inconclusive.  Needs at least three samples and strictly positive
    values (an all-zero curve is bounded outright).
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
