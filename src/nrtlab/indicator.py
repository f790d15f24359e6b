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
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DiskRegion,
    OriginLocation,
    build_disk_quadrature,
    point_power,
    power_sign,
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
# N^3 (N real Arnoldi steps about |c| on rows of 2(N + 1) coefficients
# against up to N + 1 rows, then one complex phase twist; the least
# squares costs O(N^2) through the orthonormal basis); E_t's modes past
# N take at most TAIL_TERMS terms per circle.  The caps bound both.
MAX_RUNGE_ORDER = 96
TAIL_TERMS = 4096
# Unit roundoff times 2, the spacing of float64 at 1.
FLOAT_EPS = float(np.finfo(float).eps)
# blow_up_diagnostic's bars on the fitted slope of log(value) and its R^2.
BLOW_UP_SLOPE = 0.8
BLOW_UP_R2 = 0.9
FLAT_SLOPE = 0.1


class Verdict(enum.Enum):
    """Indicator bounded or blowing up; only a slope diagnostic can be unclear."""

    BOUNDED = "Bounded"
    BLOW_UP = "BlowUp"
    INCONCLUSIVE = "Inconclusive"


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


def _series_log_terms(cavity: DiskRegion, order: int) -> np.ndarray:
    """log(l(e)^2 / ||e||^2_H1(G)) per orthogonal order k = 0..order on the disk G.

    Entry k >= 1 sums the pair Re/Im (z - c)^k, both of squared norm
    D_k = pi rho^2k (k + rho^2 / (2 (k + 1))), into |mu_k|^2 / D_k with
    mu_k = l(Re (z - c)^k) + i l(Im (z - c)^k).  The cavity's only
    singular mode is r^-1 cos(theta), so l(f) = -2 pi dx f(0) at every R,
    mu_k = -2 pi k (-c)^(k - 1), and entry 0, the constant, is -inf.  The
    terms are taken from log rho and log |c|, as rho^2 may underflow, and
    D_k = pi s^2 rho^2k (k / s^2 + min(1, rho)^2 / (2 (k + 1))) with
    s = max(1, rho), as rho^2 may overflow; at rho <= 1 that is bit for bit.
    """
    rho = cavity.radius
    k = np.arange(1, order + 1)
    abs_c = math.hypot(*cavity.center)
    power = (k - 1) * math.log(abs_c) if abs_c > 0.0 else np.where(k == 1, 0.0, -np.inf)
    log_mu = np.log(k) + power + math.log(2.0 * np.pi)
    s, r = max(1.0, rho), min(1.0, rho)
    log_d = np.log(np.pi) + 2.0 * math.log(s) + 2.0 * k * math.log(rho) + np.log(k * s**-2 + r * r / (2.0 * (k + 1.0)))
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
        raise ValueError(
            f"boundary of disk(center={cavity.center}, radius={cavity.radius}) passes through "
            f"the origin; the sweep verdict is undefined there"
        )
    validate_admissible(cavity, boundary_radius)
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"constraint radius eps must be positive and finite, got {eps}")

    terms = _series_log_terms(cavity, orders[-1])
    # Block j holds the terms orders[j - 1] < k <= orders[j], summed in log
    # space less its own maximum: one shift for all would underflow the early
    # orders, whose terms span e^+-3000 at order 1024.  An all -inf block
    # (each after the first on a centred disk) is shifted by 0 and logs to -inf.
    ends = np.array(orders) + 1
    starts = np.concatenate(([0], ends[:-1]))
    top = np.maximum.reduceat(terms, starts)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        blocks = shift + np.log(np.add.reduceat(np.exp(terms - np.repeat(shift, ends - starts)), starts))
    log_sq = np.logaddexp.accumulate(blocks)
    log_limit = np.inf
    if where is OriginLocation.INSIDE:
        n, log_rho, abs_c = orders[-1], math.log(cavity.radius), math.hypot(*cavity.center)
        log_q = 2.0 * (math.log(abs_c) - log_rho) if abs_c > 0.0 else -np.inf
        # 1 - q = (rho^2 - |c|^2) / rho^2 from the exact power, rounded once: a
        # rounded q reads 1 where the origin lies a unit inside the circle.
        power, denom = point_power((0.0, 0.0), cavity.center, cavity.radius)
        a, b = cavity.radius.as_integer_ratio()
        gap = -power * b * b / (denom * a * a)
        tail = math.log(4.0 * np.pi) - 2.0 * log_rho + n * log_q + math.log1p(n * gap) - 2.0 * math.log(gap)
        log_limit = np.logaddexp(log_sq[-1], tail)
    with np.errstate(over="ignore"):
        log_all = 0.5 * np.append(log_sq, log_limit)
        gain = np.exp(log_all)
        # eps * gain keeps the value exactly linear in eps; only where the gain
        # alone overflows or is subnormal is eps folded into the exponent instead.
        scaled = np.where((gain >= np.finfo(float).tiny) & np.isfinite(gain), eps * gain, np.exp(math.log(eps) + log_all))
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
    p0 is P(0) and (dx_p0, dy_p0) is grad P(0) = (Re p'(0), -Im p'(0)), so
    the pairing with the cavity's gap trace is l(g) = -2 pi dx_p0 at every
    boundary radius.  g, built from them when read, keeps the modes n <= 1
    of P's trace on r = boundary_radius: those are the only modes the gap
    trace pairs with, and the lift of g matches P to first order at the
    origin.  residual is the H1 misfit of P against E_t over G and B,
    norm_on_G and zg_norm_on_G the H1(G) norms of E_t and of P.
    pairing_bound bounds the relative error of l(g) against 2 pi / t (see
    runge_fit).  n_retained is the rank of the least-squares matrix under
    lstsq's rule, out of 2 order + 1 columns: its 2 order - 2 singular
    values equal to 1 and those of its other three that the rule keeps
    (see _least_squares).

    Three float64 forms of P, one polynomial in exact arithmetic, differ by
    the Arnoldi build's rounding.  p0, dx_p0, dy_p0, the pairing and
    pairing_bound read Q's ball rows (B_n), residual and zg_norm_on_G its
    cavity rows (A_n), and log10_max_g H's recurrence.  pairing_bound is
    proven for the ball rows; their gap to the recurrence is only measured:
    at most 0.43 of u (N + 1) sum_n sum_k |coeff[k]| |Q[k, 2n + 1]| on 10^5
    points of B's circle over 108 reference fits (36 disks, t = 0.5, 0.25, 0.125).
    """

    order: int
    boundary_radius: float
    p0: float
    dx_p0: float
    dy_p0: float
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
    def g(self) -> BoundaryData:
        """P's trace modes n <= 1 on r = R: P(0) and R grad P(0)."""
        R = self.boundary_radius
        return BoundaryData([self.p0, R * self.dx_p0], [0.0, R * self.dy_p0])

    @property
    def log10_max_g(self) -> float:
        """log10 of max |P| on r = R, the size of the full boundary data the fit stands for.

        Computed when read, by one pass of H's recurrence on m = 4N + 16
        equispaced points of r = R; powers of two carry the scale, so the
        log stays finite where P itself would overflow.  R enters as its
        mantissa times 2**e, so the points stay finite up to R = float max.
        """
        m = 4 * self.order + 16
        circle = np.exp(2j * np.pi * np.arange(m) / m)
        mantissa, scale = math.frexp(self.boundary_radius)
        values, exponent = _arnoldi_real_part(self.H, self.coeff, mantissa * circle, scale)
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

    The steps run in float64 about the real center |c|, for c = |c| e^{i alpha}.
    Rotating the plane by e^{i alpha} maps the circle about |c| onto the
    circle about c and the ball's circle onto itself.  The polynomial
    f(e^{-i alpha} z) has the Taylor coefficients of f times e^{-i n alpha}
    on both circles, so the coefficient inner product does not see the
    rotation, and z e^{ik alpha} q_k(e^{-i alpha} z) = sum_j e^{i(k + 1 - j) alpha}
    H[j, k] e^{ij alpha} q_j(e^{-i alpha} z).  The basis about c is therefore
    Q_c[k, 2n + s] = e^{i(k - n) alpha} Q[k, 2n + s] with Hessenberg matrix
    H_c[j, k] = e^{i(k + 1 - j) alpha} H[j, k]: H[k + 1, k] keeps its phase 1,
    and Arnoldi with a positive subdiagonal is unique.  One elementwise
    product with a table of exp(i alpha d), d = -N..N, applies that twist;
    each phase is one exp from alpha = atan2(Im c, Re c), so it stays at
    rounding where powers of c / |c| would drift, and a real positive c
    needs none.
    Rows are built at unit norm behind two zeros, so the shift is a slice,
    and Q takes its factor sqrt(2) once at the end.  Row k and H's column
    k depend on k alone, so a build holds every lower-order build bit for bit.
    """
    size = 2 * (order + 1)
    diagonal = np.zeros(size)
    diagonal[0::2] = abs(center)
    step = np.zeros(size)
    step[2::2] = rho
    step[3::2] = radius
    # Row k of U is q_k / sqrt(2) in U[k, 2:]; U[k, :size] is the row shifted by one degree.
    U = np.zeros((order + 1, size + 2))
    H = np.zeros((order + 1, order))
    U[0, 2:4] = math.sqrt(0.5)
    work = np.empty(size)
    for k in range(order):
        live = 2 * (k + 2)  # z q_k has degree k + 1
        v = np.multiply(diagonal[:live], U[k, 2 : live + 2], out=work[:live])
        v += step[:live] * U[k, :live]
        basis = U[: k + 1, 2 : live + 2]
        h = basis @ v
        v -= h @ basis
        again = basis @ v
        v -= again @ basis
        H[: k + 1, k] = h + again
        H[k + 1, k] = math.sqrt(v @ v)
        np.multiply(v, 1.0 / H[k + 1, k], out=U[k + 1, 2 : live + 2])
    Q = U[:, 2:] * math.sqrt(2.0)
    if center.imag == 0.0 and center.real > 0.0:
        return Q.astype(complex), H.astype(complex)
    # twist[k, n] = e^{i(k - n) alpha}, so twist[k, k] is exactly 1.
    phase = np.exp(1j * math.atan2(center.imag, center.real) * np.arange(-order, order + 1))
    degree = np.arange(order + 1)
    twist = phase[order + degree[:, None] - degree]
    Q = Q.reshape(order + 1, order + 1, 2) * twist[:, :, None]
    return Q.reshape(order + 1, size), H * twist.T[:, 1:]


def _arnoldi_real_part(H: np.ndarray, coeff: np.ndarray, z: np.ndarray, scale: int = 0) -> tuple[np.ndarray, int]:
    """Re sum_k coeff[k] q_k at the points z * 2**scale, through H's recurrence, as (values, exponent).

    The sum is values * 2**exponent.  Each q_k is carried as a row S_k
    times 2**e_k, with S_k rescaled to a largest entry in [1/2, 1), so
    the recurrence runs on circles far outside the fit points, where
    q_k grows geometrically, without overflow.  Each step multiplies by
    z and carries 2**scale in e_k, so points beyond the float64 range
    can be passed by their mantissas.  Powers of two keep the rescaling
    exact: where nothing under- or overflows, the result does not depend
    on how the points' scale is split between z and scale.
    """
    order = H.shape[1]
    S = np.empty((order + 1, z.size), dtype=complex)
    e = np.zeros(order + 1, dtype=int)
    S[0] = 1.0
    for k in range(order):
        weights = H[: k + 1, k] * np.ldexp(1.0, e[: k + 1] - e[k] - scale)
        v = (z * S[k] - weights @ S[: k + 1]) / H[k + 1, k]
        _, shift = np.frexp(np.max(np.abs(v)))
        S[k + 1] = v * np.ldexp(1.0, -shift)
        e[k + 1] = e[k] + scale + shift
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
        if np.abs(update).max() <= FLOAT_EPS * np.abs(coeff).max():
            break
    return coeff, 2 * width - 4 + int(np.count_nonzero(keep))


def _h1_weights(rho: float, q: float, gap: float, order: int) -> tuple[np.ndarray, float]:
    """Weights w_n, n <= N, with ||h||^2_{H1(disk(c, rho))} = sum_n w_n |h_n|^2, and E_t's modes past N.

    For h = Re sum_n h_n w^n with h_0 real, w_0 = pi rho^2 and w_n =
    pi (n + rho^2 / (2 (n + 1))).  The second value is sum_{n>N} w_n q^n / n^2
    for E_t's |e_n|^2 = q^n / n^2 (see runge_fit): a Dirichlet part pi q^n / n
    and an L2 part pi rho^2 q^n / (2 n^2 (n + 1)), both falling like q^n,
    so past count terms, q^count <= u (1 - q) for the unit roundoff u, the
    rest is below u times the first.  Where count reaches TAIL_TERMS
    (q > 0.98996), the sum stops at M = N + TAIL_TERMS and the Dirichlet
    part's rest is added in closed form, pi (-log(1 - q) - sum_{n<=M} q^n / n),
    while the L2 part's is below pi rho^2 / (4 M^2).  gap is 1 - q, which
    the caller takes from exact arithmetic: a unit from tangency the
    rounded q can read 1.  Where gap rounds to 1, q <= u / 2 and one term
    is enough.
    """
    count = min(math.ceil(math.log(0.5 * FLOAT_EPS * gap) / math.log1p(-gap)), TAIL_TERMS) if gap < 1.0 else 1
    n = np.arange(order + count + 1.0)
    weight = np.pi * (n + rho * rho / (2.0 * (n + 1.0)))
    weight[0] = np.pi * rho * rho
    past = n[order + 1 :]
    tail = q**past / past**2 @ weight[order + 1 :]
    if count == TAIL_TERMS:
        tail += np.pi * (-math.log(gap) - q ** n[1:] @ (1.0 / n[1:]))
    return weight[: order + 1], tail


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
    of those 2m points.  On a circle the m-point trapezoid rule is exact
    for every product of degree <= 2N < m (Trefethen and Weideman, SIAM
    Review 56(3), 2014), so the fit runs on each circle's N + 1 scaled
    Taylor coefficients in _arnoldi_taylor's basis: the sum of squares is
    m [(Re A_0 - e_0)^2 + sum_{n=1..N} |A_n - e_n|^2 / 2] per circle, for
    P's coefficients A_n (B_n on the ball) and E_t's e_n, whose closed
    forms follow from log|d + rho w| = log|d| + Re log(1 + rho w / d):
        on G, z = c + rho w, d = c - t:  e_0 = log|d|, e_n = -(-rho / d)^n / n;
        on B, z = (t / 2) w:             e_0 = log t,  e_n = -2^-n / n.
    The (4N + 2) x (2N + 1) problem has the point-space singular values
    over sqrt(m), so rcond = eps 2m keeps lstsq's rank rule; m sets only
    that and log10_max_g's points.  All but three singular values are 1,
    and _least_squares solves it in O(N^2) through Q.

    t e1 lies outside both closed disks, so P - E_t is harmonic on each,
    with coefficients A_n - e_n up to N and E_t's own beyond, |e_n|^2 =
    q^n / n^2 for q = (rho / |d|)^2 on G and 1/4 on B: _h1_weights sums
    every mode.  dx (P - E_t)(0) is the Poisson average of (P - E_t) cos(theta)
    over the circle of B, so the pairing -2 pi dx P(0) is off 2 pi / t by
    at most (8 / pi) max |P - E_t| there, relatively, and
        max |P - E_t| <= sum_{n <= N} |B_n - e_n| + sum_{n > N} 2^-n / n,
    with Re B_0 for B_0 and the tail at most 2^-N / (N + 1) (a geometric
    series; log 2 less the head would cancel).  pairing_bound adds, as
    2 (N + 4) u, gamma_{N+4} = (N + 4) u / (1 - (N + 4) u) times the sum,
    sum |e_n| < |log t| + 1 and sum_k |coeff[k]| sum_n |Q[k, 2n + 1]| <=
    sqrt(2 (N + 1)) sum |coeff| (rows of squared norm 2): the rounding of
    B_n's dot products and of the sum.  P(0) = Re B_0 and p'(0) = B_1 / (t / 2).
    So the pairing, p0, dx_p0 and pairing_bound, proven for them, read Q's
    ball rows; residual and zg_norm_on_G read its cavity rows, and
    log10_max_g H's recurrence, measured against the ball rows (see RungeFit).
    Preconditions keep t e1 strictly outside the cavity closure, the
    cavity outside the closed ball of radius t, both decided exactly
    (see power_sign), and t < R.
    """
    validate_admissible(cavity, boundary_radius)
    if not (0.0 < t < boundary_radius):
        raise ValueError(f"probe distance must satisfy 0 < t < {boundary_radius}, got {t}")
    if not 1 <= order <= MAX_RUNGE_ORDER:
        raise ValueError(f"cutoff order must be in [1, {MAX_RUNGE_ORDER}], got {order}")
    t = float(t)
    if power_sign((t, 0.0), cavity.center, cavity.radius) <= 0:
        raise ValueError(
            f"singular point {(t, 0.0)} lies inside the cavity closure "
            f"disk(center={cavity.center}, radius={cavity.radius})"
        )
    if power_sign((0.0, 0.0), cavity.center, t, cavity.radius) <= 0:
        raise ValueError(
            f"cavity disk(center={cavity.center}, radius={cavity.radius}) meets the closed "
            f"ball of radius {t} about the origin; move the cavity or shrink t"
        )
    d = complex(*cavity.center) - t
    ball_radius = 0.5 * t
    width = order + 1
    m = 4 * order + 16
    # E_t's Taylor coefficients e_n, n <= N, about the center (row 0) and about 0 (row 1).
    n = np.arange(1, width)
    probe = np.empty((2, width), dtype=complex)
    probe[0, 0], probe[1, 0] = math.log(abs(d)), math.log(t)
    probe[0, 1:] = -((-cavity.radius / d) ** n) / n
    probe[1, 1:] = -np.ldexp(1.0, -n) / n

    Q, H = _arnoldi_taylor(complex(*cavity.center), cavity.radius, ball_radius, order)
    # Each mode's entry is weighted by its share of the sum of squares:
    # Re A_0 of each circle gives one row, Re and Im A_n, n >= 1, two of weight 1/2.
    scale = np.full(2 * width, math.sqrt(0.5))
    scale[:2] = 1.0
    coeff, rank = _least_squares(Q * scale, probe.T.ravel() * scale, FLOAT_EPS * 2 * m)

    # P's coefficients A_n about the center and B_n about 0; P = Re p, so
    # only the real parts of A_0 and B_0 are P's.
    fitted = (coeff @ Q).reshape(width, 2).T
    fitted[:, 0] = fitted[:, 0].real
    misfit = np.abs(fitted - probe)
    # 1 - q on G is (|d|^2 - rho^2) / |d|^2 for d = c - t e1, from the exact power, rounded once.
    power, denom = point_power((t, 0.0), cavity.center, cavity.radius)
    a, b = cavity.radius.as_integer_ratio()
    gap = power * b * b / (power * b * b + denom * a * a)
    on_G, tail_G = _h1_weights(cavity.radius, (cavity.radius / abs(d)) ** 2, gap, order)
    on_B, tail_B = _h1_weights(ball_radius, 0.25, 0.75, order)
    residual = math.sqrt(misfit[0] ** 2 @ on_G + tail_G + misfit[1] ** 2 @ on_B + tail_B)
    zg_norm_on_G = math.sqrt(np.abs(fitted[0]) ** 2 @ on_G)
    norm_on_G = math.sqrt(np.abs(probe[0]) ** 2 @ on_G + tail_G)
    on_ball = float(np.sum(misfit[1]))
    sizes = on_ball + abs(math.log(t)) + 1.0 + math.sqrt(2.0 * width) * float(np.sum(np.abs(coeff)))
    pairing_bound = 8.0 / np.pi * (on_ball + math.ldexp(1.0, -order) / width + (order + 4) * FLOAT_EPS * sizes)

    dp0 = fitted[1, 1] / ball_radius
    return RungeFit(
        order=order,
        boundary_radius=float(boundary_radius),
        p0=float(fitted[1, 0].real),
        dx_p0=float(dp0.real),
        dy_p0=float(-dp0.imag),
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

    No program path calls it: `nrtlab runge` takes its verdict from the
    certified pairing bounds.  perfbench's probe-route scoring does, and
    tests/test_benchmark_contract.py pins that call.
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
