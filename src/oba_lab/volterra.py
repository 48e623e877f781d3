"""The Volterra resolvent witness, its convergence study and growth diagnostic.

On the uniform grid x_i = i/n the running integral becomes a lower triangular
matrix V_n.  The two quadrature rules split the continuous operator's key
properties between them: the left-endpoint rule keeps quasinilpotency (the
spectrum is exactly {0}), while the trapezoid rule keeps accretivity
(V_n + V_n^T is positive semidefinite), which is what pins the resolvent norm
at 1.  No finite matrix can keep both at once, so each rule tells half of the
infinite-dimensional story.

Neither V_n nor T_n = (I + V_n)^(-1) is ever formed.  Under both rules T_n is
lower-triangular Toeplitz with a closed-form first column.  The witness's
`deviation` ||T_n - I|| is the top root of a scalar secular equation at every
n, about 0.5 ms on 2 vCPUs, and so is ||T_n|| up to n = 512.  Above that
||T_n|| is a Lanczos iteration of min(n, 384) steps on O(n) products with
T_n, about 0.2 s at n = 4096, kept because the benchmark reference pins it.
`growth` norms the closed-form column of (T_n - I)^k.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import membership_slack
from .operators import DEFAULT_TOLERANCE, ToleranceConfig, _integer
from .spectral import _gram_lanczos, lower_toeplitz_norm

MAX_GRID = 4096


class QuadratureRule(enum.Enum):
    LEFT_ENDPOINT = "left"
    TRAPEZOID = "trapezoid"


def _check_grid(n) -> int:
    """The grid size n as a Python int in [1, MAX_GRID]."""
    n = _integer("grid size n", n)
    if not 1 <= n <= MAX_GRID:
        raise ValueError(f"grid size must be in [1, {MAX_GRID}], got {n}")
    return n


def _resolvent_symbol(n: int, rule: QuadratureRule) -> tuple[float, float]:
    """(a, b) such that I + V_n = (a I - b L)(I - L)^(-1), with L the down-shift.

    a is the diagonal of I + V_n and b = a - h: (1, 1 - h) for the
    left-endpoint rule, (1 + h/2, 1 - h/2) for the trapezoid rule.  So T_n has
    first column c_0 = 1/a, c_k = (r - 1)/a * r^(k-1) with r = b/a.
    """
    h = 1.0 / n
    return (1.0, 1.0 - h) if rule is QuadratureRule.LEFT_ENDPOINT else (1.0 + h / 2, 1.0 - h / 2)


def _witness_norm(n: int, rule: QuadratureRule, shift: float) -> float:
    """||T_n - shift I|| for shift 0 or 1, from the secular equation of its Gram pencil.

    With B = a I - b L from `_resolvent_symbol`, T_n - shift I = M B^(-1) for
    M = alpha I + beta L: (1, -1) for shift 0, and for shift 1 (0, -h) under the
    left-endpoint rule, (-h/2, -h/2) under the trapezoid rule.  The squared
    norm is the top eigenvalue mu of the pencil (M^T M, B^T B), whose matrices
    are tridiagonal Toeplitz but for their last diagonal entry.  Every interior
    row is solved by x_j = sin(j theta) with
    mu(theta) = ((alpha + beta)^2 - 4 alpha beta s^2) / (h^2 + 4ab s^2),
    s = sin(theta/2), and the last row leaves one scalar equation in theta.
    mu is monotone on (0, pi), so the top eigenvalue is the root nearest the
    symbol's peak (theta = pi for shift 0, theta = 0 for shift 1): measured
    0.64 pi/n to 1.003 pi/n from it, with the next root at least 0.79 pi/n on.

    The root is bracketed on a grid of step pi/(16n) that starts one step off
    the peak (within 4 pi/n of it from n = 64 on, all of (0, pi) below) and
    refined by 64 points per pass down to adjacent floats.  Three forms keep
    it accurate: the denominator h^2 + 4ab s^2, not a^2 + b^2 - 2ab cos theta,
    which cancels; the last row divided by sin theta, which removes the
    trivial roots at 0 and pi, where x vanishes; and
    2a cos((n + 1/2) theta) s + h sin(n theta) in place of
    a sin((n + 1) theta) - b sin(n theta), which cancels near 0.
    """
    a, b = _resolvent_symbol(n, rule)
    if n == 1:
        return abs(1.0 / a - shift)
    h = 1.0 / n
    if shift == 0.0:
        alpha, beta, peak, away = 1.0, -1.0, math.pi, -1.0
    elif rule is QuadratureRule.LEFT_ENDPOINT:
        alpha, beta, peak, away = 0.0, -h, 0.0, 1.0
    else:
        alpha, beta, peak, away = -h / 2, -h / 2, 0.0, 1.0

    def secular(theta):
        s = np.sin(theta / 2)
        mu = ((alpha + beta) ** 2 - 4 * alpha * beta * s * s) / (h * h + 4 * a * b * s * s)
        sin_n = np.sin(n * theta)
        last_row = (
            beta * beta * sin_n
            + alpha * beta * np.sin((n + 1) * theta)
            + mu * b * (2 * a * np.cos((n + 0.5) * theta) * s + h * sin_n)
        )
        return last_row / np.sin(theta), mu

    step = math.pi / (16 * n)
    theta = peak + away * step * np.arange(1, 65 if n >= 64 else 16 * n)
    while True:
        value, mu = secular(theta)
        k = np.flatnonzero(np.signbit(value) != np.signbit(value[0]))[0]
        if np.nextafter(theta[k - 1], theta[k]) == theta[k]:
            nearer = k - 1 if abs(value[k - 1]) < abs(value[k]) else k
            return math.sqrt(mu[nearer])
        theta = np.linspace(theta[k - 1], theta[k], 65)


def _resolvent_matvecs(n: int, rule: QuadratureRule):
    """x -> T_n x and x -> T_n^T x in O(n) time and memory.

    `build_witness` norms these products only for `norm_T` above n = 512.
    T_n is lower triangular Toeplitz with the closed-form column of
    `_resolvent_symbol`, so each product is one cumulative sum of r^(-j) x_j
    (or of r^i x_i).  For every n >= 1 and k < n the weights r^(+-k) stay
    within [1/e, e], so they need no rescaling.
    """
    a, b = _resolvent_symbol(n, rule)
    r = b / a
    diag = 1.0 / a
    coef = (r - 1.0) / a
    up = r ** np.arange(n)  # r^k
    down = r ** -np.arange(n)  # r^(-k)

    def matvec(x):
        # y_i = diag x_i + coef r^(i-1) sum_{j<i} r^(-j) x_j
        partial = np.cumsum(down * x)
        y = diag * x
        y[1:] += coef * up[:-1] * partial[:-1]
        return y

    def rmatvec(x):
        # y_j = diag x_j + coef r^(-j-1) sum_{i>j} r^i x_i
        partial = np.cumsum((up * x)[::-1])[::-1]
        y = diag * x
        y[:-1] += coef * down[1:] * partial[1:]
        return y

    return matvec, rmatvec


@dataclass(frozen=True)
class WitnessReport:
    """All facts verified for one (n, rule) resolvent element (T_n, xi)."""

    n: int
    rule: QuadratureRule
    h: float
    norm_T: float
    xi_used: float
    cone_member: bool
    cluster_radius: float
    deviation: float
    geq_unit: bool
    norm_excess: float


def build_witness(
    n: int, rule: QuadratureRule, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> WitnessReport:
    """Assemble the full fact sheet for the resolvent element at grid size n.

    xi_used = max(1, ||T_n||): at finite n the norm can exceed 1 by a
    discretization error (left-endpoint rule), and the report then records the
    excess instead of silently failing cone membership.  Each verdict needs
    one norm: (T_n, xi) is in the cone by ||T_n|| against xi, and it is above
    the unit iff (T_n - I, xi - 1) is in the cone, by ||T_n - I|| against xi - 1.

    No V_n is formed and no system solved.  `deviation` is the closed form of
    `_witness_norm` at every n, within 2e-15 relative of the dense SVD, at
    about 0.5 ms on 2 vCPUs, and so is `norm_T` up to n = 512.  Above it
    `norm_T` comes from `spectral._gram_lanczos`, 384 steps on the O(n)
    Toeplitz products of `_resolvent_matvecs`, about 0.2 s at n = 4096.  The
    spectrum of the triangular T_n is its diagonal c_0 alone.

    `rule` is a `QuadratureRule` or its value ("left", "trapezoid"); anything
    else is a ValueError.
    """
    n, rule = _check_grid(n), QuadratureRule(rule)
    # Above n = 512 the capped Lanczos norm_T stays because perfbench/reference.json
    # pins it: the closed form would move it there by up to 3.3e-11, past the
    # 1e-12 floor of perfbench/check.py.  This branch goes once the benchmark
    # regenerates that reference.
    if n <= 512:
        norm_t = _witness_norm(n, rule, 0.0)
    else:
        matvec, rmatvec = _resolvent_matvecs(n, rule)
        norm_t = _gram_lanczos(n, lambda x: rmatvec(matvec(x)))
    deviation = _witness_norm(n, rule, 1.0)
    radius = abs(1.0 / _resolvent_symbol(n, rule)[0] - 1.0)
    xi = max(1.0, norm_t)
    return WitnessReport(
        n=n,
        rule=rule,
        h=1.0 / n,
        norm_T=norm_t,
        xi_used=xi,
        cone_member=bool(membership_slack(norm_t, xi, tol) >= 0),
        cluster_radius=radius,
        deviation=deviation,
        geq_unit=bool(membership_slack(deviation, xi - 1.0, tol) >= 0),
        norm_excess=norm_t - 1.0,
    )


def convergence_study(
    ns, rule: QuadratureRule, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> list[WitnessReport]:
    """One witness per distinct grid size, ascending."""
    sizes = sorted(set(map(_check_grid, ns)))
    if not sizes:
        raise ValueError("convergence_study needs at least one grid size")
    return [build_witness(n, rule, tol) for n in sizes]


@dataclass(frozen=True)
class GrowthReport:
    """The growth sequence a_k of `growth_diagnostic` with its peak and last value."""

    n: int
    k_max: int
    rule: QuadratureRule = field(default=QuadratureRule.LEFT_ENDPOINT, init=False)
    a_k: tuple[float, ...]

    @property
    def max_a(self) -> float:
        return max(self.a_k)

    @property
    def argmax_k(self) -> int:
        """The first k at which a_k peaks."""
        return 1 + self.a_k.index(self.max_a)

    @property
    def a_last(self) -> float:
        return self.a_k[-1]


def growth_diagnostic(n: int, k_max: int) -> np.ndarray:
    """Sequence a_k = k ||(T - I)^k||^(1/k), k = 1..k_max, on the left-endpoint grid.

    The rule is fixed to left endpoint so that T - I is nilpotent like its
    continuous counterpart.  Requires k_max < n: from k = n on, the powers
    vanish identically and the normalized quantity is meaningless.

    No matrix and no power is formed.  With h = 1/n, T - I is the
    lower-triangular Toeplitz matrix of the symbol -hz / (1 - (1 - h)z), so
    (T - I)^k is the one of (-hz)^k (1 - (1 - h)z)^(-k): its first column has
    c_m = (-h)^k C(m - 1, k - 1) (1 - h)^(m - k) for m >= k and 0 above.  The
    column is built in log space, with lgamma = log Gamma, summed in this order,
    log|c_m| = lgamma(m) - lgamma(m - k + 1) - lgamma(k) + (k log h + (m - k) log1p(-h)),
    and divided by its largest entry exp(top) so that its maximum is 1; then
    with s the norm of the normalized matrix (`lower_toeplitz_norm`),
    a_k = k exp((log s + top) / k), which neither overflows nor underflows.
    """
    n, k_max = _check_grid(n), _integer("k_max", k_max)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if k_max >= n:
        raise ValueError(f"k_max must be smaller than the grid size, got k_max={k_max}, n={n}")
    h = 1.0 / n
    log_h, log_q = np.log(h), np.log1p(-h)
    # log_fact[m] = lgamma(m) = log (m - 1)!, index 0 unused.  math.lgamma, not
    # scipy.special.gammaln: the runtime depends on numpy only.
    log_fact = np.array([math.inf] + [math.lgamma(m) for m in range(1, n)])
    column = np.zeros(n)
    out = np.zeros(k_max)
    for k in range(1, k_max + 1):
        # rows m = k..n-1, so m - k + 1 runs over 1..n-k
        # the two large lgamma terms (about 6000 at n = 1024) cancel before the
        # small ones are added: added to k log h first, they err by up to 1e-12
        log_c = (
            log_fact[k:]
            - log_fact[1 : n - k + 1]
            - log_fact[k]
            + (k * log_h + np.arange(n - k) * log_q)
        )
        top = log_c.max()
        column[:k] = 0.0
        column[k:] = np.exp(log_c - top)
        out[k - 1] = k * np.exp((np.log(lower_toeplitz_norm(column)) + top) / k)
    return out
