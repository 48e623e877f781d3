"""The Volterra resolvent witness, its convergence study and growth diagnostic.

On the uniform grid x_i = i/n the running integral becomes a lower triangular
matrix V_n.  The two quadrature rules split the continuous operator's key
properties between them: the left-endpoint rule keeps quasinilpotency (the
spectrum is exactly {0}), while the trapezoid rule keeps accretivity
(V_n + V_n^T is positive semidefinite), which is what pins the resolvent norm
at 1.  No finite matrix can keep both at once, so each rule tells half of the
infinite-dimensional story.

Neither V_n nor T_n = (I + V_n)^(-1) is ever formed.  Under both rules T_n is
lower-triangular Toeplitz with a closed-form first column, so every fact here
comes from O(n) products with T_n, T_n - I or, for `growth`, the closed-form
column of (T_n - I)^k.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import membership_slack
from .operators import DEFAULT_TOLERANCE, ToleranceConfig
from .spectral import lower_toeplitz_norm, operator_norm

MAX_GRID = 4096


class QuadratureRule(enum.Enum):
    LEFT_ENDPOINT = "left"
    TRAPEZOID = "trapezoid"


def _check_grid(n: int) -> None:
    if not 1 <= n <= MAX_GRID:
        raise ValueError(f"grid size must be in [1, {MAX_GRID}], got {n}")


def _resolvent_symbol(n: int, rule: QuadratureRule) -> tuple[float, float]:
    """(a, r) such that T_n has first column c_0 = 1/a, c_k = (r - 1)/a * r^(k-1).

    With L the down-shift, I + V_n = (a I - b L)(I - L)^(-1), where a is the
    diagonal of I + V_n and b = a - h: (1, 1 - h) for the left-endpoint rule,
    (1 + h/2, 1 - h/2) for the trapezoid rule, and r = b/a.
    """
    h = 1.0 / n
    a, b = (1.0, 1.0 - h) if rule is QuadratureRule.LEFT_ENDPOINT else (1.0 + h / 2, 1.0 - h / 2)
    return a, b / a


def _resolvent_matvecs(n: int, rule: QuadratureRule, shift: float):
    """x -> (T_n - shift I) x and x -> (T_n - shift I)^T x in O(n) time and memory.

    T_n is lower triangular Toeplitz with the closed-form column of
    `_resolvent_symbol`, so each product is one cumulative sum of r^(-j) x_j
    (or of r^i x_i).  For every n >= 1 and k < n the weights r^(+-k) stay
    within [1/e, e], so they need no rescaling.
    """
    a, r = _resolvent_symbol(n, rule)
    diag = 1.0 / a - shift
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

    One path serves every n: both norms come from `operator_norm` on the O(n)
    Toeplitz products of `_resolvent_matvecs`, with no V_n formed and no system
    solved, and the spectrum of the triangular T_n is its diagonal c_0 alone.
    """
    _check_grid(n)
    norm_t = operator_norm(n, *_resolvent_matvecs(n, rule, 0.0))
    deviation = operator_norm(n, *_resolvent_matvecs(n, rule, 1.0))
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
    sizes = sorted(set(int(n) for n in ns))
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
    column is built in log space, with lgamma = log Gamma,
    log|c_m| = k log h + lgamma(m) - lgamma(k) - lgamma(m - k + 1) + (m - k) log1p(-h),
    and divided by its largest entry exp(top) so that its maximum is 1; then
    with s the norm of the normalized matrix (`lower_toeplitz_norm`),
    a_k = k exp((log s + top) / k), which neither overflows nor underflows.
    """
    _check_grid(n)
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
        log_c = (
            k * log_h
            + log_fact[k:]
            - log_fact[k]
            - log_fact[1 : n - k + 1]
            + np.arange(n - k) * log_q
        )
        top = log_c.max()
        column[:k] = 0.0
        column[k:] = np.exp(log_c - top)
        out[k - 1] = k * np.exp((np.log(lower_toeplitz_norm(column)) + top) / k)
    return out
