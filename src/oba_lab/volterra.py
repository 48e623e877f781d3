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
||T_n|| is the package's one Lanczos run, `_capped_lanczos_norm`: 384 steps on
the O(n) products of `_resolvent_matvecs`, about 0.16 s at n = 4096, kept
because the benchmark reference pins its value.  Its seeded start is read
from a stored table of the draws, so no path here loads `numpy.random`
(about 6 MB and 8 ms) or depends on numpy's Generator stream.  `growth`, on
grids up to 2^16 where the witness stops at 4096, writes (T_n - I)^k as
(-h)^k times a binomial Toeplitz matrix, builds only the lower corner of that
matrix's closed-form column that carries its norm to 2^-60 relative, norms
the corners by power iteration, many powers per stack
(`spectral._lower_toeplitz_norms`), and puts h back after the k-th root.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .algebra import membership_slack
from .errors import ComputationError
from .operators import DEFAULT_TOLERANCE, ToleranceConfig, _integer
from .spectral import _fft_size, _lower_toeplitz_norms

MAX_GRID = 4096
# `growth` forms no n x n matrix: at n = 2^16 its corners take about 0.7 s at
# k_max = 16 and 3.0 s at 256 on 2 vCPUs
_GROWTH_GRID = 2**16
# Transform entries per stack of `growth` corners: a stack whose first, widest
# corner has W entries transforms its rows at length L = _fft_size(2W - 1) and
# takes max(1, 8192 // L) corners in all: 16 at W = 256, 21 at W = 182, 4 at
# 1024, 2 at 2048 and 1 from 2049 up.  A stack's FFT buffers peak at about
# 0.5 MiB (tracemalloc), doubling with the budget.  At power-of-two widths,
# whose counts this keeps, stacks took 256/64 from 12 ms one corner at a time
# to 3.4 ms, 1024/256 from 60 ms to 28 ms and 4096/4095 from 0.72 s to 0.34 s
# (in-process medians on 2 vCPUs); twice or four times the budget gained
# nothing measurable below 4096/4095, and 10-15% there.
_STACK_ELEMENTS = 8192
_LANCZOS_SEED = 0x5EED
# the first MAX_GRID draws of default_rng(_LANCZOS_SEED).standard_normal, as
# little-endian float64 (`_capped_lanczos_norm`)
_LANCZOS_START = Path(__file__).with_name("_lanczos_start.npy")
_LANCZOS_STEPS = 384
# Reorthogonalize a second time when the first pass leaves less than this
# fraction of the vector's norm ("twice is enough", Kahan-Parlett).
_REORTH_GUARD = 2**-0.5


class QuadratureRule(enum.Enum):
    LEFT_ENDPOINT = "left"
    TRAPEZOID = "trapezoid"


def _check_grid(n, limit: int = MAX_GRID) -> int:
    """The grid size n as a Python int in [1, limit]."""
    n = _integer("grid size n", n)
    if not 1 <= n <= limit:
        raise ValueError(f"grid size must be in [1, {limit}], got {n}")
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

    The root is bracketed on at most 64 points of step pi/(16n) from one step
    off the peak, up to 4 pi/n from it (all of (0, pi) for n <= 4), and refined
    by 64 points per pass down to adjacent floats.  Three forms keep it
    accurate: the denominator h^2 + 4ab s^2, not a^2 + b^2 - 2ab cos theta,
    which cancels; the last row divided by sin theta, which removes the trivial
    roots at 0 and pi, where x vanishes; and
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
    theta = peak + away * step * np.arange(1, min(65, 16 * n))
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


def _capped_lanczos_norm(n: int, gram) -> float:
    """Largest singular value of a real n x n operator A, n > 384, from 384 Lanczos steps.

    `gram(x)` returns A^T A x; `build_witness` passes the products of
    `_resolvent_matvecs` for `norm_T` above n = 512.  The norm is the square
    root of the top Ritz value of a Lanczos iteration on A^T A from a seeded
    start, with full reorthogonalization: one classical Gram-Schmidt pass,
    and a second only where the first cancels most of the vector.  The
    iteration runs exactly `_LANCZOS_STEPS` steps unless it reaches an
    invariant subspace, where its Ritz value is exact, and takes the Ritz
    value once, from one `eigvalsh` of the tridiagonal (Parlett, The
    Symmetric Eigenvalue Problem, ch. 13).  Short of the whole space that
    value is a lower bound, which approaches the norm from below: for the
    witness products at n = 4096 it reads about 1.35e-11 low.  A NaN or
    infinity in a product raises ValueError, naming the step.

    The start is the first n entries of the table `_LANCZOS_START`, so n is
    at most its length, `MAX_GRID`.  The table holds the first `MAX_GRID`
    draws of `default_rng(_LANCZOS_SEED).standard_normal`, stored so that no
    run loads `numpy.random` (about 6 MB) and no output depends on numpy's
    Generator stream; `Generator` fills its output in order, so its first n
    entries are bitwise `standard_normal(n)`.  The 384 x n basis (12 MiB at
    n = 4096) dies before the tridiagonal is built, as one 384 x 384 array,
    and solved.
    """
    start = np.load(_LANCZOS_START)[:n]
    alphas, betas, steps = _lanczos_recurrence(gram, start / np.linalg.norm(start))
    # eigvalsh reads only the lower triangle: an off-diagonal placed above the
    # diagonal would be ignored without any error
    tridiagonal = np.diag(alphas[:steps])
    np.fill_diagonal(tridiagonal[1:], betas[: steps - 1])
    return math.sqrt(max(np.linalg.eigvalsh(tridiagonal)[-1], 0.0))


def _lanczos_recurrence(gram, v):
    """The diagonal, off-diagonal and step count of `_capped_lanczos_norm`'s
    iteration from the unit vector v; its basis dies on return."""
    n = v.size
    # The Lanczos vectors are consecutive rows, so each projection reads one
    # block.  The block is padded with zero rows to a multiple of 8 rows, whose
    # coefficients are exact zeros: OpenBLAS's threaded gemv splits the rows
    # among its threads, and at n = 4096 on random data every row count that is
    # a multiple of 8 gave the same bytes at 1 and 2 threads, while 204 of the
    # 384 unpadded counts did not.  On the witness products, padding to 4 left
    # 39 of 144 sampled norms thread-dependent, and padding to 16 gave the
    # bytes of 8.
    basis = np.zeros((_LANCZOS_STEPS, n))
    alphas = np.empty(_LANCZOS_STEPS)
    betas = np.empty(_LANCZOS_STEPS)
    # the largest |alpha| so far: the scale of the invariant-subspace test
    peak = 0.0
    for j in range(_LANCZOS_STEPS):
        basis[j] = v
        w = gram(v)
        alpha = v @ w
        # a NaN or infinity anywhere in a product reaches alpha
        if not np.isfinite(alpha):
            raise ValueError(
                f"the norm needs finite products, got a NaN or infinity at Lanczos step {j + 1}"
            )
        alphas[j] = alpha
        w = w - alpha * v
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        # The reference norm is taken after the three-term recurrence; taken
        # before it, the guard would fire on nearly every step.
        recurrence_norm = np.sqrt(w @ w)
        # the rows so far and up to 7 zero rows, a multiple of 8 (see `basis`)
        span = basis[: -(-(j + 1) // 8) * 8]
        w = w - (span @ w) @ span
        beta = np.sqrt(w @ w)
        if beta < _REORTH_GUARD * recurrence_norm:
            w = w - (span @ w) @ span
            beta = np.sqrt(w @ w)
        betas[j] = beta
        peak = max(peak, abs(alpha))
        if beta <= 1e-14 * peak:
            break
        v = w / beta
    return alphas, betas, j + 1


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

    No V_n is formed and no system solved; the module docstring says how each
    norm is taken.  The closed-form `deviation` is within 2e-15 relative of
    the dense SVD.  The spectrum of the triangular T_n is its diagonal c_0.

    `rule` is a `QuadratureRule` or its value ("left", "trapezoid"); anything
    else is a ValueError.
    """
    n, rule = _check_grid(n), QuadratureRule(rule)
    # Above n = 512 the capped Lanczos norm_T stays until perfbench/reference.json
    # is regenerated: the closed form would move it there by up to 3.3e-11, past
    # the 1e-12 floor of perfbench/check.py.
    if n <= 512:
        norm_t = _witness_norm(n, rule, 0.0)
    else:
        matvec, rmatvec = _resolvent_matvecs(n, rule)
        norm_t = _capped_lanczos_norm(n, lambda x: rmatvec(matvec(x)))
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
    vanish identically and the normalized quantity is meaningless.  The grid
    may reach 2^16 (`_GROWTH_GRID`), past the witness's `MAX_GRID`.

    No matrix and no power is formed.  With h = 1/n and q = 1 - h, T - I is
    the lower-triangular Toeplitz matrix of the symbol -hz / (1 - qz), so
    (T - I)^k = (-h)^k B_k, with B_k the one of z^k (1 - qz)^(-k): its first
    column has b_m = C(m - 1, k - 1) q^(m - k) for m >= k and 0 above.  The
    column is built in log space, with lgamma = log Gamma,
    log b_m = lgamma(m) - lgamma(m - k + 1) - lgamma(k) + (m - k) log q,
    and divided by its largest entry exp(top) so that its maximum is 1; then
    with s the norm of the scaled matrix, a_k = k s^(1/k) exp(top / k) / n,
    which neither overflows nor underflows.  The grid factor h = 1/n enters
    after the k-th root, as one division: for k = 1, top is 0 and a_1 = s / n,
    and for k = n - 1 the column is the single entry 1 and a_(n-1) = (n - 1)/n.

    The scaled column is positive, so its Gram matrix is entrywise positive
    and power iteration takes s (`spectral._lower_toeplitz_norms`).  Only the
    column's lower corner is built and normed.  For k >= 2 the ratio
    b_(m+1)/b_m = q m/(m - k + 1) is at least 1 while m <= n(k - 1), which
    holds for every row, so the column increases and its largest entry is the
    last; for k = 1 it falls from 1 to q^(n-2) > 1/e.  So the entries below
    2^-60/n of the largest form a prefix, and they are cut: their l1 mass is
    under 2^-60.  The W entries left are the column of a W x W
    lower-triangular Toeplitz matrix, the lower-left corner of B_k without the
    cut entries.  A lower Toeplitz matrix's norm is at most its column's l1
    norm, and the scaled norm is at least its largest entry, 1, so the cut
    moves s by at most 2^-60 relative and a_k by 2^-60/k.  W never grows
    with k (every n up to 300 and n = 512, 1000, 2048 and 4096 at every k,
    and 16384/256 and 65536/16; median 187 at 256/64, 305 at 1024/256, 67 at
    1024/1023 and 72 at 4096/4095).  So each power builds its log column
    only on its last W' + 1 entries, W' the width of the corner before it
    (the whole column for k = 1), and scans them once: top is their largest
    entry, which is the column's, and the corner starts at the first entry at
    or above top + log(2^-60/n).  A power costs O(W'), not O(n).  The window
    is one entry wider than W', so a corner that did grow would fill it and
    raise ComputationError naming k rather than be cut short.

    The corners come one power at a time, in k order, and are normed in
    stacks taken from that stream one stack at a time.  A stack is exactly as
    wide as its first corner, W, transforms at L = `spectral._fft_size`(2W - 1),
    the least 2^a or 3 * 2^a of at least 2W - 1, and takes that corner and
    the next max(1, 8192 // L) - 1 (`_STACK_ELEMENTS`), so its first corner is
    its widest and each one after it sits after leading zeros, which keeps
    its matrix's norm.  A stack's start and width depend on n and k alone,
    and the stacked iteration gives each s bitwise its value alone, so every
    a_k is bitwise independent of k_max.  Every power measured settles within
    13 steps, most stacks in 2 or 3; one still unsettled after 64 steps raises
    ComputationError naming k.  In-process medians on 2 vCPUs: 256/64 takes
    3.6 ms, 1024/256 23 ms, 1024/1023 43 ms, 4096/256 0.14 s and 4096/4095
    0.22 s.  Past the witness's grid, 16384/256 and 65536/16 take about 0.7 s,
    65536/256 3.0 s, 32768/32767 2.7 s and 65536/65535 5.6 s.
    """
    n, k_max = _check_grid(n, _GROWTH_GRID), _integer("k_max", k_max)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if k_max >= n:
        raise ValueError(f"k_max must be smaller than the grid size, got k_max={k_max}, n={n}")
    log_q = math.log1p(-1.0 / n)
    # log_fact[m] = lgamma(m) = log (m - 1)!, index 0 unused.  math.lgamma,
    # not scipy.special.gammaln: the runtime depends on numpy only.
    log_fact = np.array([math.inf] + [math.lgamma(m) for m in range(1, n)])
    # log_steps[j] = j log q, the same products each power would take afresh
    log_steps = np.arange(n) * log_q
    # an entry below 2^-60 / n of the largest is cut: n of them weigh under 2^-60
    log_floor = math.log(2.0**-60 / n)

    def corners():
        # the previous corner's width; k = 1 reads its whole column
        width = n
        for k in range(1, k_max + 1):
            # entry i is row m = k + i of rows k..n-1, so m - k + 1 runs over
            # 1..n-k; the two large lgamma terms (about 6000 at n = 1024)
            # cancel before log q is added.  Only the last width + 1 entries
            # are built: a corner wider than the last one then shows up.
            start = max(0, n - k - width - 1)
            window = (
                log_fact[k + start :] - log_fact[1 + start : n - k + 1] - log_fact[k] + log_steps[start : n - k]
            )
            top = window.max()
            corner = window[(window >= top + log_floor).argmax() :]
            if corner.size > width:
                raise ComputationError(f"the corner of power k = {k} is wider than the one before it")
            width = corner.size
            yield k, top, np.exp(corner - top)

    out = np.zeros(k_max)
    stream = corners()
    for first in stream:
        width = first[2].size
        count = max(1, _STACK_ELEMENTS // _fft_size(2 * width - 1))
        ks, tops, stacked = zip(first, *islice(stream, count - 1))
        columns = np.zeros((len(ks), width))
        for row, corner in zip(columns, stacked):
            row[width - corner.size :] = corner
        for k, top, norm in zip(ks, tops, _lower_toeplitz_norms(columns, ks)):
            out[k - 1] = k * float(norm) ** (1 / k) * math.exp(top / k) / n
    return out
