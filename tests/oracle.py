"""Dense reference implementations that the tests compare the package against.

The package never forms V_n, T_n or a matrix power: the witness works on the
closed-form Toeplitz column of T_n and `growth` on that of (T - I)^k.  These
references take the long way round on purpose (V_n by its definition, T_n by
a triangular solve, powers by repeated products), so agreement with them is
an independent check rather than the closed form checked against itself.
"""

from fractions import Fraction

import numpy as np
from scipy.linalg import solve_triangular

from oba_lab import MatrixOperator, QuadratureRule, eigenvalues


def volterra_matrix(n: int, rule: QuadratureRule) -> MatrixOperator:
    """Lower triangular discretization of the running integral on n grid points.

    Left endpoint: h on the strict lower triangle.  Trapezoid: additionally
    h/2 on the diagonal.
    """
    m = np.zeros((n, n))
    m[np.tril_indices(n, -1)] = 1.0 / n
    np.fill_diagonal(m, volterra_diagonal(n, rule))
    return MatrixOperator(m)


def volterra_diagonal(n: int, rule: QuadratureRule) -> np.ndarray:
    """The diagonal of `volterra_matrix(n, rule)` without forming it: 0 or h/2."""
    return np.full(n, 0.5 / n if rule is QuadratureRule.TRAPEZOID else 0.0)


def resolvent_at_identity(v: MatrixOperator) -> MatrixOperator:
    """T = (I + V)^(-1) for a lower triangular V, by forward substitution."""
    n = v.dim
    return MatrixOperator(solve_triangular(np.eye(n) + v.entries, np.eye(n), lower=True))


def witness_pencil(n: int, rule: QuadratureRule, shift: int):
    """Exact (a, b, alpha, beta) with T_n - shift I = M B^(-1), h = 1/n.

    B = a I - b L and M = alpha I + beta L, L the down-shift, as in
    `volterra._witness_norm`'s docstring; `test_volterra` checks the
    factorization against V_n by its definition.
    """
    h = Fraction(1, n)
    left = rule is QuadratureRule.LEFT_ENDPOINT
    a, b = (Fraction(1), 1 - h) if left else (1 + h / 2, 1 - h / 2)
    if shift == 0:
        return a, b, Fraction(1), Fraction(-1)
    return (a, b, Fraction(0), -h) if left else (a, b, -h / 2, -h / 2)


def witness_count_above(n: int, rule: QuadratureRule, shift: int, mu: Fraction):
    """How many squared singular values of T_n - shift I exceed mu, counted exactly.

    B^(-T) (M^T M - mu B^T B) B^(-1) = (T_n - shift I)^T (T_n - shift I) - mu I,
    so by Sylvester's law of inertia the count is the number of positive
    pivots in the LDL^T of the tridiagonal K = M^T M - mu B^T B (Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 3).  K is Toeplitz but for its last
    diagonal entry, where L^T L drops the 1.  Every entry is rational, so the
    pivots are exact.  None when a pivot is zero: then a leading block of K is
    singular, and mu must move.
    """
    a, b, alpha, beta = witness_pencil(n, rule, shift)
    inner = alpha * alpha + beta * beta - mu * (a * a + b * b)
    last = alpha * alpha - mu * a * a
    off_squared = (alpha * beta + mu * a * b) ** 2
    positive, pivot = 0, None
    for i in range(n):
        diag = inner if i < n - 1 else last
        pivot = diag if pivot is None else diag - off_squared / pivot
        if pivot == 0:
            return None
        positive += pivot > 0
    return positive


def dense_norm(a) -> float:
    """Largest singular value by LAPACK's SVD, independent of the package's Gram-eigenvalue norm."""
    return float(np.linalg.svd(np.asarray(a), compute_uv=False)[..., 0])


def resolvent_residual(v, t) -> float:
    """||(I + V) T - I||, the defect of T as the inverse of I + V."""
    v, t = np.asarray(v), np.asarray(t)
    n = v.shape[0]
    return dense_norm((np.eye(n) + v) @ t - np.eye(n))


def gelfand_radius(a, k_max: int) -> np.ndarray:
    """Norm-root sequence ||a^k||^(1/k) for k = 1..k_max.

    Powers are renormalized every step and tracked in log scale, so large
    norms neither overflow nor underflow.  Once a power vanishes exactly
    (nilpotent input) all later entries are 0.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    m = np.asarray(a)
    out = np.zeros(k_max)
    power = m
    log_scale = 0.0
    for k in range(1, k_max + 1):
        s = dense_norm(power)
        if s == 0.0:
            break
        out[k - 1] = float(np.exp((np.log(s) + log_scale) / k))
        if k < k_max:
            log_scale += np.log(s)
            power = (power / s) @ m
    return out


def product_spectrum(x) -> np.ndarray:
    """Spectrum of a product-algebra element: matrix eigenvalues with the scalar adjoined."""
    return np.append(eigenvalues(x.op), np.complex128(x.scalar))


def multiset_distance(left, right) -> float:
    """Greedy nearest-neighbour pairing distance between two eigenvalue multisets.

    Returns the largest matched distance; eigenvalue ordering is not
    canonical, so callers compare this against their tolerance.
    """
    a = np.asarray(left, dtype=np.complex128).ravel()
    b = np.asarray(right, dtype=np.complex128).ravel().copy()
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    used = np.zeros(b.size, dtype=bool)
    worst = 0.0
    for lam in sorted(a, key=lambda z: (-abs(z), z.real, z.imag)):
        dist = np.abs(b - lam)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, float(dist[j]))
    return worst
