"""Dense reference implementations that the tests compare the package against.

The package never forms V_n, T_n or a matrix power: the witness works on the
closed-form Toeplitz column of T_n and `growth` on that of (T - I)^k.  These
references take the long way round on purpose (V_n by its definition, T_n by
a triangular solve, powers by repeated products), so agreement with them is
an independent check rather than the closed form checked against itself.
"""

import numpy as np
from scipy.linalg import solve_triangular

from oba_lab import MatrixOperator, QuadratureRule, eigenvalues, spectral_norm


def volterra_matrix(n: int, rule: QuadratureRule) -> MatrixOperator:
    """Lower triangular discretization of the running integral on n grid points.

    Left endpoint: h on the strict lower triangle.  Trapezoid: additionally
    h/2 on the diagonal.
    """
    h = 1.0 / n
    m = np.zeros((n, n))
    m[np.tril_indices(n, -1)] = h
    if rule is QuadratureRule.TRAPEZOID:
        np.fill_diagonal(m, h / 2)
    return MatrixOperator(m)


def resolvent_at_identity(v: MatrixOperator) -> MatrixOperator:
    """T = (I + V)^(-1) for a lower triangular V, by forward substitution."""
    n = v.dim
    return MatrixOperator(solve_triangular(np.eye(n) + v.entries, np.eye(n), lower=True))


def resolvent_residual(v, t) -> float:
    """||(I + V) T - I||, the defect of T as the inverse of I + V."""
    v, t = np.asarray(v), np.asarray(t)
    n = v.shape[0]
    return spectral_norm((np.eye(n) + v) @ t - np.eye(n))


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
        s = spectral_norm(power)
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
