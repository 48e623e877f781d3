"""Spectral computations: operator norms (of dense matrices, or matrix-free from a
matvec), eigenvalue sets, and spectrum utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, toeplitz

from .errors import ComputationError
from .operators import MatrixOperator

# Full SVD below this dimension; seeded Lanczos on the Gram operator above it.
_SVD_MAX_DIM = 512
_LANCZOS_SEED = 0x5EED
_LANCZOS_MAX_STEPS = 384
_LANCZOS_TOL = 1e-12
_LANCZOS_CHECK_EVERY = 16


def _as_array(a) -> np.ndarray:
    return a.entries if isinstance(a, MatrixOperator) else np.asarray(a)


def spectral_norm(a) -> float:
    """Largest singular value of a square matrix.

    Dimensions up to 512 use a dense SVD.  Larger matrices use a Lanczos
    iteration on the Gram operator A^H A with full reorthogonalization and a
    fixed seeded start vector, so repeated calls on equal inputs agree
    bitwise.  The iterative estimate approaches the norm from below; on the
    matrix families handled here it agrees with the dense SVD to better than
    1e-10 relative.
    """
    m = _as_array(a)
    if m.shape[0] <= _SVD_MAX_DIM:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    return _lanczos_norm(m)


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a (count, dim, dim) stack.

    Each value is bitwise what `spectral_norm` returns for that matrix: up to
    dimension 512 the whole stack goes through one stacked dense SVD, which
    runs the same LAPACK call on every matrix; above that each matrix takes
    the same Lanczos iteration in turn.
    """
    m = np.asarray(stack)
    if m.shape[-2] <= _SVD_MAX_DIM:
        return np.linalg.svd(m, compute_uv=False)[:, 0]
    return np.array([_lanczos_norm(a) for a in m])


def operator_norm(dim: int, matvec, rmatvec) -> float:
    """Largest singular value of a real dim x dim operator given only by its action.

    `matvec(x)` must return A x and `rmatvec(x)` must return A^T x for a real
    vector x of length dim.  Up to dimension 512 the matrix is assembled one
    column at a time from `matvec(e_j)` and normed by dense SVD, exactly as
    `spectral_norm` would norm it.  Above that the norm comes from the same
    seeded Lanczos iteration on the Gram operator A^T A that `spectral_norm`
    runs there, so it is a Ritz value: a lower bound that approaches the norm
    from below, with the same step cap and stopping rule.  Only real operators
    are supported: a complex product raises ValueError on either path.
    """
    if dim < 1:
        raise ValueError(f"operator dimension must be at least 1, got {dim}")
    if dim <= _SVD_MAX_DIM:
        return spectral_norm(_real_product(np.column_stack([matvec(e) for e in np.eye(dim)])))
    return _gram_lanczos(dim, lambda v: _real_product(rmatvec(_real_product(matvec(v)))), False)


def lower_toeplitz_norm(column) -> float:
    """Largest singular value of the real lower-triangular Toeplitz matrix with this first column.

    Up to dimension 512 the matrix is assembled and normed by dense SVD,
    bitwise as `spectral_norm` norms it.  Above that it is never formed: the
    products with it and its transpose are FFT convolution and correlation at
    the first power of two of at least 2n - 1, so no wraparound occurs, and
    the norm is `operator_norm`'s Lanczos Ritz value in O(n) memory.
    """
    col = np.asarray(column)
    if col.ndim != 1 or col.size < 1 or np.iscomplexobj(col):
        raise ValueError(
            f"a Toeplitz column must be a nonempty real vector, got {col.dtype} of shape {col.shape}"
        )
    n = col.size
    if n <= _SVD_MAX_DIM:
        return spectral_norm(toeplitz(col, np.zeros(n)))
    # numpy.fft, not scipy.fft: importing scipy.fft adds about 0.1 s to every CLI start
    size = 1 << (2 * n - 2).bit_length()
    symbol = np.fft.rfft(col, size)
    symbol_conj = symbol.conj()
    return operator_norm(
        n,
        lambda x: np.fft.irfft(symbol * np.fft.rfft(x, size), size)[:n],
        lambda x: np.fft.irfft(symbol_conj * np.fft.rfft(x, size), size)[:n],
    )


def _real_product(y) -> np.ndarray:
    if np.iscomplexobj(y):
        raise ValueError("operator_norm supports real operators only, got a complex product")
    return y


def _lanczos_norm(m: np.ndarray) -> float:
    complex_input = np.iscomplexobj(m) and bool(np.any(m.imag != 0))
    work = m if complex_input else (m.real if np.iscomplexobj(m) else m)
    return _gram_lanczos(m.shape[0], lambda v: work.conj().T @ (work @ v), complex_input)


def _gram_lanczos(n: int, gram, complex_input: bool) -> float:
    """sqrt of the top Ritz value of the Hermitian PSD operator `gram` from a seeded start."""
    rng = np.random.default_rng(_LANCZOS_SEED)
    v = rng.standard_normal(n)
    if complex_input:
        v = v + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)

    steps = min(n, _LANCZOS_MAX_STEPS)
    basis = np.zeros((n, steps), dtype=np.complex128 if complex_input else np.float64)
    alphas = np.zeros(steps)
    betas = np.zeros(steps)
    count = 0
    lam_prev = -np.inf
    for j in range(steps):
        basis[:, j] = v
        w = gram(v)
        alpha = float(np.real(np.vdot(v, w)))
        alphas[j] = alpha
        count = j + 1
        w = w - alpha * v
        if j > 0:
            w = w - betas[j - 1] * basis[:, j - 1]
        # full reorthogonalization, twice, to keep the Ritz values trustworthy
        span = basis[:, :count]
        w = w - span @ (span.conj().T @ w)
        w = w - span @ (span.conj().T @ w)
        beta = float(np.linalg.norm(w))
        betas[j] = beta
        if beta <= 1e-14 * max(1.0, np.abs(alphas[:count]).max()):
            break  # invariant subspace found; Ritz values are exact for it
        v = w / beta
        if count % _LANCZOS_CHECK_EVERY == 0:
            lam = _top_ritz(alphas[:count], betas[: count - 1])
            if lam - lam_prev <= _LANCZOS_TOL * max(lam, 1.0):
                break
            lam_prev = lam
    lam = _top_ritz(alphas[:count], betas[: count - 1])
    return float(np.sqrt(max(lam, 0.0)))


def _top_ritz(diag: np.ndarray, off: np.ndarray) -> float:
    if len(diag) == 1:
        return float(diag[0])
    k = len(diag)
    return float(
        eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k - 1, k - 1))[0]
    )


def _is_triangular(m: np.ndarray) -> bool:
    return not np.any(np.tril(m, -1)) or not np.any(np.triu(m, 1))


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, as a complex array.

    Triangular inputs (exact structural zeros) short-circuit to the diagonal;
    everything else goes through the dense Hessenberg-QR solver.
    """
    m = _as_array(a)
    if _is_triangular(m):
        return np.diag(m).astype(np.complex128)
    try:
        return np.linalg.eigvals(m).astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigenvalue iteration did not converge for dim {m.shape[0]}: {exc}"
        ) from exc


def product_spectrum(x) -> np.ndarray:
    """Spectrum of a product-algebra element: matrix eigenvalues with the scalar adjoined."""
    return np.append(eigenvalues(x.op), np.complex128(x.scalar))


def cluster_radius(eigs, center: complex) -> float:
    """Largest distance of any eigenvalue from the given center."""
    arr = np.asarray(eigs, dtype=np.complex128).ravel()
    if arr.size == 0:
        raise ValueError("cluster_radius needs a nonempty eigenvalue multiset")
    return float(np.abs(arr - center).max())


def gelfand_radius(a, k_max: int) -> np.ndarray:
    """Norm-root sequence ||a^k||^(1/k) for k = 1..k_max.

    Powers are renormalized every step and tracked in log scale, so large
    norms neither overflow nor underflow.  Once a power vanishes exactly
    (nilpotent input) all later entries are 0.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    m = _as_array(a)
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


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset together with its spread about a chosen center."""

    eigenvalues: np.ndarray
    center: complex
    cluster_radius: float


def spectrum_report(a, center: complex = 1.0) -> SpectrumReport:
    eigs = np.sort_complex(eigenvalues(a))
    eigs.setflags(write=False)
    return SpectrumReport(eigs, complex(center), cluster_radius(eigs, center))


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
