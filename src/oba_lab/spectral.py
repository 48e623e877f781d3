"""Spectral computations: operator norms (of dense matrices and stacks by SVD;
of operators given only by their action, lower-triangular Toeplitz matrices
among them, by Lanczos of at most min(n, 384) steps at every dimension n),
eigenvalues and their spread about a center."""

from __future__ import annotations

import math

import numpy as np

# numpy 2 loads its fft and random submodules lazily, on first attribute access;
# importing them here keeps that cost (about 10 ms) out of the first norm.
from numpy.fft import irfft, rfft
from numpy.random import default_rng

from .errors import ComputationError
from .operators import _validated_square

# perfbench/tracer.py reads this name to split its `spectral_norm` metrics by
# dimension; a traced benchmark pass raises AttributeError without it.
_SVD_MAX_DIM = 512
_LANCZOS_SEED = 0x5EED
_LANCZOS_MAX_STEPS = 384
_LANCZOS_TOL = 1e-12
# Ritz checks at 16, 32, 64, ... steps and once at the end.  A check costs
# O(k^3) in the dense eigensolver, and the norms taken here either settle within
# 32 steps or run to the step cap, so checks in between would only cost time.
_LANCZOS_FIRST_CHECK = 16
# Reorthogonalize a second time when the first pass leaves less than this
# fraction of the vector's norm ("twice is enough", Kahan-Parlett).
_REORTH_GUARD = 2**-0.5


def spectral_norm(a) -> float:
    """Largest singular value of a square matrix, by dense SVD at every dimension.

    The one-element case of `spectral_norms`.
    """
    return float(spectral_norms(np.asarray(a)[np.newaxis])[0])


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a (count, dim, dim) stack.

    One stacked dense SVD, which runs the same LAPACK call on every matrix, so
    each value is bitwise what `spectral_norm` returns for that matrix.
    """
    return np.linalg.svd(np.asarray(stack), compute_uv=False)[:, 0]


def lower_toeplitz_norm(column) -> float:
    """Largest singular value of the real lower-triangular Toeplitz matrix with this first column.

    The matrix is never formed, at any dimension: the products with it and its
    transpose are FFT convolution and correlation at the first power of two of
    at least 2n - 1, so no wraparound occurs, and `_gram_lanczos` takes the
    norm from them, in O(n log n) time per step and O(n) memory per basis
    vector.  The column must be finite.
    """
    col = np.asarray(column)
    if col.ndim != 1 or col.size < 1 or np.iscomplexobj(col):
        raise ValueError(
            f"a Toeplitz column must be a nonempty real vector, got {col.dtype} of shape {col.shape}"
        )
    if not np.isfinite(col).all():
        raise ValueError("a Toeplitz column must have finite entries, got a NaN or infinity")
    n = col.size
    # numpy.fft, not scipy.fft: the runtime depends on numpy only
    size = 1 << (2 * n - 2).bit_length()
    symbol = rfft(col, size)
    symbol_conj = symbol.conj()

    def product(spectrum, x):
        return irfft(spectrum * rfft(x, size), size)[:n]

    return _gram_lanczos(n, lambda x: product(symbol_conj, product(symbol, x)))


def _gram_lanczos(n: int, gram) -> float:
    """Largest singular value of a real n x n operator A, given `gram(x)` = A^T A x for n >= 1.

    No matrix is formed: the norm is the square root of the top Ritz value of
    a Lanczos iteration on A^T A with a seeded start, so equal products give
    bitwise-equal values.  Each step reorthogonalizes against the whole Krylov
    basis: one Gram-Schmidt pass, plus a second only when the first cancels
    most of the new vector.  It stops by min(n, 384) steps: up to dimension
    384 that may be the whole space, where the Ritz value is the norm up to
    rounding; above it, a lower bound that approaches the norm from below.
    Both stop tests are relative, so the result scales with A wherever its
    Gram products neither overflow nor underflow.  A product with a NaN or
    infinity raises ValueError.  The callers guarantee n >= 1 and real
    products.
    """
    v = default_rng(_LANCZOS_SEED).standard_normal(n)
    v = v / np.linalg.norm(v)

    steps = min(n, _LANCZOS_MAX_STEPS)
    # one Lanczos vector per row, so each projection reads one block; row j is
    # written before any read, so the basis needs no zeroing
    basis = np.empty((steps, n))
    alphas = np.zeros(steps)
    betas = np.zeros(steps)
    lam = -np.inf
    lam_count = 0  # the step count at which `lam` was last computed
    check_at = _LANCZOS_FIRST_CHECK
    for j in range(steps):
        basis[j] = v
        w = gram(v)
        alpha = float(v @ w)
        count = j + 1
        # a NaN or infinity anywhere in the product reaches alpha
        if not math.isfinite(alpha):
            raise ValueError(
                f"the norm needs finite products, got a NaN or infinity at Lanczos step {count}"
            )
        alphas[j] = alpha
        w = w - alpha * v
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        # Full reorthogonalization keeps the Ritz values trustworthy: one classical
        # Gram-Schmidt pass, and a second only if the first cancels most of w.  The
        # reference norm is taken after the three-term recurrence; taken before it,
        # the guard would fire on nearly every step.
        span = basis[:count]
        recurrence_norm = np.linalg.norm(w)
        w = w - (span @ w) @ span
        beta = float(np.linalg.norm(w))
        if beta < _REORTH_GUARD * recurrence_norm:
            w = w - (span @ w) @ span
            beta = float(np.linalg.norm(w))
        betas[j] = beta
        # both stop tests are relative, so the result scales with the operator
        if beta <= 1e-14 * np.abs(alphas[:count]).max():
            break  # invariant subspace found; Ritz values are exact for it
        v = w / beta
        if count == check_at:
            lam_prev, lam = lam, _top_ritz(alphas[:count], betas[: count - 1])
            lam_count = count
            check_at *= 2
            if lam - lam_prev <= _LANCZOS_TOL * lam:
                break
    if lam_count != count:
        lam = _top_ritz(alphas[:count], betas[: count - 1])
    return float(np.sqrt(max(lam, 0.0)))


def _top_ritz(diag: np.ndarray, off: np.ndarray) -> float:
    # eigvalsh reads only the lower triangle: an off-diagonal placed above the
    # diagonal would be ignored without any error
    return float(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))[-1])


def _is_triangular(m: np.ndarray) -> bool:
    return not np.any(np.tril(m, -1)) or not np.any(np.triu(m, 1))


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, as a complex array.

    Triangular inputs (exact structural zeros) short-circuit to the diagonal;
    everything else goes through the dense Hessenberg-QR solver.  Raises
    ValueError, naming the clause, for anything but a nonempty square matrix
    of finite entries.
    """
    m = _validated_square(a)
    if _is_triangular(m):
        return np.diag(m).astype(np.complex128)
    try:
        return np.linalg.eigvals(m).astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigenvalue iteration did not converge for dim {m.shape[0]}: {exc}"
        ) from exc


def cluster_radius(eigs, center: complex) -> float:
    """Largest distance of any eigenvalue from the given center."""
    arr = np.asarray(eigs, dtype=np.complex128).ravel()
    if arr.size == 0:
        raise ValueError("cluster_radius needs a nonempty eigenvalue multiset")
    return float(np.abs(arr - center).max())
