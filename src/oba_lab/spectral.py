"""Spectral computations: operator norms, eigenvalues and their spread about a center.

A dense matrix, or each matrix of a stack, is normed as the square root of
the top eigenvalue of its Gram matrix A^H A, one stacked Hermitian
eigensolve for the whole stack.  Each matrix is first scaled by the power of
two of its largest real or imaginary part, which is exact and keeps the Gram
matrix clear of overflow and underflow at any finite scale.  Operators given
only by their action, lower-triangular Toeplitz matrices among them, are
normed by Lanczos of at most min(n, 384) steps at every dimension n.
"""

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
# dimension; a traced benchmark pass raises AttributeError without it.  Every
# dimension takes the Gram eigenvalue path, so the split no longer marks a
# change of method.
_SVD_MAX_DIM = 512
_LANCZOS_SEED = 0x5EED
_LANCZOS_MAX_STEPS = 384
_LANCZOS_TOL = 1e-12
# Ritz check steps 16, 32, 64, ...; `_gram_lanczos` states the stop rule.  The
# norms taken here settle within 32 steps or run to the cap, and a check costs
# O(k^3) in the dense eigensolver, so checks in between would only cost time.
_LANCZOS_FIRST_CHECK = 16
# Reorthogonalize a second time when the first pass leaves less than this
# fraction of the vector's norm ("twice is enough", Kahan-Parlett).
_REORTH_GUARD = 2**-0.5


def spectral_norm(a) -> float:
    """Largest singular value of a square matrix, from the top eigenvalue of its Gram matrix.

    The one-element case of `spectral_norms`, bitwise, with its error bound
    and its ValueError for a NaN or infinity.  Anything but a nonempty square
    2-D array is a ValueError naming its shape.
    """
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    return float(spectral_norms(m[np.newaxis])[0])


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a (count, dim, dim) stack.

    Each norm is sqrt(lambda_max(A^H A)), from one stacked `eigvalsh` that
    runs the same LAPACK call on every matrix, so each value is bitwise what
    `spectral_norm` returns for that matrix.  Before the Gram matrix is
    formed, each matrix is scaled by 2^-e, where 2^e is the least power of two
    above its largest real or imaginary part, and the norm is scaled back by
    2^e.  Both steps are exact, so the result is the unscaled kernel's
    wherever that neither overflows nor underflows, and any finite matrix
    keeps the range an SVD has.  A NaN or infinity raises ValueError.

    Forward error: forming A^H A in dimension d perturbs it by at most about
    d (d + 2) eps ||A||^2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 3.1 and 3.6), which moves lambda_max by no
    more (Weyl's inequality); the eigensolver's backward error adds a small
    multiple of d eps ||A||^2, and the square root halves the relative
    error.  The relative error is at most (d + 1)^2 eps; against the SVD, at
    d <= 16 it measured a few d eps (at most 1.0e-15).
    """
    m = np.asarray(stack)
    m = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    # the real and imaginary parts of each matrix as one real row; a view
    # unless the stack is not contiguous
    parts = m.reshape(len(m), m.shape[-2] * m.shape[-1])
    if np.iscomplexobj(parts):
        parts = parts.view(np.float64)
    peak = np.abs(parts).max(axis=1)
    # max propagates a NaN, and an infinity is its own peak
    if not np.isfinite(peak).all():
        raise ValueError("matrix entries must be finite for a norm, got a NaN or infinity")
    _, exponent = np.frexp(peak)
    scaled = np.ldexp(parts, -exponent[:, np.newaxis]).view(m.dtype).reshape(m.shape)
    gram = np.matmul(scaled.conj().swapaxes(-1, -2), scaled)
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[:, -1]), exponent)


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
    a Lanczos iteration on A^T A with a seeded start and full
    reorthogonalization, so equal products give bitwise-equal values.  It
    stops in one of three ways, each taking the top Ritz value once (Parlett,
    The Symmetric Eigenvalue Problem, ch. 13): at an invariant subspace, where
    the Ritz value is exact; at a check step (16, 32, ..., 256) whose Ritz
    value moved by at most `_LANCZOS_TOL` relative since the last check; or
    at the step cap min(n, 384).  Up to dimension 384 the cap may be the
    whole space, where the Ritz value is the norm up to rounding; above it, a
    lower bound that approaches the norm from below.  Both stop tests are
    relative, so the result scales with A wherever its Gram products neither
    overflow nor underflow.  A product with a NaN or infinity raises
    ValueError.  The callers guarantee n >= 1 and real products.
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
        # the one stop point, with the one Ritz evaluation (see the docstring)
        invariant = beta <= 1e-14 * np.abs(alphas[:count]).max()
        if invariant or count in (check_at, steps):
            lam_prev, lam = lam, _top_ritz(alphas[:count], betas[: count - 1])
            if invariant or lam - lam_prev <= _LANCZOS_TOL * lam:
                break
            check_at *= 2
        v = w / beta
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
