"""Spectral computations: operator norms, eigenvalues and their spread about a center.

A dense matrix, or each matrix of a stack, is normed as the square root of
the top eigenvalue of its Gram matrix A^H A, one stacked Hermitian
eigensolve for the whole stack.  Each matrix is first scaled by the power of
two of its largest real or imaginary part, which is exact and keeps the Gram
matrix clear of overflow and underflow at any finite scale.  Operators given
only by their action, lower-triangular Toeplitz matrices among them, are
normed by Lanczos with Ritz checks at steps 16 and 32 and at the cap
min(n, 384), in stacks: one lockstep iteration takes the norms of many
operators, one stacked BLAS, FFT or LAPACK call per step for the whole stack,
and gives each the bits it gets alone.  Where the stack is many short runs,
as for the `growth` powers, that saves the per-call cost that sets their time.
"""

from __future__ import annotations

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
# The Ritz checks before the cap, which also size the basis: every `growth` norm
# stops by step 32 and norm_T above n = 512 runs to the cap (`_gram_lanczos`).
_LANCZOS_CHECKS = (16, 32)
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

    The one-column case of `_lower_toeplitz_norms`, bitwise, never forming the
    matrix.  A column whose top Ritz value has not settled by step 32 runs to
    the cap min(n, 384) (`_gram_lanczos`).  The column must be a nonempty real
    vector of finite entries.
    """
    col = np.asarray(column)
    if col.ndim != 1 or col.size < 1 or np.iscomplexobj(col):
        raise ValueError(
            f"a Toeplitz column must be a nonempty real vector, got {col.dtype} of shape {col.shape}"
        )
    if not np.isfinite(col).all():
        raise ValueError("a Toeplitz column must have finite entries, got a NaN or infinity")
    return float(_lower_toeplitz_norms(col[np.newaxis])[0])


def _lower_toeplitz_norms(columns: np.ndarray) -> np.ndarray:
    """Norms of the lower-triangular Toeplitz matrices whose first columns are the rows of a block.

    `columns` is a (count, n) block of real, finite rows.  The products with
    each matrix and its transpose are row-wise FFT convolution and correlation
    at the first power of two of at least 2n - 1, so no wraparound occurs, and
    one `_gram_lanczos` stack takes every norm from them, in O(count n log n)
    time per step.  Each row's norm is bitwise the one it gets as a block of
    one.  The caller sets the stack size by the memory it allows: the stack's
    basis holds count n entries per step.
    """
    count, n = columns.shape
    # numpy.fft, not scipy.fft: the runtime depends on numpy only
    size = 1 << (2 * n - 2).bit_length()
    symbols = rfft(columns, size)
    conjugates = symbols.conj()

    def product(spectra, x):
        # named, so numpy never multiplies into the transform in place: its
        # in-place complex product (taken for temporaries of 256 KiB and up)
        # rounds differently, which would tie a row's bits to its stack's size
        transform = rfft(x, size)
        return irfft(spectra * transform, size)[:, :n]

    return _gram_lanczos(
        n, count, lambda rows, x: product(conjugates[rows], product(symbols[rows], x))
    )


def _gram_lanczos(n: int, count: int, gram) -> np.ndarray:
    """Largest singular values of `count` real n x n operators A_i, from their Gram products.

    `gram(rows, x)` returns the block whose row r is A_i^T A_i x_r, with i =
    rows[r]: `rows` holds the indices, ascending, of the operators still
    running, and x one vector per running operator.  No matrix is formed: each
    norm is the square root of the top Ritz value of a Lanczos iteration on
    A_i^T A_i with a seeded start, shared by every row, and full
    reorthogonalization.  The iterations run in lockstep, one stacked call per
    product, dot product, projection and Ritz check, and each row's arithmetic
    is the same BLAS, FFT and LAPACK calls it makes alone: every norm is
    bitwise its value as a block of one, and equal products give equal values.

    Ritz values are checked at steps 16 and 32 below the cap min(n, 384), and
    at the cap.  Each row stops in one of three ways, taking its top Ritz
    value once at the stop (Parlett, The Symmetric Eigenvalue Problem,
    ch. 13): at an invariant subspace, where it is exact; at step 32 if it
    moved by at most `_LANCZOS_TOL` relative since step 16; or at the cap,
    where it is the norm up to rounding if the cap is the whole space
    (n <= 384), and otherwise a lower bound that approaches the norm from
    below.  Both stop tests are relative, so the result scales with A wherever
    its Gram products neither overflow nor underflow.

    A stopped row leaves the stack.  The basis is one (rows, capacity, n)
    block with room up to the next check, widened for the rows still running,
    so a stack of rows that stop by step 32 never holds the 384-step basis.
    A NaN or infinity in a product raises ValueError, naming the step.  The
    callers guarantee n >= 1, count >= 1 and real products.
    """
    start = default_rng(_LANCZOS_SEED).standard_normal(n)
    v = np.tile(start / np.linalg.norm(start), (count, 1))

    steps = min(n, _LANCZOS_MAX_STEPS)
    checks = [c for c in _LANCZOS_CHECKS if c < steps] + [steps]
    rows = np.arange(count)
    norms = np.empty(count)
    # each operator's Lanczos vectors are consecutive rows of its slab, so each
    # projection reads one block; row j is written before any read, so no zeroing
    basis = np.empty((count, checks[0], n))
    alphas = np.empty((count, steps))
    betas = np.empty((count, steps))
    # the largest |alpha| so far: the scale of the invariant-subspace test
    peak = np.zeros(count)
    lam = np.full(count, -np.inf)
    for j in range(steps):
        if j == basis.shape[1]:
            grown = np.empty((len(rows), checks[checks.index(j) + 1], n))
            grown[:, :j] = basis
            basis = grown
        basis[:, j] = v
        w = gram(rows, v)
        alpha = _dots(v, w)
        step = j + 1
        # a NaN or infinity anywhere in a product reaches its alpha
        if not all(np.isfinite(alpha)):
            raise ValueError(
                f"the norm needs finite products, got a NaN or infinity at Lanczos step {step}"
            )
        alphas[:, j] = alpha
        w = w - alpha[:, np.newaxis] * v
        if j > 0:
            w = w - betas[:, j - 1, np.newaxis] * basis[:, j - 1]
        # Full reorthogonalization keeps the Ritz values trustworthy: one classical
        # Gram-Schmidt pass, and a second only where the first cancels most of w.
        # The reference norm is taken after the three-term recurrence; taken before
        # it, the guard would fire on nearly every step.
        span = basis[:, :step]
        recurrence_norm = np.sqrt(_dots(w, w))
        w = w - _projection(span, w)
        beta = np.sqrt(_dots(w, w))
        again = beta < _REORTH_GUARD * recurrence_norm
        if any(again):
            w[again] -= _projection(span[again], w[again])
            beta[again] = np.sqrt(_dots(w[again], w[again]))
        betas[:, j] = beta
        np.maximum(peak, np.abs(alpha), out=peak)
        # the one stop point, with the one Ritz evaluation per stop or check
        invariant = beta <= 1e-14 * peak
        checked = step in checks
        if checked or any(invariant):
            ritz = slice(None) if checked else invariant
            top = _top_ritz(alphas[ritz, :step], betas[ritz, : step - 1])
            settled = top - lam[ritz] <= _LANCZOS_TOL * top
            lam[ritz] = top
            stop = invariant | settled | (step == steps) if checked else invariant
            if stop.any():
                norms[rows[stop]] = np.sqrt(np.maximum(lam[stop], 0.0))
                if stop.all():
                    break
                keep = ~stop
                rows, basis, alphas, betas = rows[keep], basis[keep], alphas[keep], betas[keep]
                peak, lam, w, beta = peak[keep], lam[keep], w[keep], beta[keep]
        v = w / beta[:, np.newaxis]
    return norms


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_r . y_r for each row r, the BLAS dot that a 1-D `x @ y` takes."""
    return np.matmul(x[:, np.newaxis, :], y[:, :, np.newaxis])[:, 0, 0]


def _projection(span: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(S_r @ w_r) @ S_r for each row r: the two BLAS gemv calls that a 2-D S_r takes."""
    coefficients = np.matmul(span, w[:, :, np.newaxis]).swapaxes(1, 2)
    return np.matmul(coefficients, span)[:, 0]


def _top_ritz(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each symmetric tridiagonal of a stack, one stacked `eigvalsh`.

    `diag` is (count, k) and `off` (count, k - 1).  eigvalsh reads only the
    lower triangle: an off-diagonal placed above the diagonal would be
    ignored without any error.
    """
    count, k = diag.shape
    tridiagonal = np.zeros((count, k, k))
    i = np.arange(k)
    tridiagonal[:, i, i] = diag
    tridiagonal[:, i[1:], i[:-1]] = off
    return np.linalg.eigvalsh(tridiagonal)[:, -1]


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
