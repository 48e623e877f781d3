"""Spectral computations: operator norms, eigenvalues and their spread about a center.

A dense matrix, or each matrix of a stack, is normed as the square root of
the top eigenvalue of its Gram matrix A^H A, one stacked Hermitian
eigensolve for the whole stack.  Each matrix is first scaled by the power of
two of its largest real or imaginary part, which is exact and keeps the Gram
matrix clear of overflow and underflow at any finite scale.  The `growth`
powers, lower-triangular Toeplitz matrices given by their first columns, are
normed by power iteration on FFT products, in stacks: their Gram matrices
are entrywise positive, so the iteration converges fast by Perron-Frobenius,
and a stack makes one FFT call per step for all its columns.
"""

from __future__ import annotations

import numpy as np

# numpy 2 loads its fft submodule lazily, on first attribute access; importing
# it here keeps that cost (about 10 ms) out of the first norm.
from numpy.fft import irfft, rfft

from .errors import ComputationError
from .operators import _validated_square

# perfbench/tracer.py reads this name to split its `spectral_norm` metrics by
# dimension; a traced benchmark pass raises AttributeError without it.  Every
# dimension takes the Gram eigenvalue path, so the split no longer marks a
# change of method.
_SVD_MAX_DIM = 512
# A power-iteration norm stops once its estimate grows by at most this much,
# relative, in one step.
_POWER_TOL = 1e-15
# The power-iteration steps a Toeplitz norm may take before it raises
# ComputationError.  Every growth power measured settles within 14 (n = 2..160,
# 200, 333, 512 and 1000 at k_max = n - 1, 2048/512, 4096/64); the cap stands
# in for the silent lower bound an unsettled estimate would be.
_POWER_STEPS = 64


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


def _lower_toeplitz_norms(columns: np.ndarray, powers) -> np.ndarray:
    """Norms of the lower-triangular Toeplitz matrices whose first columns are the rows of a block.

    `columns` is a (count, n) block of real, finite rows, each of one sign
    as every `growth` column is (a zero row gives 0); `powers` gives the power k
    of each row, which the step-cap error names.  The products with each
    matrix A and its transpose are row-wise FFT convolution and correlation
    at the first power of two of at least 2n - 1, so no wraparound occurs.
    No matrix is formed.

    Each norm is the square root of the top eigenvalue of A^T A, by power
    iteration from the uniform vector x: each step takes G x = A^T A x and
    its norm theta, an estimate that grows toward the top eigenvalue, and
    sets x = G x / theta.  A column of one sign makes G entrywise positive,
    so by Perron-Frobenius its top eigenvalue is simple and the uniform start
    is not orthogonal to its eigenvector; the growth powers' wide spectral
    gaps settle every estimate within a few steps.  A row stops, and leaves
    the stack, once theta grows by at most `_POWER_TOL` relative in a step.
    A row still running after `_POWER_STEPS` steps raises ComputationError
    naming its power, as does a NaN or infinity, which never settles.  A
    row's arithmetic is the same FFT calls and row sums it makes alone, so
    each norm is bitwise its value as a block of one.  The caller sets the
    stack size by the memory it allows: a stack holds a few (count, n)
    blocks and their spectra.
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

    rows = np.arange(count)
    norms = np.empty(count)
    x = np.full((count, n), n**-0.5)
    theta = np.zeros(count)
    for _ in range(_POWER_STEPS):
        gram_x = product(conjugates, product(symbols, x))
        grown = np.sqrt((gram_x * gram_x).sum(axis=1))
        settled = grown - theta <= _POWER_TOL * grown
        theta = grown
        if settled.any():
            norms[rows[settled]] = np.sqrt(theta[settled])
            keep = ~settled
            if not keep.any():
                return norms
            rows, theta, gram_x = rows[keep], theta[keep], gram_x[keep]
            symbols, conjugates = symbols[keep], conjugates[keep]
        x = gram_x / theta[:, np.newaxis]
    unsettled = ", ".join(str(powers[row]) for row in rows)
    raise ComputationError(
        f"the norm of power k = {unsettled} did not settle in {_POWER_STEPS} power-iteration steps"
    )


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
