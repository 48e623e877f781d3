"""Finite-dimensional rigidity: a norm-one matrix with spectrum {1} must be the identity.

The mechanism is a trace bound: for A = I + N with N strictly nilpotent, the
largest eigenvalue of A^H A is at least its average, 1 + ||N||_F^2 / dim, so
any nonzero nilpotent part pushes the norm strictly above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeding import seeded_draws
from .errors import ComputationError, PreconditionError
from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig, _integer, _validated_square
from .spectral import cluster_radius, eigenvalues, spectral_norms


@dataclass(frozen=True)
class RigidityVerdict:
    """Measured gaps of a candidate: norm above 1, distance from I, and the identity call."""

    norm_excess: float
    deviation: float
    is_identity: bool


def random_strict_nilpotent(seed: int, dim: int, scale: float) -> MatrixOperator:
    """Seeded strictly upper triangular matrix with peak entry modulus in [scale/2, scale].

    Entries are complex Gaussian rescaled so the largest modulus lands in
    [0.6, 1.0) * scale; every output is nilpotent of index at most dim.  The
    one-element case of `random_strict_nilpotent_stack`.
    """
    return MatrixOperator(random_strict_nilpotent_stack([seed], dim, scale)[0])


def random_strict_nilpotent_stack(seeds, dim: int, scales) -> np.ndarray:
    """(count, dim, dim) stack: matrix i is `random_strict_nilpotent(seeds[i], dim, scales[i])`.

    Matrix i comes from the `seeded_draws` row of seeds[i]: the real, then
    the imaginary parts of its strict upper triangle, and one uniform for its
    peak fraction.  The rescaling runs over the whole stack, elementwise, so
    each matrix is bitwise the one-element case.  `scales` is one scale or
    one per seed.
    """
    dim = _integer("dim", dim)
    if dim < 2:
        raise ValueError(f"dim must be at least 2 for a nonzero strict triangle, got {dim}")
    count = len(seeds)
    scales = np.broadcast_to(np.asarray(scales, dtype=np.float64), (count,))
    bad = ~(np.isfinite(scales) & (scales > 0))
    if bad.any():
        raise ValueError(f"scale must be positive and finite, got {scales[bad][0]}")
    rows, cols = np.triu_indices(dim, 1)
    normals, fractions = seeded_draws(seeds, 2 * rows.size, 1)
    values = normals[:, : rows.size] + 1j * normals[:, rows.size :]
    peaks = np.abs(values).max(axis=1)
    zero = peaks == 0.0  # measure-zero draw; keep the contract anyway
    values[zero, 0] = 1.0
    peaks[zero] = 1.0
    # bitwise uniform(0.6, 1.0) on the same draw (see `seeded_draws`)
    peak_fractions = 0.6 + (1.0 - 0.6) * fractions[:, 0]
    values *= (peak_fractions * scales / peaks)[:, np.newaxis]
    mats = np.zeros((count, dim, dim), dtype=np.complex128)
    mats[:, rows, cols] = values
    return mats


def random_unitary(seed: int, dim: int) -> MatrixOperator:
    """Seeded Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    return MatrixOperator(random_unitary_stack([seed], dim)[0])


def random_unitary_stack(seeds, dim: int) -> np.ndarray:
    """(count, dim, dim) stack whose matrix i is `random_unitary(seeds[i], dim)`, one stacked QR.

    Matrix i comes from the `seeded_draws` row of seeds[i]: the real, then
    the imaginary parts.
    """
    dim = _integer("dim", dim)
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    normals = seeded_draws(seeds, 2 * dim * dim)[0].reshape(-1, 2, dim, dim)
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def rigidity_gap(a: MatrixOperator, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> RigidityVerdict:
    """Norm excess and deviation from the identity, with no spectrum assumption.

    Raises ValueError naming the clause unless `a` is a nonempty finite square matrix.
    """
    arr = _validated_square(a)
    norm_excess, deviation = (float(gap[0]) for gap in rigidity_gaps(arr[np.newaxis]))
    return RigidityVerdict(
        norm_excess=norm_excess,
        deviation=deviation,
        is_identity=deviation <= tol.abs_tol,
    )


def rigidity_gaps(stack) -> tuple[np.ndarray, np.ndarray]:
    """Norm excess ||A|| - 1 and deviation ||A - I|| of each matrix in a (count, dim, dim) stack."""
    m = np.asarray(stack)
    return spectral_norms(m) - 1.0, spectral_norms(m - np.eye(m.shape[-1]))


def _linear_law_constant(dim: int) -> float:
    """c_d = csc(pi/(4d - 2)): ||N|| <= c_d (||I + N|| - 1) for N nilpotent in dimension d.

    Triangularize N unitarily (Schur form); ||I + N|| >= 1 + lam, with lam the
    top eigenvalue of Re N = (N + N^H)/2.  If lam <= 0, Re N is negative
    semidefinite with zero trace, so Re N = 0 and N = 0.  Otherwise
    P = I - Re N / lam is positive semidefinite with unit diagonal and
    N = 2 triu(Re N) = -2 lam (P o U_d), with U_d the strictly upper all-ones
    matrix and o the entrywise product, so ||N|| <= 2 lam ||U_d|| (Schur 1911;
    Horn-Johnson, Topics in Matrix Analysis, 1991, section 5.5).  The inverse
    of U_d's nonzero block is the bidiagonal difference matrix, whose Gram
    matrix has least eigenvalue 4 sin^2(pi/(4d - 2)): 2 ||U_d|| = c_d, and
    I - t U_d reaches c_d as t -> 0, so no smaller constant holds.
    """
    return 1.0 / math.sin(math.pi / (4 * dim - 2))


def check_rigidity(a: MatrixOperator, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> RigidityVerdict:
    """Enforce the rigidity hypotheses, then check the deviation from I against its law.

    Raises ValueError, naming the clause, unless `a` is a nonempty square
    matrix of finite entries (checked by `eigenvalues` before anything else).
    Raises PreconditionError naming the failed clause when the spectrum is not
    concentrated at 1 (within abs_tol) or the norm exceeds 1 + abs_tol.  The
    norm clause reads the norm excess of the returned verdict, so ||A|| is
    computed once.

    When the spectrum is exactly {1} (as `eigenvalues` reads it off a
    triangular diagonal), A = I + N with N nilpotent, and the linear law
    ||A - I|| <= c_d (||A|| - 1) holds in dimension d with its least
    constant c_d = csc(pi/(4d - 2)) (`_linear_law_constant`).  The verdict is
    returned unless the deviation exceeds c_d times the nonnegative part of
    the norm excess plus a rounding margin of 4 d eps (1 + excess) for the two
    Gram-eigenvalue norms; its `is_identity` stays deviation <= abs_tol.

    The margin holds because the law is checked only after the norm clause
    has passed: the true excess is then at most about abs_tol, so by the law
    itself A = I + N with ||N||_F small, and |A| is within ||N||_F of I.
    Forming A^H A then errs by about d eps rather than the general d^2 eps,
    and with the eigensolver's backward error ||A||, hence the excess, is
    within about 2 d eps (1 + excess) of its value.  ||A - I|| errs by at
    most (d + 1)^2 eps relative, by the law at most c_d (d + 1)^2 eps times
    the excess: far below the margin's share while the excess is about abs_tol.

    For a spectrum only within abs_tol of 1 no perturbed law is derived: a
    deviation beyond abs_tol raises ComputationError, as it does when the law
    fails.
    """
    eigs = eigenvalues(a)
    radius = cluster_radius(eigs, 1.0)
    if radius > tol.abs_tol:
        raise PreconditionError(
            f"spectrum clause failed: eigenvalue cluster radius about 1 is "
            f"{radius:.6e}, above abs_tol {tol.abs_tol:.1e}"
        )
    verdict = rigidity_gap(a, tol)
    if verdict.norm_excess > tol.abs_tol:
        raise PreconditionError(
            f"norm clause failed: spectral norm {1.0 + verdict.norm_excess:.12f} exceeds "
            f"1 + abs_tol {tol.abs_tol:.1e}"
        )
    if radius == 0.0:
        dim = eigs.size
        excess = max(verdict.norm_excess, 0.0)
        margin = 4 * dim * np.finfo(np.float64).eps * (1.0 + excess)
        allowed = _linear_law_constant(dim) * (excess + margin)
        if verdict.deviation > allowed:
            raise ComputationError(
                f"rigidity law violated: deviation from identity is {verdict.deviation:.6e}, "
                f"above c_d (norm excess + margin) = {allowed:.6e} at d = {dim}"
            )
    elif not verdict.is_identity:
        raise ComputationError(
            f"rigidity dichotomy violated at tolerance {tol.abs_tol:.1e}: "
            f"deviation from identity is {verdict.deviation:.6e}"
        )
    return verdict
