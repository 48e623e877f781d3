"""Finite-dimensional rigidity: a norm-one matrix with spectrum {1} must be the identity.

The mechanism is a trace bound: for A = I + N with N strictly nilpotent, the
largest eigenvalue of A^H A is at least its average, 1 + ||N||_F^2 / dim, so
any nonzero nilpotent part pushes the norm strictly above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeding import seeded_generators
from .errors import ComputationError, PreconditionError
from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig, _validated_square
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

    Each matrix is drawn and rescaled exactly as the one-element case does,
    from a generator that starts in the state `default_rng(seeds[i])` starts
    in; `scales` is one scale or one per seed.
    """
    if dim < 2:
        raise ValueError(f"dim must be at least 2 for a nonzero strict triangle, got {dim}")
    count = len(seeds)
    scales = np.broadcast_to(np.asarray(scales, dtype=np.float64), (count,))
    bad = ~(np.isfinite(scales) & (scales > 0))
    if bad.any():
        raise ValueError(f"scale must be positive and finite, got {scales[bad][0]}")
    rows, cols = np.triu_indices(dim, 1)
    values = np.empty((count, rows.size), dtype=np.complex128)
    for i, (rng, scale) in enumerate(zip(seeded_generators(seeds), scales.tolist())):
        draw = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        peak_fraction = rng.uniform(0.6, 1.0)
        peak = np.abs(draw).max()
        if peak == 0.0:  # measure-zero draw; keep the contract anyway
            draw[0] = 1.0
            peak = 1.0
        values[i] = draw * (peak_fraction * scale / peak)
    mats = np.zeros((count, dim, dim), dtype=np.complex128)
    mats[:, rows, cols] = values
    return mats


def random_unitary(seed: int, dim: int) -> MatrixOperator:
    """Seeded Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    return MatrixOperator(random_unitary_stack([seed], dim)[0])


def random_unitary_stack(seeds, dim: int) -> np.ndarray:
    """(count, dim, dim) stack whose matrix i is `random_unitary(seeds[i], dim)`, one stacked QR.

    Matrix i is drawn from a generator that starts in the state
    `default_rng(seeds[i])` starts in.
    """
    z = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    for i, rng in enumerate(seeded_generators(seeds)):
        z[i] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
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


def check_rigidity(a: MatrixOperator, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> RigidityVerdict:
    """Enforce the rigidity hypotheses, then require the element to be the identity.

    Raises ValueError, naming the clause, unless `a` is a nonempty square
    matrix of finite entries (checked by `eigenvalues` before anything else).
    Raises PreconditionError naming the failed clause when the spectrum is not
    concentrated at 1 (within abs_tol) or the norm exceeds 1 + abs_tol.  When
    both hypotheses hold but the matrix still differs from I beyond abs_tol
    (possible only in a narrow float boundary band, since no quantitative
    stability law is claimed), raises ComputationError rather than passing.
    The norm clause reads the norm excess of the returned verdict, so ||A||
    is computed once.
    """
    radius = cluster_radius(eigenvalues(a), 1.0)
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
    if not verdict.is_identity:
        raise ComputationError(
            f"rigidity dichotomy violated at tolerance {tol.abs_tol:.1e}: "
            f"deviation from identity is {verdict.deviation:.6e}"
        )
    return verdict
