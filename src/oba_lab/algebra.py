"""Product algebra of (matrix, scalar) pairs with the max norm and its ice-cream order cone.

The cone consists of the pairs whose matrix part is dominated in norm by the
scalar part; it is proper, normal with constant 1, closed under products, and
contains the unit, so it induces a partial order on the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

from ._seeding import seeded_draws
from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig
from .spectral import spectral_norm, spectral_norms


@dataclass(frozen=True, eq=False)
class ProductElement:
    """Pair (op, scalar) with multiplication (A, x)(B, y) = (AB, xy) and norm max(||A||, |x|)."""

    op: MatrixOperator
    scalar: complex

    def __post_init__(self):
        if not isinstance(self.op, MatrixOperator):
            object.__setattr__(self, "op", MatrixOperator(self.op))
        value = complex(self.scalar)
        if not (np.isfinite(value.real) and np.isfinite(value.imag)):
            raise ValueError(f"scalar part must be finite, got {value}")
        object.__setattr__(self, "scalar", value)

    @property
    def dim(self) -> int:
        return self.op.dim

    def _check_dim(self, other: "ProductElement"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, ProductElement):
            return NotImplemented
        self._check_dim(other)
        return ProductElement(
            MatrixOperator(self.op.entries + other.op.entries), self.scalar + other.scalar
        )

    def __sub__(self, other):
        if not isinstance(other, ProductElement):
            return NotImplemented
        self._check_dim(other)
        return ProductElement(
            MatrixOperator(self.op.entries - other.op.entries), self.scalar - other.scalar
        )

    def __mul__(self, other):
        if isinstance(other, ProductElement):
            return prod_mul(self, other)
        if isinstance(other, Number):
            return ProductElement(MatrixOperator(self.op.entries * other), self.scalar * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return ProductElement(MatrixOperator(other * self.op.entries), other * self.scalar)
        return NotImplemented

    def __neg__(self):
        return ProductElement(MatrixOperator(-self.op.entries), -self.scalar)

    def __eq__(self, other):
        if not isinstance(other, ProductElement):
            return NotImplemented
        return self.scalar == other.scalar and self.op == other.op

    __hash__ = None

    def __repr__(self):
        return f"ProductElement(dim={self.dim}, scalar={self.scalar})"


def unit_element(dim: int) -> ProductElement:
    """The two-sided unit (I, 1)."""
    return ProductElement(MatrixOperator.identity(dim), 1.0)


def prod_mul(x: ProductElement, y: ProductElement) -> ProductElement:
    """Componentwise product (A, x)(B, y) = (AB, xy); dimensions must match."""
    x._check_dim(y)
    return ProductElement(MatrixOperator(x.op.entries @ y.op.entries), x.scalar * y.scalar)


def prod_norm(x: ProductElement) -> float:
    """max(||A||, |scalar|), the algebra norm."""
    return max(spectral_norm(x.op), abs(x.scalar))


def prod_involution(x: ProductElement) -> ProductElement:
    """(A, x) -> (A^H, conj(x)); applying it twice gives back the argument exactly."""
    return ProductElement(x.op.adjoint(), np.conj(x.scalar))


def membership_slack(norm, scalar, tol: ToleranceConfig):
    """Margin of the cone test for a pair whose matrix part has the given norm.

    Nonnegative iff the scalar is essentially real and norm <= Re(scalar).
    Both comparisons carry the additive abs_tol, since exact realness is
    unattainable after float products.  Works elementwise on arrays of norms
    and scalars as well.
    """
    return np.minimum(tol.abs_tol - np.abs(np.imag(scalar)), np.real(scalar) + tol.abs_tol - norm)


def cone_slack(x: ProductElement, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> float:
    """How far x sits inside the order cone (negative: outside), with one norm evaluation."""
    return float(membership_slack(spectral_norm(x.op), x.scalar, tol))


def cone_contains(x: ProductElement, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Membership in the order cone: scalar essentially real and ||A|| <= Re(scalar)."""
    return cone_slack(x, tol) >= 0


def cone_leq(
    x: ProductElement, y: ProductElement, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> bool:
    """Order predicate x <= y, i.e. y - x lies in the cone."""
    return cone_contains(y - x, tol)


def geq_unit(x: ProductElement, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether x dominates the unit (I, 1) in the cone order."""
    return cone_leq(unit_element(x.dim), x, tol)


def random_cone_element(seed: int, dim: int, scale: float) -> ProductElement:
    """Seeded random cone member with norms bounded by `scale`.

    The matrix part is complex Gaussian rescaled to a random norm in
    [0, scale]; the scalar is drawn uniformly between that norm and scale, so
    the cone boundary (scalar = ||A||), where the order predicates are
    sharpest, gets covered.  Deterministic for a fixed seed; the one-element
    case of `random_cone_stack`.
    """
    mats, scalars, _ = random_cone_stack([seed], dim, scale)
    return ProductElement(MatrixOperator(mats[0]), complex(scalars[0]))


def random_cone_stack(seeds, dim: int, scales) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded random cone members of one dimension, one per seed, as stacked arrays.

    Element i is `random_cone_element(seeds[i], dim, scales[i])` bit for bit,
    from the `seeded_draws` row of seeds[i]: 2 dim^2 normals (the real, then
    the imaginary parts) and two uniforms (the norm, then the scalar
    fraction).  `scales` is one scale or one per seed.  Returns the
    (count, dim, dim) matrix parts, the real scalar parts, and the spectral
    norm of each matrix part.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    count = len(seeds)
    scales = np.broadcast_to(np.asarray(scales, dtype=np.float64), (count,))
    bad = ~(np.isfinite(scales) & (scales >= 0))
    if bad.any():
        raise ValueError(f"scale must be finite and nonnegative, got {scales[bad][0]}")
    normals, fractions = seeded_draws(seeds, 2 * dim * dim, 2)
    normals = normals.reshape(count, 2, dim, dim)
    raw = normals[:, 0] + 1j * normals[:, 1]
    norm_fraction, scalar_fraction = fractions.T
    raw_norms = spectral_norms(raw)
    # scale 0 and a zero draw both give a zero matrix part
    live = (scales > 0) & (raw_norms > 0)
    raw[~live] = 0.0
    factor = np.divide(norm_fraction * scales, raw_norms, out=np.zeros(count), where=live)
    mats = raw * factor[:, np.newaxis, np.newaxis]
    norms = spectral_norms(mats)
    over = norms > scales  # one-ulp safety, essentially unreachable
    if over.any():
        mats[over] = mats[over] * (scales[over] / norms[over])[:, np.newaxis, np.newaxis]
        norms[over] = spectral_norms(mats[over])
    scalars = np.minimum(norms + scalar_fraction * (scales - norms), scales)
    return mats, scalars, norms
