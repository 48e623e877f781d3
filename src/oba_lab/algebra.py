"""Product algebra of (matrix, scalar) pairs with the max norm and its ice-cream order cone.

The cone consists of the pairs whose matrix part is dominated in norm by the
scalar part; it is proper, normal with constant 1, closed under products, and
contains the unit, so it induces a partial order on the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig
from .spectral import spectral_norm


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


def membership_slack(norm: float, scalar: complex, tol: ToleranceConfig) -> float:
    """Margin of the cone test for a pair whose matrix part has the given norm.

    Nonnegative iff the scalar is essentially real and norm <= Re(scalar).
    Both comparisons carry the additive abs_tol, since exact realness is
    unattainable after float products.
    """
    return min(tol.abs_tol - abs(scalar.imag), scalar.real + tol.abs_tol - norm)


def cone_slack(x: ProductElement, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> float:
    """How far x sits inside the order cone (negative: outside), with one norm evaluation."""
    return membership_slack(spectral_norm(x.op), x.scalar, tol)


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
    sharpest, gets covered.  Deterministic for a fixed seed.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not np.isfinite(scale) or scale < 0:
        raise ValueError(f"scale must be finite and nonnegative, got {scale}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    norm_fraction = rng.uniform()
    scalar_fraction = rng.uniform()
    if scale == 0.0:
        return ProductElement(MatrixOperator.zeros(dim), 0.0)
    raw_norm = spectral_norm(raw)
    if raw_norm == 0.0:
        return ProductElement(MatrixOperator.zeros(dim), complex(scalar_fraction * scale))
    mat = raw * (norm_fraction * scale / raw_norm)
    norm = spectral_norm(mat)
    if norm > scale:  # one-ulp safety, essentially unreachable
        mat = mat * (scale / norm)
        norm = spectral_norm(mat)
    xi = norm + scalar_fraction * (scale - norm)
    return ProductElement(MatrixOperator(mat), complex(min(xi, scale)))
