"""Dense matrix operators and the tolerance settings used by order predicates."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Real

import numpy as np


def _integer(name: str, value) -> int:
    """`value` as a Python int; a float or other non-integer is a TypeError naming `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _validated_square(entries) -> np.ndarray:
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return arr


@dataclass(frozen=True, eq=False)
class MatrixOperator:
    """Square matrix acting as a bounded operator, normed by its largest singular value.

    Entries are stored read-only (float64 for real input, complex128 otherwise),
    so instances can be shared freely between threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _validated_square(self.entries)  # a fresh C-ordered copy
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "MatrixOperator":
        return cls(np.eye(dim))

    def adjoint(self) -> "MatrixOperator":
        """Conjugate transpose."""
        return MatrixOperator(self.entries.conj().T)

    def __array__(self, dtype=None, copy=None):
        """The read-only entries, unless a dtype conversion or `copy=True` asks for a copy."""
        if dtype is None or np.dtype(dtype) == self.entries.dtype:
            return self.entries.copy() if copy else self.entries
        if copy is False:
            raise ValueError(f"converting the entries to {np.dtype(dtype)} needs a copy")
        return self.entries.astype(dtype)

    def __eq__(self, other):
        if not isinstance(other, MatrixOperator):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            np.array_equal(self.entries, other.entries)
        )

    __hash__ = None

    def __repr__(self):
        return f"MatrixOperator(dim={self.dim})"


@dataclass(frozen=True)
class ToleranceConfig:
    """Additive tolerance for order predicates, relative tolerance for norm identities."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not isinstance(value, Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


DEFAULT_TOLERANCE = ToleranceConfig()
