"""Unit and property tests for the product algebra and its order cone."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oba_lab import (
    MatrixOperator,
    ProductElement,
    ToleranceConfig,
    cone_contains,
    cone_leq,
    cone_slack,
    geq_unit,
    prod_involution,
    prod_mul,
    prod_norm,
    random_cone_element,
    spectral_norm,
    unit_element,
)
from oba_lab.algebra import random_cone_stack

TOL = ToleranceConfig()

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=1, max_value=6)
scales = st.floats(min_value=0.25, max_value=4.0)


def elem(matrix_rows, scalar):
    return ProductElement(MatrixOperator(np.array(matrix_rows)), scalar)


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatrixOperator(np.zeros((2, 3)))

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError):
            MatrixOperator(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_infinite_scalar(self):
        with pytest.raises(ValueError):
            elem([[1.0]], np.inf)

    def test_entries_are_read_only(self):
        op = MatrixOperator.identity(2)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    @pytest.mark.parametrize(
        "source",
        [
            np.arange(9.0).reshape(3, 3),
            np.arange(9.0).reshape(3, 3).T,  # Fortran-ordered
            np.arange(9).reshape(3, 3) * (1 + 1j),
            np.arange(9).reshape(3, 3),
        ],
    )
    def test_entries_are_a_private_c_ordered_copy(self, source):
        op = MatrixOperator(source)
        assert not op.entries.flags.writeable
        assert op.entries.flags.c_contiguous
        assert not np.shares_memory(op.entries, source)
        source[0, 1] = 7
        assert op.entries[0, 1] != 7

    def test_array_protocol_takes_the_copy_keyword(self):
        op = MatrixOperator(np.arange(4.0).reshape(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = np.array(op)
            assert fresh.flags.writeable and not np.shares_memory(fresh, op.entries)
            assert np.asarray(op) is op.entries
            converted = np.asarray(op, dtype=complex)
            assert converted.dtype == np.complex128 and np.array_equal(converted, op.entries)
            assert np.array(op, copy=False) is op.entries
            with pytest.raises(ValueError, match="needs a copy"):
                np.array(op, dtype=complex, copy=False)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            ToleranceConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            ToleranceConfig(rel_tol=np.inf)

    @pytest.mark.parametrize(("field", "value"), [("abs_tol", "1e-9"), ("rel_tol", None)])
    def test_non_numeric_tolerance_is_a_type_error_naming_the_field(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be a real number, got {value!r}"):
            ToleranceConfig(**{field: value})


class TestProductOps:
    def test_mul_scalar_matrices(self):
        x = elem(2 * np.eye(2), 3)
        y = elem(np.eye(2), 4)
        assert prod_mul(x, y) == elem(2 * np.eye(2), 12)

    def test_unit_is_left_identity(self):
        x = elem([[1.5, 2.0], [0.0, -1.0]], 2 - 1j)
        assert prod_mul(unit_element(2), x) == x
        assert prod_mul(x, unit_element(2)) == x

    def test_nilpotent_squares_to_zero(self):
        x = elem([[0.0, 1.0], [0.0, 0.0]], 0)
        assert prod_mul(x, x) == elem(np.zeros((2, 2)), 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            prod_mul(unit_element(2), unit_element(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            cone_leq(unit_element(2), unit_element(3))

    def test_norm_diagonal(self):
        assert prod_norm(elem(np.diag([3.0, 1.0]), 2)) == pytest.approx(3.0)

    def test_norm_zero_matrix(self):
        assert prod_norm(elem(np.zeros((2, 2)), -5j)) == pytest.approx(5.0)

    def test_norm_unit(self):
        assert prod_norm(unit_element(2)) == pytest.approx(1.0)

    def test_involution_conjugate_transposes(self):
        x = elem([[0.0, 1.0], [0.0, 0.0]], 1 + 1j)
        assert prod_involution(x) == elem([[0.0, 0.0], [1.0, 0.0]], 1 - 1j)

    def test_involution_fixes_unit(self):
        assert prod_involution(unit_element(2)) == unit_element(2)

    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_involution_is_involutive(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        assert prod_involution(prod_involution(x)) == x


class TestConePredicates:
    def test_unit_in_cone(self):
        assert cone_contains(unit_element(2), TOL)

    def test_identity_with_small_scalar_outside(self):
        assert not cone_contains(elem(np.eye(2), 0.5), TOL)

    def test_zero_below_unit(self):
        assert cone_leq(elem(np.zeros((2, 2)), 0), unit_element(2), TOL)

    def test_order_reflexive(self):
        x = elem([[1.0, 2.0], [3.0, 4.0]], 7)
        assert cone_leq(x, x, TOL)

    def test_doubled_unit_dominates_unit(self):
        assert geq_unit(elem(2 * np.eye(2), 2), TOL)
        assert geq_unit(unit_element(2), TOL)

    def test_complex_scalar_outside(self):
        assert not cone_contains(elem(np.zeros((2, 2)), 1j), TOL)

    # abs_tol, the norm 1.5 and the boundary scalar 1.25 are exact binary fractions
    @pytest.mark.parametrize(
        "scalar, inside",
        [
            (1.25, True),  # ||A|| == Re(scalar) + abs_tol exactly
            (np.nextafter(1.25, 2.0), True),
            (np.nextafter(1.25, 0.0), False),
            (complex(2.0, 0.25), True),  # |Im(scalar)| == abs_tol exactly
            (complex(2.0, -0.25), True),
            (complex(2.0, np.nextafter(0.25, 1.0)), False),
            (-1.0, False),
        ],
    )
    def test_slack_sign_is_membership_on_the_boundary(self, scalar, inside):
        tol = ToleranceConfig(abs_tol=0.25)
        x = elem(np.diag([1.5, -0.5]), scalar)
        assert spectral_norm(x.op) == 1.5
        assert cone_contains(x, tol) == (cone_slack(x, tol) >= 0) == inside


class TestRandomConeElement:
    def test_zero_scale_forces_origin(self):
        x = random_cone_element(7, 2, 0.0)
        assert x == elem(np.zeros((2, 2)), 0)

    @settings(max_examples=100)
    @given(seeds, dims, scales)
    def test_outputs_are_members(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        assert cone_contains(x, TOL)
        assert x.scalar.imag == 0.0
        assert x.scalar.real <= scale

    def test_deterministic_per_seed(self):
        assert random_cone_element(99, 4, 2.0) == random_cone_element(99, 4, 2.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_cone_element(1, 0, 1.0)
        with pytest.raises(ValueError):
            random_cone_element(1, 2, -1.0)

    @pytest.mark.parametrize(
        "draw",
        [lambda dim: random_cone_element(1, dim, 1.0), lambda dim: random_cone_stack([1, 2], dim, 1.0)],
        ids=["random_cone_element", "random_cone_stack"],
    )
    def test_non_integer_dim_is_a_type_error_naming_it(self, draw):
        with pytest.raises(TypeError, match="dim must be an integer, got 3.0"):
            draw(3.0)


class TestConeAxioms:
    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_additivity(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        y = random_cone_element(seed + 1, dim, scale)
        assert cone_contains(x + y, TOL)

    @settings(max_examples=50)
    @given(seeds, dims, scales, st.floats(min_value=0.0, max_value=100.0))
    def test_positive_scaling(self, seed, dim, scale, lam):
        x = random_cone_element(seed, dim, scale)
        assert cone_contains(lam * x, TOL)

    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_multiplicativity(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        y = random_cone_element(seed + 1, dim, scale)
        assert cone_contains(prod_mul(x, y), TOL)

    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_properness(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        if prod_norm(x) > TOL.abs_tol:
            assert not cone_contains(-x, TOL)

    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_normality_with_constant_one(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        k = random_cone_element(seed + 1, dim, scale)
        y = x + k
        zero = ProductElement(MatrixOperator(np.zeros((dim, dim))), 0)
        assert cone_leq(zero, x, TOL) and cone_leq(x, y, TOL)
        assert prod_norm(x) <= prod_norm(y) + TOL.abs_tol

    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_ice_cream_equivalence(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        for candidate in (x, ProductElement(x.op, x.scalar - scale - 1.0)):
            member = cone_contains(candidate, TOL)
            norm_bounded = (
                abs(candidate.scalar.imag) <= TOL.abs_tol
                and prod_norm(candidate) <= candidate.scalar.real + TOL.abs_tol
            )
            assert member == norm_bounded

    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_cstar_identity(self, seed, dim, scale):
        rng = np.random.default_rng(seed)
        mat = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
        x = ProductElement(MatrixOperator(mat), complex(rng.standard_normal(), rng.standard_normal()))
        square = prod_norm(x) ** 2
        assert abs(prod_norm(prod_mul(prod_involution(x), x)) - square) <= TOL.rel_tol * square

    @settings(max_examples=10)
    @given(seeds, dims, scales)
    def test_membership_survives_limits(self, seed, dim, scale):
        # closedness stand-in: a sequence of members converging to x stays in
        # the cone, and so does its limit, under the same tolerance
        x = random_cone_element(seed, dim, scale)
        u = random_cone_element(seed + 1, dim, scale)
        for j in range(0, 40, 4):
            assert cone_contains(x + (2.0**-j) * u, TOL)
        assert cone_contains(x, TOL)


class TestAlgebraLaws:
    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_associativity(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        y = random_cone_element(seed + 1, dim, scale)
        z = random_cone_element(seed + 2, dim, scale)
        left = prod_mul(prod_mul(x, y), z)
        right = prod_mul(x, prod_mul(y, z))
        assert np.allclose(left.op.entries, right.op.entries, atol=1e-12)
        assert left.scalar == pytest.approx(right.scalar)

    @settings(max_examples=50)
    @given(seeds, dims, scales)
    def test_norm_submultiplicative(self, seed, dim, scale):
        x = random_cone_element(seed, dim, scale)
        y = random_cone_element(seed + 1, dim, scale)
        assert prod_norm(prod_mul(x, y)) <= prod_norm(x) * prod_norm(y) + TOL.abs_tol
