"""Tests for norms, eigenvalue sets, and the spectrum-union law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from oba_lab import (
    MatrixOperator,
    ProductElement,
    QuadratureRule,
    cluster_radius,
    eigenvalues,
    lower_toeplitz_norm,
    operator_norm,
    spectral_norm,
)
from oba_lab.spectral import spectral_norms
from oracle import (
    gelfand_radius,
    multiset_distance,
    product_spectrum,
    resolvent_at_identity,
    volterra_matrix,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def two_by_two_top_singular(a, b, c, d):
    """Independent closed form: largest root of the 2x2 singular-value quadratic."""
    gram_trace = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = math.sqrt(max(gram_trace**2 - 4 * det * det, 0.0))
    return math.sqrt((gram_trace + disc) / 2)


class TestSpectralNorm:
    def test_normal_diagonal(self):
        assert spectral_norm(MatrixOperator(np.diag([3.0, -4.0]))) == pytest.approx(4.0)

    def test_rank_one_nilpotent(self):
        assert spectral_norm(MatrixOperator(np.array([[0.0, 2.0], [0.0, 0.0]]))) == pytest.approx(
            2.0
        )

    def test_jordan_block_golden_ratio(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        closed_form = two_by_two_top_singular(1, 1, 0, 1)
        assert closed_form == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        brute_force = np.linalg.svd(m, compute_uv=False)[0]
        value = spectral_norm(MatrixOperator(m))
        assert value == pytest.approx(closed_form, rel=1e-10)
        assert value == pytest.approx(brute_force, rel=1e-12)

    @settings(max_examples=30)
    @given(seeds)
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9

    @settings(max_examples=30)
    @given(seeds)
    def test_normal_matrix_norm_is_spectral_radius(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (z + z.conj().T) / 2
        rho = np.abs(eigenvalues(h)).max()
        assert spectral_norm(h) == pytest.approx(rho, abs=1e-9)

    def test_lanczos_path_matches_dense_svd_real(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((600, 600))
        assert spectral_norm(a) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-11
        )

    def test_lanczos_path_matches_dense_svd_complex(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
        assert spectral_norm(a) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-11
        )

    def test_lanczos_path_zero_matrix(self):
        assert spectral_norm(np.zeros((600, 600))) == 0.0

    def test_operator_norm_runs_the_dense_lanczos_loop(self):
        a = np.random.default_rng(5).standard_normal((600, 600))
        assert operator_norm(600, lambda x: a @ x, lambda x: a.T @ x) == spectral_norm(a)
        # up to dim 512 the columns a @ e_j are exact, so the SVD sees a itself
        a = a[:64, :64].copy()
        assert operator_norm(64, lambda x: a @ x, lambda x: a.T @ x) == spectral_norm(a)

    @pytest.mark.parametrize("dim", [64, 600])
    def test_operator_norm_rejects_complex_operators(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        with pytest.raises(ValueError, match="real operators only"):
            operator_norm(dim, lambda x: a @ x, lambda x: a.conj().T @ x)

    def test_operator_norm_rejects_a_complex_transpose(self):
        a = np.random.default_rng(8).standard_normal((600, 600))
        with pytest.raises(ValueError, match="real operators only"):
            operator_norm(600, lambda x: a @ x, lambda x: (a.T @ x).astype(np.complex128))

    def test_operator_norm_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="at least 1"):
            operator_norm(0, lambda x: x, lambda x: x)


    @pytest.mark.parametrize("dim", [2, 64, 512, 513, 1024])
    def test_lower_toeplitz_norm_is_the_assembled_norm(self, dim):
        """Bitwise up to dim 512; above it FFT products against dense products."""
        # the column of (T - I)^3 on the left-endpoint grid, as `growth` norms it
        t = resolvent_at_identity(volterra_matrix(dim, QuadratureRule.LEFT_ENDPOINT))
        power = t.entries - np.eye(dim)
        growth_column = power @ (power @ power[:, 0])
        random_column = np.random.default_rng(dim).standard_normal(dim)
        for column in (growth_column, random_column):
            dense = spectral_norm(toeplitz(column, np.zeros(dim)))
            if dim <= 512:
                assert lower_toeplitz_norm(column) == dense
            else:
                assert lower_toeplitz_norm(column) == pytest.approx(dense, rel=1e-13, abs=0)

    @pytest.mark.parametrize("column", [[], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1j]])
    def test_lower_toeplitz_norm_rejects_a_non_vector(self, column):
        with pytest.raises(ValueError, match="nonempty real vector"):
            lower_toeplitz_norm(column)

    @pytest.mark.parametrize("dim", [2, 16, 513])
    def test_stacked_norms_are_the_per_matrix_norms_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        stack = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        assert spectral_norms(stack).tolist() == [spectral_norm(m) for m in stack]


class TestEigenvalues:
    def test_triangular_reads_diagonal(self):
        eigs = eigenvalues(MatrixOperator(np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert multiset_distance(eigs, [1, 1]) == 0.0

    def test_diagonal(self):
        eigs = eigenvalues(MatrixOperator(np.diag([2.0, 3.0])))
        assert multiset_distance(eigs, [2, 3]) == 0.0

    def test_dense_path_matches_characteristic_roots(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation: eigenvalues +-i
        assert multiset_distance(eigenvalues(m), [1j, -1j]) <= 1e-12


class TestProductSpectrum:
    def test_diagonal_with_scalar(self):
        x = ProductElement(MatrixOperator(np.diag([2.0, 3.0])), 5)
        assert multiset_distance(product_spectrum(x), [2, 3, 5]) == 0.0

    def test_unit(self):
        x = ProductElement(MatrixOperator.identity(2), 1)
        assert multiset_distance(product_spectrum(x), [1, 1, 1]) == 0.0

    @settings(max_examples=50)
    @given(seeds, st.integers(min_value=2, max_value=16))
    def test_matches_block_embedding(self, seed, dim):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        xi = complex(rng.standard_normal(), rng.standard_normal())
        x = ProductElement(MatrixOperator(mat), xi)
        block = np.zeros((dim + 1, dim + 1), dtype=complex)
        block[:dim, :dim] = mat
        block[dim, dim] = xi
        assert multiset_distance(product_spectrum(x), np.linalg.eigvals(block)) <= 1e-8


class TestClusterRadius:
    def test_concentrated(self):
        assert cluster_radius([1, 1, 1], 1) == 0.0

    def test_single_point(self):
        h = 1 / 16
        value = 1 / (1 + h / 2)
        assert cluster_radius([value], 1) == pytest.approx((h / 2) / (1 + h / 2), abs=1e-15)

    def test_spread(self):
        assert cluster_radius([2, 3, 5], 1) == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_radius([], 1)


class TestGelfandRadius:
    def test_nilpotent_truncates(self):
        values = gelfand_radius(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)
        assert values[0] == pytest.approx(1.0)
        assert values[1] == 0.0

    def test_identity_is_flat(self):
        assert np.allclose(gelfand_radius(np.eye(2), 5), 1.0)

    def test_scalar_matrix(self):
        assert np.allclose(gelfand_radius(np.array([[2.0]]), 3), 2.0)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            gelfand_radius(np.eye(2), 0)

    @settings(max_examples=10)
    @given(seeds)
    def test_converges_to_spectral_radius(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = np.abs(eigenvalues(a)).max()
        value = gelfand_radius(a, 64)[-1]
        assert abs(value - rho) <= 0.1 * rho + 1e-9


class TestMultisetDistance:
    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multiset_distance([1, 2], [1])

    def test_permutation_invariant(self):
        assert multiset_distance([1, 2, 3], [3, 1, 2]) == 0.0

    def test_reports_worst_pairing(self):
        assert multiset_distance([0.0, 1.0], [0.0, 1.5]) == pytest.approx(0.5)
