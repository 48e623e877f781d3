"""Tests for norms, eigenvalue sets, and the spectrum-union law."""

import math
import re

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
    growth_diagnostic,
    spectral_norm,
)
from oba_lab import spectral
from oba_lab.errors import ComputationError
from oba_lab.spectral import spectral_norms
from oba_lab.volterra import _resolvent_matvecs
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


EPS = np.finfo(np.float64).eps


def within_the_stated_bound(norm, svd, dim):
    """`spectral_norms`' documented forward error, (dim + 1)^2 eps relative, against the SVD."""
    return abs(norm - svd) <= (dim + 1) ** 2 * EPS * svd


def random_matrix(seed, dim, complex_input):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return a + 1j * rng.standard_normal((dim, dim)) if complex_input else a


class TestGramNorm:
    """The dense kernel: the top eigenvalue of a Gram matrix scaled by a power of two."""

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
    def test_far_scales_keep_the_range_of_the_svd(self, scale, complex_input):
        """Unscaled, the Gram matrix overflows to inf at 1e200 and underflows to 0 below 1e-162."""
        a = random_matrix(7, 5, complex_input) * scale
        svd = np.linalg.svd(a, compute_uv=False)[0]
        assert within_the_stated_bound(spectral_norm(a), svd, 5)
        # a real diagonal comes back exactly: the Gram entries are squares and
        # sqrt(fl(x * x)) == |x| in binary floating point
        diagonal = np.diag([3.0, -0.5, 2.0]) * scale
        assert spectral_norm(diagonal) == np.linalg.svd(diagonal, compute_uv=False)[0]
        assert spectral_norm(np.eye(4) * scale) == scale

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise_value_error(self, bad, complex_input):
        a = random_matrix(3, 4, complex_input)
        if complex_input:
            a[2, 1] = complex(a[2, 1].real, bad)
        else:
            a[2, 1] = bad
        with pytest.raises(ValueError, match="must be finite for a norm"):
            spectral_norm(a)
        stack = np.stack([random_matrix(4, 4, complex_input), a])
        with pytest.raises(ValueError, match="must be finite for a norm"):
            spectral_norms(stack)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_identity_and_zero_are_exact(self, dim):
        for dtype in (np.float64, np.complex128):
            assert spectral_norm(np.eye(dim, dtype=dtype)) == 1.0
            assert spectral_norm(np.zeros((dim, dim), dtype=dtype)) == 0.0

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_within_the_stated_bound_of_the_svd(self, dim, complex_input):
        stack = np.stack([random_matrix(seed, dim, complex_input) for seed in range(64)])
        svd = np.linalg.svd(stack, compute_uv=False)[:, 0]
        for norm, reference in zip(spectral_norms(stack).tolist(), svd.tolist()):
            assert within_the_stated_bound(norm, reference, dim)

    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_stack_is_bitwise_the_one_element_result(self, dim):
        """Blocks of 1 and 128, the suites' block size, across scales and a zero matrix."""
        scales = np.resize([1.0, 1e200, 1e-300, 3.5, 0.0], 128)
        stack = np.stack(
            [random_matrix(seed, dim, True) * scale for seed, scale in enumerate(scales)]
        )
        singles = [spectral_norm(m) for m in stack]
        assert spectral_norms(stack).tolist() == singles
        assert [float(spectral_norms(stack[i : i + 1])[0]) for i in range(128)] == singles


class TestSpectralNorm:
    @pytest.mark.parametrize(
        "bad",
        [np.zeros(3), np.zeros((0, 0)), np.zeros((2, 3)), np.zeros((1, 2, 2))],
        ids=["1-d", "empty", "non-square", "3-d"],
    )
    def test_rejects_anything_but_a_nonempty_square_matrix(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {bad.shape}")):
            spectral_norm(bad)

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

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_dense_norm_is_within_its_bound_of_the_svd_above_512(self, complex_input):
        rng = np.random.default_rng(513)
        a = rng.standard_normal((513, 513))
        if complex_input:
            a = a + 1j * rng.standard_normal((513, 513))
        svd = np.linalg.svd(a, compute_uv=False)[0]
        assert within_the_stated_bound(spectral_norm(a), svd, 513)
        assert spectral_norm(MatrixOperator(a)) == spectral_norm(a)

    @pytest.mark.parametrize("dim", [2, 16, 513])
    def test_stacked_norms_are_the_per_matrix_norms_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        stack = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        assert spectral_norms(stack).tolist() == [spectral_norm(m) for m in stack]


def toeplitz_norm(column, k=1):
    """`spectral._lower_toeplitz_norms` as a block of one."""
    return float(spectral._lower_toeplitz_norms(np.asarray(column, dtype=float)[np.newaxis], [k])[0])


def left_powers(n, count):
    """The first columns of (T_n - I)^k, k = 1..count, on the left-endpoint grid,
    each scaled to a largest magnitude of 1 as `growth` scales them."""
    left, _ = _resolvent_matvecs(n, QuadratureRule.LEFT_ENDPOINT)
    power, columns = np.eye(n)[0], []
    for _ in range(count):
        power = left(power) - power
        columns.append(power / np.abs(power).max())
    return np.stack(columns)


class TestToeplitzNorms:
    """Power iteration on FFT products: the norms of the `growth` powers."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 64, 256, 512, 513, 1024])
    def test_is_the_assembled_norm(self, dim):
        """Against the norm of the assembled matrix; at dim <= 3 the column of
        (T - I)^3 is zero, and so is its norm."""
        t = resolvent_at_identity(volterra_matrix(dim, QuadratureRule.LEFT_ENDPOINT))
        power = t.entries - np.eye(dim)
        column = power @ (power @ power[:, 0])
        dense = spectral_norm(toeplitz(column, np.zeros(dim)))
        assert toeplitz_norm(column, 3) == pytest.approx(dense, rel=1e-13, abs=0)

    def test_degenerate_columns(self):
        """A 1 x 1 matrix, the zero matrix, and a lone corner entry."""
        assert toeplitz_norm([3.0]) == 3.0
        assert toeplitz_norm(np.zeros(16)) == 0.0
        for dim in (2, 16, 600):
            corner = np.zeros(dim)
            corner[-1] = -2.5
            assert toeplitz_norm(corner) == pytest.approx(2.5, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n, count", [(7, 6), (256, 16), (600, 6), (4096, 2)])
    def test_stacked_rows_are_their_block_of_one_values_bitwise(self, n, count):
        """Rows that settle at different steps leave the stack one by one; each
        norm is bitwise its value alone, in either row order."""
        columns = left_powers(n, count)
        ks = list(range(1, count + 1))
        singles = [toeplitz_norm(column, k) for column, k in zip(columns, ks)]
        assert spectral._lower_toeplitz_norms(columns, ks).tolist() == singles
        assert spectral._lower_toeplitz_norms(columns[::-1], ks[::-1]).tolist() == singles[::-1]

    def test_a_stack_past_numpys_elision_threshold_keeps_each_rows_bits(self):
        """Sixteen growth columns at n = 1024 make (16, 1025) complex spectra, 256
        KiB and up, where numpy would multiply into a temporary FFT in place and
        round differently from the same product on one row."""
        columns = left_powers(1024, 16)
        singles = [toeplitz_norm(column, k) for k, column in enumerate(columns, 1)]
        assert spectral._lower_toeplitz_norms(columns, range(1, 17)).tolist() == singles

    @pytest.mark.parametrize("n", range(2, 65))
    def test_no_growth_power_comes_near_the_step_cap(self, n, monkeypatch):
        """Every power at k_max = n - 1 settles within 16 steps (measured: at
        most 14), a quarter of the cap, or growth_diagnostic raises."""
        monkeypatch.setattr(spectral, "_POWER_STEPS", 16)
        assert np.all(np.isfinite(growth_diagnostic(n, n - 1)))

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_a_sign_changing_column_reaches_the_cap_and_raises(self, n):
        """The column (1, -1, 0, ...) has top singular values O(1/n^2) apart, so
        the estimate still grows after the cap: an error naming the power, not
        a silent lower bound."""
        column = np.zeros(n)
        column[:2] = 1.0, -1.0
        with pytest.raises(ComputationError, match="power k = 5 did not settle in 64 power-iteration"):
            spectral._lower_toeplitz_norms(column[np.newaxis], [5])

    def test_a_stack_names_every_unsettled_power(self):
        bidiagonal = np.zeros(64)
        bidiagonal[:2] = 1.0, -1.0
        columns = np.stack([left_powers(64, 1)[0], bidiagonal, bidiagonal])
        with pytest.raises(ComputationError, match="power k = 8, 9 did not settle"):
            spectral._lower_toeplitz_norms(columns, [7, 8, 9])


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

    @pytest.mark.parametrize(
        "bad, clause",
        [
            (np.eye(2, 3), r"square matrix, got shape \(2, 3\)"),
            (np.ones(3), r"square matrix, got shape \(3,\)"),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "finite"),
        ],
        ids=["non-square", "1-d", "nan"],
    )
    def test_rejects_malformed_input(self, bad, clause):
        with pytest.raises(ValueError, match=clause):
            eigenvalues(bad)


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
