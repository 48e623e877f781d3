"""Tests for norms, eigenvalue sets, and the spectrum-union law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, toeplitz

from oba_lab import (
    MatrixOperator,
    ProductElement,
    QuadratureRule,
    cluster_radius,
    eigenvalues,
    lower_toeplitz_norm,
    spectral_norm,
)
from oba_lab import spectral
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

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_dense_norm_is_the_svd_above_512(self, complex_input):
        rng = np.random.default_rng(513)
        a = rng.standard_normal((513, 513))
        if complex_input:
            a = a + 1j * rng.standard_normal((513, 513))
        assert spectral_norm(a) == np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(MatrixOperator(a)) == np.linalg.svd(a, compute_uv=False)[0]

    def test_lanczos_path_matches_dense_svd_real(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((600, 600))
        assert spectral._gram_lanczos(600, lambda x: a.T @ (a @ x)) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-11
        )

    def test_lanczos_path_zero_matrix(self):
        a = np.zeros((600, 600))
        assert spectral._gram_lanczos(600, lambda x: a.T @ (a @ x)) == 0.0

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e9, 1e12])
    def test_lanczos_norms_scale_with_the_operator(self, scale):
        """Both Lanczos stop tests are relative, so a small operator is not cut short.

        Scales beyond about 1e+-150, where the Gram products over- or underflow,
        are out of scope.
        """
        a = np.random.default_rng(5).standard_normal((600, 600)) * scale
        assert spectral._gram_lanczos(600, lambda x: a.T @ (a @ x)) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-13, abs=0
        )
        column = np.random.default_rng(1024).standard_normal(1024) * scale
        assert lower_toeplitz_norm(column) == pytest.approx(
            np.linalg.svd(toeplitz(column, np.zeros(1024)), compute_uv=False)[0], rel=1e-13, abs=0
        )

    def test_lanczos_second_reorthogonalization_pass(self):
        """Gram eigenvalues 1 and 1e-16 make the first projection cancel most of a
        Lanczos vector, which is the input that runs the guarded second pass."""
        d = np.concatenate([np.ones(300), np.full(300, 1e-8)])
        assert spectral._gram_lanczos(600, lambda x: d * (d * x)) == pytest.approx(
            np.linalg.svd(np.diag(d), compute_uv=False)[0], rel=1e-14, abs=0
        )

    def test_gram_lanczos_runs_the_dense_loop(self):
        a = np.random.default_rng(5).standard_normal((600, 600))
        first = spectral._gram_lanczos(600, lambda x: a.T @ (a @ x))
        # the start vector is seeded, so equal products give a bitwise-equal Ritz value
        assert spectral._gram_lanczos(600, lambda x: a.T @ (a @ x)) == first
        # up to dim 384 the iteration may span the whole space, so the Ritz value
        # is the norm up to rounding; at 385 and 512 it settles within the 384-step cap
        for dim in (1, 2, 64, 385, 512):
            block = a[:dim, :dim].copy()
            norm = spectral._gram_lanczos(dim, lambda x: block.T @ (block @ x))
            assert norm == pytest.approx(spectral_norm(block), rel=1e-14, abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dim", [64, 600])
    def test_gram_lanczos_rejects_non_finite_products(self, dim, bad):
        """Where the Lanczos loop may span the whole space (64) and where it is capped (600)."""

        def product(x):
            # writes the value instead of multiplying by it, so the test's own
            # operator raises no floating-point warning (inf * 0)
            y = x.copy()
            y[dim // 2] = bad
            return y

        with pytest.raises(ValueError, match="needs finite products"):
            spectral._gram_lanczos(dim, lambda x: product(product(x)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 64, 256, 512, 513, 1024])
    def test_lower_toeplitz_norm_is_the_assembled_norm(self, dim):
        """FFT-product Lanczos at every dim against the SVD of the assembled matrix."""
        # the column of (T - I)^3 on the left-endpoint grid, as `growth` norms it
        t = resolvent_at_identity(volterra_matrix(dim, QuadratureRule.LEFT_ENDPOINT))
        power = t.entries - np.eye(dim)
        growth_column = power @ (power @ power[:, 0])
        random_column = np.random.default_rng(dim).standard_normal(dim)
        for column in (growth_column, random_column):
            dense = spectral_norm(toeplitz(column, np.zeros(dim)))
            assert lower_toeplitz_norm(column) == pytest.approx(dense, rel=1e-13, abs=0)

    def test_lower_toeplitz_norm_of_degenerate_columns(self):
        """A 1 x 1 matrix, the zero matrix, and a lone corner entry, whose Krylov
        spaces are at most two-dimensional."""
        assert lower_toeplitz_norm([3.0]) == 3.0
        assert lower_toeplitz_norm(np.zeros(16)) == 0.0
        for dim in (2, 16, 600):
            corner = np.zeros(dim)
            corner[-1] = -2.5
            assert lower_toeplitz_norm(corner) == pytest.approx(2.5, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "column, clause",
        [
            ([], "nonempty real vector"),
            ([[1.0, 0.0], [0.0, 1.0]], "nonempty real vector"),
            ([1.0, 1j], "nonempty real vector"),
            ([np.nan], "finite entries"),
            ([1.0, np.inf], "finite entries"),
        ],
    )
    def test_lower_toeplitz_norm_rejects_malformed_columns(self, column, clause):
        with pytest.raises(ValueError, match=clause):
            lower_toeplitz_norm(column)

    @pytest.mark.parametrize(
        "k, psd",
        [(1, False), (2, False), (3, False), (16, False), (128, False), (384, False), (384, True)],
    )
    def test_top_ritz_is_the_top_eigenvalue_of_the_tridiagonal(self, k, psd):
        """Against scipy's tridiagonal solver; an off-diagonal on the side that
        numpy's eigvalsh does not read would fail every k > 1."""
        rng = np.random.default_rng(k)
        diag, off = rng.standard_normal(k), rng.standard_normal(k - 1)
        if psd:
            # B^T B for the lower bidiagonal B with this diagonal and subdiagonal,
            # the shape of a Lanczos Gram tridiagonal
            diag, off = diag * diag + np.append(off * off, 0.0), diag[1:] * off
        expected = eigh_tridiagonal(diag, off, eigvals_only=True)[-1]
        assert spectral._top_ritz(diag, off) == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "n, sizes",
        [
            (512, [16, 32, 64, 128, 256, 384]),
            (513, [16, 32, 64, 128, 256, 384]),
            (600, [16, 32, 64, 128, 256, 384]),
        ],
        ids=["512", "513", "600"],
    )
    def test_ritz_checks_double(self, n, sizes, monkeypatch):
        """The left witness's `norm_T` runs to its step cap: checks at 16, 32,
        ..., 256 and once more at the cap, min(n, 384) steps."""
        seen = []
        top_ritz = spectral._top_ritz

        def recording(diag, off):
            seen.append(len(diag))
            return top_ritz(diag, off)

        monkeypatch.setattr(spectral, "_top_ritz", recording)
        matvec, rmatvec = _resolvent_matvecs(n, QuadratureRule.LEFT_ENDPOINT)
        spectral._gram_lanczos(n, lambda x: rmatvec(matvec(x)))
        assert seen == sizes

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
