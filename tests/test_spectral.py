"""Tests for norms, eigenvalue sets, and the spectrum-union law."""

import collections
import math
import re

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
    growth_diagnostic,
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


EPS = np.finfo(np.float64).eps


def within_the_stated_bound(norm, svd, dim):
    """`spectral_norms`' documented forward error, (dim + 1)^2 eps relative, against the SVD."""
    return abs(norm - svd) <= (dim + 1) ** 2 * EPS * svd


def lanczos_norm(n, gram):
    """`spectral._gram_lanczos` as a block of one, from the 1-D Gram product `gram`."""
    return float(spectral._gram_lanczos(n, 1, lambda rows, x: gram(x[0])[np.newaxis])[0])


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

    def test_lanczos_path_matches_dense_svd_real(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((600, 600))
        assert lanczos_norm(600, lambda x: a.T @ (a @ x)) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-11
        )

    def test_lanczos_path_zero_matrix(self):
        a = np.zeros((600, 600))
        assert lanczos_norm(600, lambda x: a.T @ (a @ x)) == 0.0

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e9, 1e12])
    def test_lanczos_norms_scale_with_the_operator(self, scale):
        """Both Lanczos stop tests are relative, so a small operator is not cut short.

        Scales beyond about 1e+-150, where the Gram products over- or underflow,
        are out of scope.
        """
        a = np.random.default_rng(5).standard_normal((600, 600)) * scale
        assert lanczos_norm(600, lambda x: a.T @ (a @ x)) == pytest.approx(
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
        assert lanczos_norm(600, lambda x: d * (d * x)) == pytest.approx(
            np.linalg.svd(np.diag(d), compute_uv=False)[0], rel=1e-14, abs=0
        )

    def test_gram_lanczos_runs_the_dense_loop(self):
        a = np.random.default_rng(5).standard_normal((600, 600))
        first = lanczos_norm(600, lambda x: a.T @ (a @ x))
        # the start vector is seeded, so equal products give a bitwise-equal Ritz value
        assert lanczos_norm(600, lambda x: a.T @ (a @ x)) == first
        # up to dim 384 the iteration may span the whole space, so the Ritz value
        # is the norm up to rounding; at 385 and 512 it settles within the 384-step cap
        for dim in (1, 2, 64, 385, 512):
            block = a[:dim, :dim].copy()
            norm = lanczos_norm(dim, lambda x: block.T @ (block @ x))
            assert norm == pytest.approx(spectral_norm(block), rel=1e-14, abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dim", [64, 600])
    def test_gram_lanczos_rejects_non_finite_products(self, dim, bad):
        """Where the Lanczos loop may span the whole space (64) and where it is
        capped (600); alone, and as the one bad row of a stack of three."""

        def product(x):
            # writes the value instead of multiplying by it, so the test's own
            # operator raises no floating-point warning (inf * 0)
            y = x.copy()
            y[dim // 2] = bad
            return y

        with pytest.raises(ValueError, match="needs finite products.* at Lanczos step 1$"):
            lanczos_norm(dim, lambda x: product(product(x)))

        d = np.linspace(1.0, 2.0, dim)
        steps = []

        def stack(rows, x):
            # three rows of one diagonal operator, all still running at step 3,
            # where row 1's product turns bad
            steps.append(len(rows))
            y = d * (d * x)
            if len(steps) == 3:
                y[1] = product(y[1])
            return y

        with pytest.raises(ValueError, match="needs finite products.* at Lanczos step 3$"):
            spectral._gram_lanczos(dim, 3, stack)
        assert steps == [3, 3, 3]

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
        top = spectral._top_ritz(diag[np.newaxis], off[np.newaxis])
        assert top.shape == (1,)
        assert top[0] == pytest.approx(expected, rel=1e-14, abs=0)

    def test_top_ritz_of_a_stack_is_each_tridiagonal_alone(self):
        """One stacked eigvalsh: each row's value is bitwise its block-of-one value."""
        rng = np.random.default_rng(7)
        diag, off = rng.standard_normal((5, 32)), rng.standard_normal((5, 31))
        singles = [spectral._top_ritz(d[np.newaxis], o[np.newaxis])[0] for d, o in zip(diag, off)]
        assert spectral._top_ritz(diag, off).tolist() == singles

    @pytest.fixture
    def ritz_sizes(self, monkeypatch):
        """The tridiagonal size of each row that a stacked `_top_ritz` call
        evaluates, in call order and, within a call, row order."""
        seen = []
        top_ritz = spectral._top_ritz

        def recording(diag, off):
            seen.extend([diag.shape[1]] * diag.shape[0])
            return top_ritz(diag, off)

        monkeypatch.setattr(spectral, "_top_ritz", recording)
        return seen

    @pytest.mark.parametrize("n", [512, 513, 600])
    def test_capped_run_checks_at_16_and_32_then_the_cap(self, n, ritz_sizes):
        """The left witness's `norm_T` runs to its step cap: checks at 16 and
        32 and once more at the cap, min(n, 384) steps."""
        matvec, rmatvec = _resolvent_matvecs(n, QuadratureRule.LEFT_ENDPOINT)
        lanczos_norm(n, lambda x: rmatvec(matvec(x)))
        assert ritz_sizes == [16, 32, 384]

    def test_each_way_to_stop_takes_the_ritz_value_once(self, ritz_sizes):
        """One `_top_ritz` call per check step, plus one where the loop stops
        unless it stops at a check: at the cap, at an invariant subspace or on
        a settled Ritz value."""

        def sizes(n, gram):
            ritz_sizes.clear()
            lanczos_norm(n, gram)
            return list(ritz_sizes)

        rng = np.random.default_rng(1)
        dense5 = rng.standard_normal((5, 5))
        # the cap is the whole space, before the first check
        assert sizes(5, lambda x: dense5.T @ (dense5 @ x)) == [5]
        # the cap comes after one check
        matvec, rmatvec = _resolvent_matvecs(20, QuadratureRule.LEFT_ENDPOINT)
        assert sizes(20, lambda x: rmatvec(matvec(x))) == [16, 20]
        # an invariant subspace before the first check
        rank2 = rng.standard_normal((100, 2)) @ rng.standard_normal((2, 100))
        assert sizes(100, lambda x: rank2.T @ (rank2 @ x)) == [3]
        # two checks, then the cap
        dense40 = rng.standard_normal((40, 40))
        assert sizes(40, lambda x: dense40.T @ (dense40 @ x)) == [16, 32, 40]
        # a Ritz value that settles only after step 32 runs to the cap, here the
        # whole space, where it is the norm up to rounding
        dense100 = rng.standard_normal((100, 100))
        assert sizes(100, lambda x: dense100.T @ (dense100 @ x)) == [16, 32, 100]
        assert lanczos_norm(100, lambda x: dense100.T @ (dense100 @ x)) == pytest.approx(
            np.linalg.svd(dense100, compute_uv=False)[0], rel=1e-14, abs=0
        )
        # a top singular value ten times the rest settles by the first check,
        # so the second stops the loop
        diag = np.append(np.linspace(0.0, 1.0, 99), 10.0)
        assert sizes(100, lambda x: diag * diag * x) == [16, 32]

    def test_growth_norms_take_the_ritz_value_once_per_stop(self, ritz_sizes):
        """Of the 64 norms at 256/64, 60 stop at an invariant subspace by 30
        steps and 4 settle at the check at 32: one evaluation per check, plus
        one where a norm stops between checks."""
        growth_diagnostic(256, 64)
        assert collections.Counter(ritz_sizes) == {
            5: 31, 6: 13, 7: 8, 8: 1, 9: 1, 10: 1, 11: 2, 14: 1, 16: 6, 19: 1, 30: 1, 32: 4
        }

    def test_stacked_rows_are_their_single_row_norms_bitwise(self, ritz_sizes):
        """One stack at n = 600 that stops each way: a zero column at an
        invariant subspace at step 1, the column of (T - I)^3 on the left grid
        at the settled check at 32, and the trapezoid T_n's column at the
        384-step cap.  Each row leaves the stack when it stops, and its norm is
        bitwise its block-of-one norm."""
        n = 600
        left, _ = _resolvent_matvecs(n, QuadratureRule.LEFT_ENDPOINT)
        trapezoid, _ = _resolvent_matvecs(n, QuadratureRule.TRAPEZOID)
        first = np.eye(n)[0]
        power = first
        for _ in range(3):
            power = left(power) - power
        columns = np.stack([np.zeros(n), power, trapezoid(first)])
        stacked = spectral._lower_toeplitz_norms(columns)
        assert ritz_sizes == [1, 16, 16, 32, 32, 384]
        assert stacked.tolist() == [lower_toeplitz_norm(column) for column in columns]
        # and in the other order, where the longest run is the first row
        assert spectral._lower_toeplitz_norms(columns[::-1]).tolist() == stacked[::-1].tolist()

    def test_a_stack_past_numpys_elision_threshold_keeps_each_rows_bits(self):
        """Sixteen growth columns at n = 1024 make (16, 1025) complex spectra, 256
        KiB and up, where numpy would multiply into a temporary FFT in place and
        round differently from the same product on one row."""
        n = 1024
        left, _ = _resolvent_matvecs(n, QuadratureRule.LEFT_ENDPOINT)
        power = np.eye(n)[0]
        columns = []
        for _ in range(16):
            power = left(power) - power
            columns.append(power / np.abs(power).max())
        columns = np.stack(columns)
        singles = [lower_toeplitz_norm(column) for column in columns]
        assert spectral._lower_toeplitz_norms(columns).tolist() == singles

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
