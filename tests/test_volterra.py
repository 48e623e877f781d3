"""Tests for the witness harness, the growth diagnostic, and the dense oracle they are checked against."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oba_lab import (
    MatrixOperator,
    ProductElement,
    QuadratureRule,
    ToleranceConfig,
    build_witness,
    cluster_radius,
    cone_contains,
    convergence_study,
    eigenvalues,
    geq_unit,
    growth_diagnostic,
    spectral_norm,
)
from oba_lab import spectral, volterra
from oba_lab.cli import DEFAULT_NS
from oba_lab.volterra import _resolvent_matvecs
from oracle import (
    dense_norm,
    gelfand_radius,
    multiset_distance,
    resolvent_at_identity,
    resolvent_residual,
    volterra_diagonal,
    volterra_matrix,
    witness_count_above,
    witness_pencil,
)

TOL = ToleranceConfig()


# dense-SVD oracle values for ||T_n - I||, trapezoid rule (frozen before build)
ORACLE_DEVIATION = {256: 0.442119035758, 512: 0.44212020365614096, 1024: 0.442120495630306}


class TestVolterraMatrix:
    def test_left_endpoint_two_points(self):
        v = volterra_matrix(2, QuadratureRule.LEFT_ENDPOINT)
        assert np.array_equal(v.entries, np.array([[0.0, 0.0], [0.5, 0.0]]))

    def test_trapezoid_two_points(self):
        v = volterra_matrix(2, QuadratureRule.TRAPEZOID)
        assert np.array_equal(v.entries, np.array([[0.25, 0.0], [0.5, 0.25]]))

    def test_left_endpoint_is_quasinilpotent(self):
        for n in (2, 5, 16):
            v = volterra_matrix(n, QuadratureRule.LEFT_ENDPOINT)
            assert multiset_distance(eigenvalues(v), np.zeros(n)) == 0.0

    def test_trapezoid_diagonal_spectrum(self):
        n = 8
        v = volterra_matrix(n, QuadratureRule.TRAPEZOID)
        assert multiset_distance(eigenvalues(v), np.full(n, 1 / (2 * n))) == 0.0

    def test_trapezoid_accretive(self):
        for n in (4, 64, 256):
            v = volterra_matrix(n, QuadratureRule.TRAPEZOID).entries
            assert np.linalg.eigvalsh(v + v.T).min() >= -1e-12

    def test_grid_bounds_enforced(self):
        for bad in (0, -1, 4097):
            with pytest.raises(ValueError, match="grid size"):
                build_witness(bad, QuadratureRule.TRAPEZOID, TOL)

    def test_grid_size_must_be_an_integer(self):
        with pytest.raises(TypeError, match="grid size n must be an integer, got 2.5"):
            build_witness(2.5, QuadratureRule.TRAPEZOID, TOL)
        with pytest.raises(TypeError, match="grid size n must be an integer, got 2.5"):
            convergence_study([2.5, 3.9], QuadratureRule.TRAPEZOID, TOL)
        with pytest.raises(TypeError, match="grid size n must be an integer, got 8.0"):
            growth_diagnostic(8.0, 3)
        with pytest.raises(TypeError, match="k_max must be an integer, got 3.0"):
            growth_diagnostic(8, 3.0)

    def test_numpy_integer_grid_sizes_are_stored_as_int(self):
        w = build_witness(np.int64(4), QuadratureRule.TRAPEZOID, TOL)
        assert type(w.n) is int and w == build_witness(4, QuadratureRule.TRAPEZOID, TOL)
        (row,) = convergence_study([np.int64(4)], QuadratureRule.TRAPEZOID, TOL)
        assert type(row.n) is int and row == w
        values = growth_diagnostic(np.int64(8), np.int64(3))
        np.testing.assert_array_equal(values, growth_diagnostic(8, 3))

    def test_rule_values_map_to_their_rule(self):
        """A rule's value names that rule, for the witness and the study built from it."""
        for rule in QuadratureRule:
            w = build_witness(4, rule.value, TOL)
            assert w.rule is rule and w == build_witness(4, rule, TOL)
            assert convergence_study([4], rule.value, TOL) == [w]

    def test_unknown_rule_is_a_value_error(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid QuadratureRule"):
            build_witness(4, "bogus")
        with pytest.raises(ValueError, match="'bogus' is not a valid QuadratureRule"):
            convergence_study([4], "bogus")

    def test_nilpotency_index_matches_grid(self):
        n = 8
        v = volterra_matrix(n, QuadratureRule.LEFT_ENDPOINT)
        values = gelfand_radius(v, n)
        assert values[n - 1] == 0.0
        assert values[n - 2] > 0.0


class TestResolvent:
    def test_scalar_grid(self):
        v = volterra_matrix(1, QuadratureRule.TRAPEZOID)
        t = resolvent_at_identity(v)
        assert t.entries[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_two_point_hand_inverse(self):
        v = volterra_matrix(2, QuadratureRule.LEFT_ENDPOINT)
        t = resolvent_at_identity(v)
        assert np.array_equal(t.entries, np.array([[1.0, 0.0], [-0.5, 1.0]]))

    def test_two_point_norm_closed_form(self):
        # largest root of the 2x2 singular-value quadratic of [[1,0],[-1/2,1]]
        closed_form = math.sqrt((2.25 + math.sqrt(1.0625)) / 2)
        t = resolvent_at_identity(volterra_matrix(2, QuadratureRule.LEFT_ENDPOINT))
        brute_force = np.linalg.svd(t.entries, compute_uv=False)[0]
        assert spectral_norm(t) == pytest.approx(closed_form, abs=1e-12)
        assert spectral_norm(t) == pytest.approx(brute_force, abs=1e-14)

    def test_residual_small_on_both_rules(self):
        for rule in QuadratureRule:
            for n in (2, 16, 128):
                v = volterra_matrix(n, rule)
                t = resolvent_at_identity(v)
                assert resolvent_residual(v, t) <= 1e-10

    def test_singular_input_raises(self):
        # I + V has a zero on its diagonal, so forward substitution must refuse it
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            resolvent_at_identity(MatrixOperator(np.array([[-1.0, 0.0], [1.0, 2.0]])))

    def test_result_is_structurally_triangular(self):
        t = resolvent_at_identity(volterra_matrix(64, QuadratureRule.TRAPEZOID))
        assert not np.any(np.triu(t.entries, 1))


class TestWitness:
    def test_trapezoid_facts_at_moderate_grid(self):
        w = build_witness(128, QuadratureRule.TRAPEZOID, TOL)
        h = 1 / 128
        assert w.h == pytest.approx(h)
        assert w.xi_used == 1.0
        assert w.cone_member
        assert not w.geq_unit
        assert w.norm_excess <= 1e-10
        assert w.cluster_radius == pytest.approx((h / 2) / (1 + h / 2), abs=1e-12)
        assert w.deviation > 0.1

    def test_left_endpoint_norm_exceeds_one(self):
        w = build_witness(16, QuadratureRule.LEFT_ENDPOINT, TOL)
        assert w.norm_excess > 0
        assert w.xi_used == pytest.approx(w.norm_T)
        assert w.cone_member  # xi_used absorbs the discretization excess
        assert not w.geq_unit
        assert w.cluster_radius == 0.0  # unit-diagonal triangular: spectrum exactly {1}

    def test_witness_chain_across_rules_and_grids(self):
        for rule in QuadratureRule:
            for n in (8, 32, 64):
                w = build_witness(n, rule, TOL)
                assert w.cone_member
                assert not w.geq_unit
                assert w.deviation > 0.1

    def test_xi_used_is_max_of_one_and_norm(self):
        for rule in QuadratureRule:
            w = build_witness(32, rule, TOL)
            assert w.xi_used == max(1.0, w.norm_T)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [2, 64, 600])
    def test_verdicts_match_the_cone_predicates(self, n, rule):
        w = build_witness(n, rule, TOL)
        element = ProductElement(resolvent_at_identity(volterra_matrix(n, rule)), w.xi_used)
        assert w.cone_member == cone_contains(element, TOL)
        assert w.geq_unit == geq_unit(element, TOL)


class TestMatrixFreeWitness:
    """The witness never forms V_n or solves for T_n; the dense path is its oracle."""

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 512, 513, 600, 1024])
    def test_products_match_the_dense_resolvent(self, n, rule):
        t = resolvent_at_identity(volterra_matrix(n, rule)).entries
        matvec, rmatvec = _resolvent_matvecs(n, rule)
        x = np.random.default_rng(n).standard_normal(n)
        np.testing.assert_allclose(matvec(x), t @ x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rmatvec(x), t.T @ x, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [385, 448, 512, 600, 1024])
    def test_capped_lanczos_matches_the_dense_products(self, n, rule):
        """The capped iteration on the O(n) products against the same iteration
        on the products of the dense solve."""
        t = resolvent_at_identity(volterra_matrix(n, rule)).entries
        matvec, rmatvec = _resolvent_matvecs(n, rule)
        matrix_free = volterra._capped_lanczos_norm(n, lambda x: rmatvec(matvec(x)))
        dense = volterra._capped_lanczos_norm(n, lambda x: t.T @ (t @ x))
        assert matrix_free == pytest.approx(dense, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [513, 600, 1024])
    def test_capped_lanczos_takes_exactly_384_products(self, n):
        """The witness's `norm_T` runs to the cap: no Ritz check stops it early."""
        matvec, rmatvec = _resolvent_matvecs(n, QuadratureRule.LEFT_ENDPOINT)
        sizes = []

        def gram(x):
            sizes.append(len(x))
            return rmatvec(matvec(x))

        volterra._capped_lanczos_norm(n, gram)
        assert sizes == [n] * 384

    def test_capped_lanczos_stops_at_an_invariant_subspace(self):
        """The Krylov space of a rank-2 Gram matrix from a generic start has
        dimension 3, so the residual collapses at step 3; its rounding sits
        near the 1e-14 threshold, so the loop stops there or one step later,
        with the exact norm either way."""
        rng = np.random.default_rng(1)
        rank2 = rng.standard_normal((600, 2)) @ rng.standard_normal((2, 600))
        calls = []

        def gram(x):
            calls.append(1)
            return rank2.T @ (rank2 @ x)

        norm = volterra._capped_lanczos_norm(600, gram)
        assert len(calls) <= 4
        assert norm == pytest.approx(dense_norm(rank2), rel=1e-14, abs=0)
        assert volterra._capped_lanczos_norm(600, lambda x: 0.0 * x) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("step", [1, 3])
    def test_capped_lanczos_rejects_non_finite_products(self, step, bad):
        d = np.linspace(1.0, 2.0, 600)
        calls = []

        def gram(x):
            calls.append(1)
            y = d * (d * x)
            if len(calls) == step:
                # written, not multiplied in, so the test raises no floating-point warning
                y[300] = bad
            return y

        with pytest.raises(ValueError, match=f"needs finite products.* at Lanczos step {step}$"):
            volterra._capped_lanczos_norm(600, gram)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [513, 600, 700, 1024])
    def test_deviation_is_the_dense_norm_above_512(self, n, rule):
        """`deviation` stays the closed form above n = 512, within 1e-14 of the
        SVD of the dense solve (measured: at most 1.4e-15).  A 384-step Lanczos
        run on the O(n) products is up to 6.6e-14 off here (n = 700)."""
        t = resolvent_at_identity(volterra_matrix(n, rule)).entries
        dense = dense_norm(t - np.eye(n))
        assert build_witness(n, rule, TOL).deviation == pytest.approx(dense, rel=1e-14, abs=0)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [513, 600, 700, 1024])
    def test_norm_T_above_512_is_the_capped_lanczos_norm(self, n, rule):
        """Above n = 512 `norm_T` is the 384-step Lanczos value on the O(n)
        products, within 5e-11 of the SVD of the dense solve (measured: 1.7e-11
        to 3.3e-11, both rules).  It stays, not the closed form, because the
        benchmark reference pins it."""
        t = resolvent_at_identity(volterra_matrix(n, rule)).entries
        matvec, rmatvec = _resolvent_matvecs(n, rule)
        norm_t = build_witness(n, rule, TOL).norm_T
        assert norm_t == volterra._capped_lanczos_norm(n, lambda x: rmatvec(matvec(x)))
        assert norm_t == pytest.approx(dense_norm(t), rel=5e-11, abs=0)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [*range(1, 70), 100, 255, 256, 383, 384, 385, 448, 511, 512])
    def test_witness_norms_are_the_dense_norms_up_to_512(self, n, rule):
        """Up to n = 512 both norms are the closed-form secular root, within
        1e-14 of the SVD of the dense solve (measured: at most 1.6e-15).  The
        cancelling denominator a^2 + b^2 - 2ab cos(theta) misses by up to
        5e-12, and the cancelling last row a sin((n + 1) theta) - b sin(n theta)
        by 1.8e-14 (n = 384, trapezoid, `deviation`)."""
        t = resolvent_at_identity(volterra_matrix(n, rule)).entries
        w = build_witness(n, rule, TOL)
        for shift, norm in ((0.0, w.norm_T), (1.0, w.deviation)):
            dense = dense_norm(t - shift * np.eye(n))
            assert norm == pytest.approx(dense, rel=1e-14, abs=0)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [1, 2, 7, 512, 513, 4096])
    def test_cluster_radius_is_bitwise_the_eigenvalue_path(self, n, rule, monkeypatch):
        # the radius reads neither norm, so both are stubbed: no Lanczos run at 4096
        monkeypatch.setattr(volterra, "_capped_lanczos_norm", lambda *args: 1.0)
        # the spectrum of the triangular T_n = (I + V_n)^(-1) is 1 / (1 + V_n[i, i])
        spectrum = 1.0 / (1.0 + volterra_diagonal(n, rule))
        if n <= 513:  # bitwise the dense solve's; at 4096 that solve alone takes seconds
            t = resolvent_at_identity(volterra_matrix(n, rule))
            assert np.array_equal(eigenvalues(t), spectrum)
        assert build_witness(n, rule, TOL).cluster_radius == cluster_radius(spectrum, 1.0)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_largest_grid_allocates_no_square_matrix(self, rule):
        tracemalloc.start()
        try:
            build_witness(4096, rule, TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # one dense 4096 x 4096 float64 matrix is 128 MiB


class TestClosedFormWitness:
    """The witness norms up to n = 512 are roots of the secular equation of `_witness_norm`."""

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [16])
    def test_matches_the_exact_norm(self, n, rule, shift):
        """Against a 40-digit SVD of T_n - shift I, with T_n solved from V_n by
        its definition: within 2.5e-16 relative (measured: at most 1.4e-16).
        The exact inertia count below proves every size up to 69 within 4
        ulps, n = 48 included, in milliseconds instead of 2.3 s a case."""
        with mpmath.workdps(40):
            h = mpmath.mpf(1) / n
            v = mpmath.matrix(n, n)
            for i in range(n):
                v[i, i] = h / 2 if rule is QuadratureRule.TRAPEZOID else 0
                for j in range(i):
                    v[i, j] = h
            t = mpmath.inverse(mpmath.eye(n) + v) - shift * mpmath.eye(n)
            exact = max(mpmath.svd_r(t, compute_uv=False))
            w = build_witness(n, rule, TOL)
            error = abs(mpmath.mpf(w.deviation if shift else w.norm_T) / exact - 1)
        assert error <= 2.5e-16

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_pencil_factors_the_resolvent(self, n, rule, shift):
        """T_n - shift I = M B^(-1), that is (I + V_n)(M + shift B) = B, exactly,
        with V_n by its definition: the inertia count's pencil is T_n's."""

        def lower(diag, sub, below):
            """n x n: diag on the diagonal, sub just below it, below further down."""
            return [
                [diag if i == j else sub if i == j + 1 else below if j < i else 0 for j in range(n)]
                for i in range(n)
            ]

        a, b, alpha, beta = witness_pencil(n, rule, shift)
        h = Fraction(1, n)
        i_plus_v = lower(1 + (h / 2 if rule is QuadratureRule.TRAPEZOID else 0), h, h)
        m = lower(alpha + shift * a, beta - shift * b, 0)
        product = [[sum(i_plus_v[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert product == lower(a, -b, 0)

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [*range(2, 70), 100, 255, 256, 383, 384, 511, 512])
    def test_is_proven_within_4_ulps(self, n, rule, shift):
        """Exactly one squared singular value of T_n - shift I above (x - 4 ulp)^2
        and none above (x + 4 ulp)^2, for the closed-form norm x.  A zero pivot
        moves that end one ulp toward x, which keeps the claim; none occurs
        here.  Measured: 275 of these 300 cases hold at 1 ulp, 24 at 2, 1 at 3."""
        x = volterra._witness_norm(n, rule, shift)
        for toward, expected in ((-math.inf, 1), (math.inf, 0)):
            for ulps in range(4, 0, -1):
                end = x
                for _ in range(ulps):
                    end = math.nextafter(end, toward)
                count = witness_count_above(n, rule, int(shift), Fraction(end) ** 2)
                if count is not None:
                    break
            assert count == expected, (toward, ulps)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("n", [5, 7, 9, 13, 17, 20])
    def test_norm_stays_below_the_symbol_bound(self, n, rule):
        """||T_n|| < 2/(a + b), the sup of the symbol, and a scan that touched
        theta = pi took the trivial root there, exactly 2/(a + b), at these n."""
        a, b = volterra._resolvent_symbol(n, rule)
        assert build_witness(n, rule, TOL).norm_T < 2.0 / (a + b)

    @pytest.mark.parametrize(
        "rule, low, high",
        [
            (QuadratureRule.LEFT_ENDPOINT, 0.1254, 0.1257),
            (QuadratureRule.TRAPEZOID, -0.10206, -0.10205),
        ],
        ids=["left", "trapezoid"],
    )
    def test_deviation_approaches_the_continuous_norm_as_one_over_n_squared(
        self, rule, low, high, monkeypatch
    ):
        """||T - I|| = 1/sqrt(1 + w^2) for the Volterra resolvent T, with w the
        first positive root of tan w = -w, and n^2 (deviation - that limit)
        settles above n = 512 (measured: [0.12544, 0.12566] left, -0.1020523
        +- 2e-8 trapezoid).  A wrong secular root would be off by O(1) n^2."""
        # deviation reads no Lanczos, so norm_T's is stubbed: up to 0.2 s per witness
        monkeypatch.setattr(volterra, "_capped_lanczos_norm", lambda *args: 1.0)
        with mpmath.workdps(30):
            omega = mpmath.findroot(lambda w: mpmath.tan(w) + w, 2.0)
            limit = 1 / mpmath.sqrt(1 + omega**2)
            for n in [*range(513, 4096, 7), 4096]:
                scaled = n**2 * (mpmath.mpf(build_witness(n, rule, TOL).deviation) - limit)
                assert low <= scaled <= high, n

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_lanczos_runs_only_above_512(self, rule, monkeypatch):
        """Once per witness above n = 512, for the `norm_T` the benchmark reference pins."""
        calls = []
        lanczos = volterra._capped_lanczos_norm

        def counted(n, gram):
            calls.append(n)
            return lanczos(n, gram)

        monkeypatch.setattr(volterra, "_capped_lanczos_norm", counted)
        convergence_study(DEFAULT_NS, rule, TOL)
        assert calls == [1024]
        calls.clear()
        build_witness(512, rule, TOL)
        assert calls == []
        build_witness(513, rule, TOL)
        assert calls == [513]


class TestConvergence:
    def test_rows_sorted_and_complete(self):
        rows = convergence_study([64, 16, 32], QuadratureRule.TRAPEZOID, TOL)
        assert [r.n for r in rows] == [16, 32, 64]

    def test_trapezoid_sandwich_small_grids(self):
        rows = convergence_study([16, 32, 64, 128], QuadratureRule.TRAPEZOID, TOL)
        for r in rows:
            assert 1 / (1 + r.h / 2) <= r.norm_T <= 1 + 1e-10
            assert abs(1 - r.norm_T) <= r.h / 2

    def test_deviation_matches_frozen_oracle(self):
        rows = convergence_study([256, 512], QuadratureRule.TRAPEZOID, TOL)
        for r in rows:
            assert r.deviation == pytest.approx(ORACLE_DEVIATION[r.n], abs=1e-9)

    def test_left_endpoint_two_point_row(self):
        (row,) = convergence_study([2], QuadratureRule.LEFT_ENDPOINT, TOL)
        assert row.norm_T == pytest.approx(1.280776, abs=1e-6)
        assert row.norm_T > 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            convergence_study([], QuadratureRule.TRAPEZOID, TOL)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_default_grid_takes_no_dense_svd(self, rule, monkeypatch):
        """Every witness norm is matrix-free: no matrix is assembled for an SVD."""

        def no_svd(stack):
            raise AssertionError("convergence_study took a dense SVD")

        monkeypatch.setattr(spectral, "spectral_norms", no_svd)
        rows = convergence_study(DEFAULT_NS, rule, TOL)
        assert [r.n for r in rows] == list(DEFAULT_NS)


class TestGrowthDiagnostic:
    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256, 600, 1024, 4096, 16384, 65536])
    def test_first_term_is_deviation_norm(self, n):
        """a_1 = ||T_n - I|| under the left rule: the witness deviation's closed form.

        a_1 is s / n, s the norm of the scaled column (1, q, q^2, ...): no
        logarithm of h reaches it.  Measured within 4 ulps at every n up to
        4096 (worst at n = 1085), and at `growth`'s grids 16384 and 65536."""
        deviation = volterra._witness_norm(n, QuadratureRule.LEFT_ENDPOINT, 1.0)
        assert abs(growth_diagnostic(n, 1)[0] - deviation) <= 4 * math.ulp(deviation)

    def test_first_term_is_deviation_norm_across_the_grid_sizes(self):
        """The same 4-ulp bound on every 41st n up to 4096."""
        for n in range(2, volterra.MAX_GRID + 1, 41):
            deviation = volterra._witness_norm(n, QuadratureRule.LEFT_ENDPOINT, 1.0)
            assert abs(growth_diagnostic(n, 1)[0] - deviation) <= 4 * math.ulp(deviation), n

    @pytest.mark.parametrize("n", [2, 8, 64, 500, 1024])
    def test_last_power_gives_exactly_n_minus_one_over_n(self, n):
        """(T - I)^(n-1) has the single entry (-h)^(n-1), so a_(n-1) is (n - 1)/n,
        correctly rounded."""
        assert growth_diagnostic(n, n - 1)[-1] == (n - 1) / n

    def test_rejects_k_max_at_grid_size(self):
        with pytest.raises(ValueError):
            growth_diagnostic(2, 2)
        with pytest.raises(ValueError):
            growth_diagnostic(8, 12)

    def test_rejects_nonpositive_k_max(self):
        with pytest.raises(ValueError):
            growth_diagnostic(8, 0)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_every_power_matches_the_assembled_power(self, n):
        """Every k < n against the SVD of the dense power (T - I)^k."""
        values = growth_diagnostic(n, n - 1)
        v = volterra_matrix(n, QuadratureRule.LEFT_ENDPOINT)
        base = resolvent_at_identity(v).entries - np.eye(n)
        power = np.eye(n)
        for k in range(1, n):
            power = power @ base
            direct = k * np.linalg.svd(power, compute_uv=False)[0] ** (1 / k)
            assert values[k - 1] == pytest.approx(direct, rel=1e-14, abs=0)

    def test_default_grid_takes_no_dense_svd(self, monkeypatch):
        """The growth path norms FFT products only: no matrix is assembled for an SVD."""

        def no_svd(stack):
            raise AssertionError("growth_diagnostic took a dense SVD")

        monkeypatch.setattr(spectral, "spectral_norms", no_svd)
        values = growth_diagnostic(256, 64)
        assert values.shape == (64,) and np.all(np.isfinite(values))

    @pytest.mark.parametrize(("n", "k_max"), [(64, 16), (256, 64), (600, 8)])
    def test_matches_the_dense_power_chain(self, n, k_max):
        """The closed-form columns against k * gelfand_radius(T - I), the dense oracle."""
        t = resolvent_at_identity(volterra_matrix(n, QuadratureRule.LEFT_ENDPOINT))
        dense = np.arange(1, k_max + 1) * gelfand_radius(t.entries - np.eye(n), k_max)
        np.testing.assert_allclose(growth_diagnostic(n, k_max), dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(("n", "k_max"), [(16, 8), (32, 12)])
    def test_matches_the_exact_norms(self, n, k_max):
        """Every a_k against a 40-digit SVD of the exact Toeplitz power.

        (T - I)^k is zero outside its lower-left (n - k) x (n - k) block, which
        is lower-triangular Toeplitz with column c_k, ..., c_(n-1), so that
        block carries every singular value that is not 0.
        """
        with mpmath.workdps(40):
            h = mpmath.mpf(1) / n
            exact = []
            for k in range(1, k_max + 1):
                size = n - k
                column = [
                    (-h) ** k * mpmath.binomial(k - 1 + i, k - 1) * (1 - h) ** i
                    for i in range(size)
                ]
                block = mpmath.matrix(size, size)
                for i in range(size):
                    for j in range(i + 1):
                        block[i, j] = column[i - j]
                top = max(mpmath.svd_r(block, compute_uv=False))
                exact.append(float(k * top ** (mpmath.mpf(1) / k)))
        np.testing.assert_allclose(growth_diagnostic(n, k_max), exact, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(("k_max", "limit"), [(64, 32 * 2**20), (4095, 2**20)])
    def test_largest_grid_allocates_no_square_matrix(self, k_max, limit):
        """One dense 4096 x 4096 float64 matrix is 128 MiB.  At k_max = 4095 the
        limit is 1 MiB, which a (k_max, n) block of every power's column (128
        MiB) would break."""
        tracemalloc.start()
        try:
            growth_diagnostic(4096, k_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize(("n", "k_max"), [(1024, 256), (4096, 256)])
    def test_power_iteration_stacks_stay_small(self, n, k_max):
        """The corners are normed in stacks of max(1, 8192 // L) powers, L the
        transform length, at most 8192 transform entries (64 KiB) per block,
        and power iteration keeps a few blocks and their spectra, with no
        basis (measured peak: 0.62 MiB at 1024/256 and 0.79 MiB at 4096/256,
        the n lgamma values included), so a stack stays under 1 MiB."""
        tracemalloc.start()
        try:
            growth_diagnostic(n, k_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def scaled_log_column(n, k):
    """log(b_m / max b) for m = k..n-1, as growth_diagnostic builds the column
    of (T - I)^k / (-h)^k, from lgamma."""
    log_fact = np.array([math.inf] + [math.lgamma(m) for m in range(1, n)])
    steps = np.arange(n - k) * math.log1p(-1.0 / n)
    log_c = log_fact[k:] - log_fact[1 : n - k + 1] - log_fact[k] + steps
    return log_c - log_c.max()


def ratio_log_column(n, k):
    """The same logarithms by another route: b_k = 1 and
    b_(m+1)/b_m = q m / (m - k + 1), summed."""
    m = np.arange(k, n - 1)
    log_c = np.concatenate([[0.0], np.cumsum(math.log1p(-1.0 / n) + np.log(m / (m - k + 1)))])
    return log_c - log_c.max()


def recorded_corners(monkeypatch, n, k_max, powers):
    """{k: (row, norm)} for each k in `powers`: the row growth_diagnostic(n,
    k_max) hands to the power iteration, and the norm it gets back."""
    seen = {}

    def recording(columns, ks):
        norms = spectral._lower_toeplitz_norms(columns, ks)
        for k, row, norm in zip(ks, columns, norms):
            if k in powers:
                seen[k] = row.copy(), float(norm)
        return norms

    monkeypatch.setattr(volterra, "_lower_toeplitz_norms", recording)
    growth_diagnostic(n, k_max)
    return seen


# (n, k_max, the powers checked): the golden sizes and samples of 4096/4095
CORNER_CASES = [
    (64, 16, range(1, 17)),
    (256, 64, range(1, 65)),
    (1024, 256, range(1, 257)),
    (4096, 4095, (1, 2, 3, 64, 194, 512, 1000, 2048, 3000, 4000, 4094, 4095)),
]


class TestGrowthCorners:
    """Each power's column is cut to the corner that carries its norm."""

    @pytest.mark.parametrize(("n", "k_max", "powers"), CORNER_CASES)
    def test_the_cut_drops_at_most_2_to_the_minus_60(self, n, k_max, powers, monkeypatch):
        """The corner is the column's tail, bit for bit, after leading zeros;
        the entries cut before it weigh at most 2^-60 of the largest, summed
        from the ratio recurrence rather than from lgamma."""
        for k, (row, _) in recorded_corners(monkeypatch, n, k_max, set(powers)).items():
            size = row.size - np.flatnonzero(row)[0]
            assert np.all(row[: row.size - size] == 0.0)
            assert row[row.size - size :].tolist() == np.exp(scaled_log_column(n, k)[-size:]).tolist()
            dropped = np.exp(ratio_log_column(n, k)[: n - k - size])
            assert dropped.sum() <= 2.0**-60, k

    @pytest.mark.parametrize(("n", "k_max", "powers"), CORNER_CASES)
    def test_the_corner_norm_is_the_full_column_norm(self, n, k_max, powers, monkeypatch):
        """Against the whole column at width n, the layout before the cut."""
        for k, (_, norm) in recorded_corners(monkeypatch, n, k_max, set(powers)).items():
            column = np.zeros(n)
            column[k:] = np.exp(scaled_log_column(n, k))
            full = spectral._lower_toeplitz_norms(column[np.newaxis], [k])[0]
            assert abs(norm - full) <= 1e-15 * full, k

    @pytest.mark.parametrize(("n", "k_max"), [(16384, 256), (65536, 16)])
    def test_grids_past_4096_settle_and_never_widen(self, n, k_max, monkeypatch):
        """`growth` takes grids up to 2^16: there too every power settles within
        16 steps (measured: at most 11) and no corner is wider than the one
        before it."""
        monkeypatch.setattr(spectral, "_POWER_STEPS", 16)
        rows = recorded_corners(monkeypatch, n, k_max, set(range(1, k_max + 1)))
        widths = [row.size - np.flatnonzero(row)[0] for row, _ in map(rows.get, range(1, k_max + 1))]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_corners_never_widen_as_k_grows(self, monkeypatch):
        """A stack is as wide as its first corner and takes the next ones by
        count, so a corner wider than an earlier one would not fit its stack."""
        for n in [*range(2, 301), 512, 1000, 2048, 4096]:
            rows = recorded_corners(monkeypatch, n, n - 1, set(range(1, n)))
            widths = [row.size - np.flatnonzero(row)[0] for row, _ in map(rows.get, range(1, n))]
            assert all(a >= b for a, b in zip(widths, widths[1:])), n

    @pytest.mark.parametrize(
        ("n", "k_max", "shorter"),
        [
            (64, 63, (1, 15, 16, 17, 62)),
            (256, 64, (1, 3, 4, 16, 17, 63)),
            (1024, 256, (1, 3, 4, 5, 255)),
            (2048, 512, (132, 135, 435)),
            (4096, 4095, (1, 2, 127, 275, 2862, 4094)),
        ],
    )
    def test_each_value_is_bitwise_independent_of_k_max(self, n, k_max, shorter):
        """A stack's start and width depend on n and k alone.  a_3 and a_4 at
        n = 256, a_3 at 1024, a_132 at 2048 and a_127, a_275 and a_2862 at 4096
        read 1 ulp apart at width n and in their stacks, so a stack laid out by
        k_max would show there."""
        values = growth_diagnostic(n, k_max)
        for b in shorter:
            assert values[:b].tolist() == growth_diagnostic(n, b).tolist(), b
