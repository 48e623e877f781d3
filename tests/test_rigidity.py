"""Tests for the finite-dimensional rigidity dichotomy and its generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oba_lab import (
    ComputationError,
    MatrixOperator,
    PreconditionError,
    QuadratureRule,
    ToleranceConfig,
    check_rigidity,
    eigenvalues,
    random_strict_nilpotent,
    random_unitary,
    rigidity_gap,
    spectral_norm,
)
from oba_lab import rigidity
from oba_lab.rigidity import random_strict_nilpotent_stack, random_unitary_stack, rigidity_gaps
from oracle import resolvent_at_identity, volterra_matrix

TOL = ToleranceConfig()
GOLDEN_EXCESS = (1 + math.sqrt(5)) / 2 - 1

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=2, max_value=16)


class TestNilpotentGenerator:
    @settings(max_examples=50)
    @given(seeds, dims, st.floats(min_value=0.1, max_value=4.0))
    def test_strictly_upper_with_bounded_entries(self, seed, dim, scale):
        n = random_strict_nilpotent(seed, dim, scale)
        assert not np.any(np.tril(n.entries))
        moduli = np.abs(n.entries)
        assert moduli.max() <= scale * (1 + 1e-12)
        assert moduli.max() >= scale / 2

    def test_two_by_two_shape(self):
        n = random_strict_nilpotent(3, 2, 1.0)
        assert n.entries[0, 1] != 0
        assert n.entries[0, 0] == n.entries[1, 0] == n.entries[1, 1] == 0

    @settings(max_examples=25)
    @given(seeds, dims)
    def test_nilpotent_of_index_at_most_dim(self, seed, dim):
        n = random_strict_nilpotent(seed, dim, 1.0)
        assert np.abs(eigenvalues(n)).max() == 0.0
        assert not np.any(np.linalg.matrix_power(n.entries, dim))

    def test_deterministic(self):
        assert random_strict_nilpotent(11, 5, 2.0) == random_strict_nilpotent(11, 5, 2.0)

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            random_strict_nilpotent(0, 1, 1.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            random_strict_nilpotent(0, 3, 0.0)


class TestStacks:
    @pytest.mark.parametrize("dim", [2, 9, 16])
    def test_stacks_hold_the_one_element_draws_bitwise(self, dim):
        seeds, scales = [4, 5, 2**40], [0.5, 2.0, 1.5]
        nil = random_strict_nilpotent_stack(seeds, dim, scales)
        unitaries = random_unitary_stack(seeds, dim)
        for i, (seed, scale) in enumerate(zip(seeds, scales)):
            assert nil[i].tobytes() == random_strict_nilpotent(seed, dim, scale).entries.tobytes()
            assert unitaries[i].tobytes() == random_unitary(seed, dim).entries.tobytes()

    def test_stacked_gaps_are_the_per_matrix_gaps(self):
        stack = np.eye(6) + random_strict_nilpotent_stack([1, 2, 3], 6, 1.0)
        excess, deviation = rigidity_gaps(stack)
        for i, a in enumerate(stack):
            verdict = rigidity_gap(a, TOL)
            assert (verdict.norm_excess, verdict.deviation) == (excess[i], deviation[i])

    def test_stack_rejects_a_bad_scale_among_good_ones(self):
        with pytest.raises(ValueError, match="got 0.0"):
            random_strict_nilpotent_stack([1, 2], 3, [1.0, 0.0])


class TestRigidityGap:
    def test_identity_has_no_gap(self):
        for dim in (1, 2, 7, 16):
            verdict = rigidity_gap(MatrixOperator.identity(dim), TOL)
            assert verdict.norm_excess == 0.0
            assert verdict.deviation == 0.0
            assert verdict.is_identity

    def test_golden_ratio_jordan_block(self):
        a = MatrixOperator(np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]]))
        verdict = rigidity_gap(a, TOL)
        assert verdict.norm_excess == pytest.approx(GOLDEN_EXCESS, abs=1e-9)
        assert verdict.deviation == pytest.approx(1.0, abs=1e-12)
        assert not verdict.is_identity

    @settings(max_examples=50)
    @given(seeds, dims, st.floats(min_value=0.1, max_value=2.0))
    def test_trace_bound(self, seed, dim, scale):
        n = random_strict_nilpotent(seed, dim, scale)
        a = np.eye(dim) + n.entries
        frobenius_sq = np.linalg.norm(n.entries, "fro") ** 2
        assert spectral_norm(a) ** 2 >= 1 + frobenius_sq / dim - 1e-10

    @settings(max_examples=50)
    @given(seeds, dims, st.floats(min_value=0.1, max_value=2.0))
    def test_dichotomy(self, seed, dim, scale):
        n = random_strict_nilpotent(seed, dim, scale)
        verdict = rigidity_gap(MatrixOperator(np.eye(dim) + n.entries), TOL)
        assert verdict.deviation > 0
        assert verdict.norm_excess > 0
        assert not verdict.is_identity

    @settings(max_examples=25)
    @given(seeds, dims)
    def test_unitarily_invariant(self, seed, dim):
        n = random_strict_nilpotent(seed, dim, 1.0)
        a = np.eye(dim) + n.entries
        u = random_unitary(seed + 1, dim).entries
        base = rigidity_gap(MatrixOperator(a), TOL)
        rotated = rigidity_gap(MatrixOperator(u @ a @ u.conj().T), TOL)
        assert rotated.norm_excess == pytest.approx(base.norm_excess, abs=1e-9)
        assert rotated.deviation == pytest.approx(base.deviation, abs=1e-9)

    @pytest.mark.parametrize(
        "bad, clause",
        [
            (np.array([[1.0, np.inf], [0.0, 1.0]]), "finite"),
            (np.eye(2, 3), r"square matrix, got shape \(2, 3\)"),
            (np.ones(3), r"square matrix, got shape \(3,\)"),
            (np.zeros((0, 0)), "dimension must be at least 1"),
            (np.full((2, 2), np.nan), "finite"),
        ],
        ids=["inf", "non-square", "1-d", "0x0", "nan"],
    )
    def test_rejects_malformed_input(self, bad, clause):
        with pytest.raises(ValueError, match=clause):
            rigidity_gap(bad, TOL)


class TestRandomUnitary:
    @settings(max_examples=25)
    @given(seeds, dims)
    def test_unitary(self, seed, dim):
        u = random_unitary(seed, dim).entries
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_rejects_a_nonpositive_dim(self, dim):
        with pytest.raises(ValueError, match=f"dim must be positive, got {dim}"):
            random_unitary(1, dim)
        with pytest.raises(ValueError, match=f"dim must be positive, got {dim}"):
            random_unitary_stack([1, 2], dim)


class TestCheckRigidity:
    def test_identity_passes(self):
        verdict = check_rigidity(MatrixOperator.identity(3), TOL)
        assert verdict.is_identity
        assert verdict.deviation == 0.0

    def test_nilpotent_perturbation_fails_norm_clause(self):
        a = MatrixOperator(np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]]))
        clause = r"norm clause failed: spectral norm 1\.618033988750 exceeds"
        with pytest.raises(PreconditionError, match=clause):
            check_rigidity(a, TOL)

    def test_each_norm_is_computed_once(self, monkeypatch):
        # ||A|| and ||A - I||, one Gram eigenvalue solve each: the norm clause
        # reads the verdict (the spectrum clause runs eigvals, not eigvalsh)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        check_rigidity(MatrixOperator.identity(8), TOL)
        assert len(calls) == 2

    def test_left_endpoint_resolvent_fails_norm_clause(self):
        # spectrum is exactly {1}, yet no finite grid admits the norm hypothesis
        for n in (4, 16, 64):
            t = resolvent_at_identity(volterra_matrix(n, QuadratureRule.LEFT_ENDPOINT))
            with pytest.raises(PreconditionError, match="norm clause"):
                check_rigidity(t, TOL)

    def test_wrong_spectrum_fails_spectrum_clause(self):
        with pytest.raises(PreconditionError, match="spectrum clause"):
            check_rigidity(MatrixOperator(np.diag([0.5, 1.0])), TOL)

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
            check_rigidity(bad, TOL)

    @pytest.mark.parametrize("t, abs_tol", [(1.5e-9, 1e-9), (1.5e-4, 1e-4)])
    def test_boundary_band_returns_the_verdict(self, t, abs_tol):
        # passes both hypotheses yet is not the identity at abs_tol: the norm
        # excess ~ t/2 stays inside abs_tol while the deviation t lands beyond
        # it, which is exactly what the linear law allows at d = 2
        a = MatrixOperator(np.eye(2) + np.array([[0.0, t], [0.0, 0.0]]))
        verdict = check_rigidity(a, ToleranceConfig(abs_tol=abs_tol, rel_tol=1e-9))
        assert verdict.deviation == pytest.approx(t, rel=1e-12)
        assert verdict.norm_excess <= abs_tol
        assert not verdict.is_identity

    def test_violated_law_raises_computation_error(self, monkeypatch):
        # norms that no unipotent matrix has: no excess, yet a deviation of 1e-3
        monkeypatch.setattr(
            rigidity, "rigidity_gaps", lambda stack: (np.array([0.0]), np.array([1e-3]))
        )
        a = MatrixOperator(np.eye(2) + np.array([[0.0, 1e-3], [0.0, 0.0]]))
        with pytest.raises(ComputationError, match="rigidity law violated"):
            check_rigidity(a, ToleranceConfig(abs_tol=1e-4, rel_tol=1e-9))

    def test_perturbed_spectrum_keeps_the_dichotomy_clause(self):
        # the spectrum is only within abs_tol of 1, where no law is claimed
        a = MatrixOperator(np.array([[1.0, 1.5e-4], [0.0, 1.0 + 1e-10]]))
        with pytest.raises(ComputationError, match="dichotomy"):
            check_rigidity(a, ToleranceConfig(abs_tol=1e-4, rel_tol=1e-9))


class TestLinearLaw:
    """||A - I|| <= sqrt(2d(d-1)) (||A|| - 1) for A = I + N, N nilpotent (Horn-Johnson)."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 10.0])
    def test_law_and_its_field_of_values_step(self, scale):
        eps = np.finfo(np.float64).eps
        for dim in range(2, 17):
            n = random_strict_nilpotent_stack(range(64), dim, scale)
            excess, deviation = rigidity_gaps(np.eye(dim) + n)
            margin = 4 * dim * eps * (1 + excess)
            assert (deviation <= math.sqrt(2 * dim * (dim - 1)) * (excess + margin)).all()
            # ||A|| >= max Re<Ax, x> = 1 + lambda_max of the Hermitian part of N
            hermitian = (n + np.conj(np.swapaxes(n, -1, -2))) / 2
            assert (excess >= np.linalg.eigvalsh(hermitian)[:, -1] - margin).all()

    def test_law_is_sharp_at_dimension_two(self):
        # a constant of sqrt(d(d-1)/2) = 1 would fail here
        verdict = rigidity_gap(MatrixOperator(np.eye(2) + np.array([[0.0, 1e-6], [0.0, 0.0]])))
        assert verdict.deviation / (2 * verdict.norm_excess) >= 0.9999997
