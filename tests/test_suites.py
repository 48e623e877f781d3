"""Tests for the seeded bulk-trial suite runners."""

import math
import tracemalloc

import numpy as np
import pytest

from oba_lab import (
    MatrixOperator,
    ProductElement,
    ToleranceConfig,
    cone_slack,
    prod_involution,
    prod_mul,
    prod_norm,
    random_cone_element,
    random_strict_nilpotent,
    random_unitary,
    rigidity_gap,
    run_axiom_suite,
    run_rigidity_suite,
    spectral_norm,
    unit_element,
)
from oba_lab import suites
from oba_lab.algebra import random_cone_stack

AXIOM_PROPERTIES = {
    "additivity",
    "positive_scaling",
    "multiplicativity",
    "properness",
    "normality",
    "ice_cream_equivalence",
    "cstar_identity",
    "unit_membership",
}

RIGIDITY_PROPERTIES = {
    "trace_bound",
    "dichotomy",
    "identity_gap",
    "golden_ratio",
    "unitary_invariance",
}


def test_axiom_suite_passes_and_covers_all_properties():
    report = run_axiom_suite(trials=300, seed=42)
    assert {r.name for r in report.results} == AXIOM_PROPERTIES
    assert report.all_passed
    for r in report.results:
        assert r.failures == 0
        assert r.worst_slack >= 0


def test_axiom_suite_is_deterministic():
    assert run_axiom_suite(trials=100, seed=7) == run_axiom_suite(trials=100, seed=7)


def test_axiom_suite_trial_counts():
    report = run_axiom_suite(trials=50, seed=1)
    by_name = {r.name: r for r in report.results}
    assert by_name["additivity"].trials == 50
    assert by_name["unit_membership"].trials <= 50


def test_rigidity_suite_passes_and_covers_all_properties():
    report = run_rigidity_suite(trials=300, seed=42)
    assert {r.name for r in report.results} == RIGIDITY_PROPERTIES
    assert report.all_passed


def test_rigidity_suite_is_deterministic():
    assert run_rigidity_suite(trials=100, seed=7) == run_rigidity_suite(trials=100, seed=7)


def test_suites_respect_custom_tolerance():
    tol = ToleranceConfig(abs_tol=1e-6, rel_tol=1e-6)
    assert run_axiom_suite(trials=50, seed=3, tol=tol).all_passed
    assert run_rigidity_suite(trials=50, seed=3, tol=tol).all_passed
    # the caller's tolerance reaches the properties, not only the report:
    # a sum of cone members is tight by exactly abs_tol, and the C*-identity
    # fails on most trials with no relative slack
    loose = run_axiom_suite(trials=50, seed=3, tol=ToleranceConfig(abs_tol=1e-6))
    assert (loose.abs_tol, loose.rel_tol) == (1e-6, 1e-9)
    assert loose.results[0].name == "additivity" and loose.results[0].worst_slack == 1e-6
    exact = run_axiom_suite(trials=50, seed=3, tol=ToleranceConfig(rel_tol=0.0))
    assert (exact.abs_tol, exact.rel_tol) == (1e-9, 0.0)
    failures = {r.name: r.failures for r in exact.results}
    assert failures == {name: 45 if name == "cstar_identity" else 0 for name in AXIOM_PROPERTIES}


def test_nonpositive_trials_rejected():
    with pytest.raises(ValueError):
        run_axiom_suite(trials=0)
    with pytest.raises(ValueError):
        run_rigidity_suite(trials=-5)


# The per-trial oracle restates each property from the public API, one trial
# at a time, with the suite's trial recipe: trial t of property p draws from
# seed (suite_seed * 1_000_003 + p * 65_537 + t) % 2**63, with dimension
# DIMS[t % len(DIMS)] and scale SCALES[t % 4].
DIMS = (2, 3, 4, 5, 6, 7, 8)
RIGIDITY_DIMS = tuple(range(2, 17))
SCALES = (0.5, 1.0, 1.5, 2.0)
LAMBDAS = (0.0, 0.5, 1.0, 2.5, 10.0)
TOL = ToleranceConfig()


def _seed(seed, prop, trial):
    return (seed * 1_000_003 + prop * 65_537 + trial) % (2**63)


def _cone(seed, prop, index, trial):
    return random_cone_element(
        _seed(seed, prop, index), DIMS[trial % len(DIMS)], SCALES[trial % len(SCALES)]
    )


def _slack_inequality(norm, scalar):
    return min(TOL.abs_tol - abs(scalar.imag), scalar.real + TOL.abs_tol - norm)


def _oracle_additivity(seed, prop, t):
    return cone_slack(_cone(seed, prop, 2 * t, t) + _cone(seed, prop, 2 * t + 1, t), TOL)


def _oracle_scaling(seed, prop, t):
    return cone_slack(LAMBDAS[t % len(LAMBDAS)] * _cone(seed, prop, t, t), TOL)


def _oracle_multiplicativity(seed, prop, t):
    return cone_slack(prod_mul(_cone(seed, prop, 2 * t, t), _cone(seed, prop, 2 * t + 1, t)), TOL)


def _oracle_properness(seed, prop, t):
    x = _cone(seed, prop, t, t)
    if prod_norm(x) <= TOL.abs_tol:
        return math.inf
    return -cone_slack(ProductElement(x.op, -x.scalar), TOL)  # -x, since ||-A|| = ||A||


def _oracle_normality(seed, prop, t):
    x, k = _cone(seed, prop, 2 * t, t), _cone(seed, prop, 2 * t + 1, t)
    return prod_norm(x + k) + TOL.abs_tol - prod_norm(x)


def _oracle_ice_cream(seed, prop, t):
    x = _cone(seed, prop, t, t)
    norm_op = spectral_norm(x.op)
    slack = math.inf
    for candidate, expected in ((x, True), (ProductElement(x.op, norm_op - 0.5), False)):
        member = cone_slack(candidate, TOL) >= 0
        norm_bounded = _slack_inequality(prod_norm(candidate), candidate.scalar) >= 0
        if member != norm_bounded or member != expected:
            return -math.inf
        slack = min(slack, abs(norm_op - (candidate.scalar.real + TOL.abs_tol)))
    return slack


def _oracle_cstar(seed, prop, t):
    dim, scale = DIMS[t % len(DIMS)], SCALES[t % len(SCALES)]
    rng = np.random.default_rng(_seed(seed, prop, t))
    mat = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
    xi = complex(rng.standard_normal(), rng.standard_normal()) * scale
    x = ProductElement(MatrixOperator(mat), xi)
    square = prod_norm(x) ** 2
    return TOL.rel_tol * square - abs(prod_norm(prod_mul(prod_involution(x), x)) - square)


def _oracle_unit(seed, prop, t):
    return cone_slack(unit_element(DIMS[t % len(DIMS)]), TOL)


AXIOM_ORACLES = {
    "additivity": _oracle_additivity,
    "positive_scaling": _oracle_scaling,
    "multiplicativity": _oracle_multiplicativity,
    "properness": _oracle_properness,
    "normality": _oracle_normality,
    "ice_cream_equivalence": _oracle_ice_cream,
    "cstar_identity": _oracle_cstar,
    "unit_membership": _oracle_unit,
}


def _rigidity_matrix(seed, prop, t):
    dim = RIGIDITY_DIMS[t % len(RIGIDITY_DIMS)]
    nil = random_strict_nilpotent(_seed(seed, prop, t), dim, SCALES[t % len(SCALES)])
    return dim, nil, MatrixOperator(np.eye(dim) + nil.entries)


def _oracle_trace_bound(seed, t):
    dim, nil, a = _rigidity_matrix(seed, 0, t)
    return spectral_norm(a) ** 2 - 1.0 - np.linalg.norm(nil.entries, "fro") ** 2 / dim + 1e-10


def _oracle_dichotomy(seed, t):
    verdict = rigidity_gap(_rigidity_matrix(seed, 1, t)[2], TOL)
    return verdict.norm_excess if verdict.deviation > 0 else math.inf


def _oracle_unitary(seed, t):
    dim, _, a = _rigidity_matrix(seed, 3, t)
    u = random_unitary(_seed(seed, 4, t), dim).entries
    base = rigidity_gap(a, TOL)
    rotated = rigidity_gap(MatrixOperator(u @ a.entries @ u.conj().T), TOL)
    return min(
        1e-9 - abs(base.norm_excess - rotated.norm_excess),
        1e-9 - abs(base.deviation - rotated.deviation),
    )


def _reduce(slacks, fails_at_zero=False):
    slacks = [float(s) for s in slacks]
    failures = sum(s <= 0 if fails_at_zero else s < 0 for s in slacks)
    return failures, min(slacks).hex()


def _outcome(result):
    return result.failures, result.worst_slack.hex()


# one more trial than fills a block of every dimension group
AXIOM_BOUNDARY = len(DIMS) * suites._BLOCK + 1
RIGIDITY_BOUNDARY = len(RIGIDITY_DIMS) * suites._BLOCK + 1


@pytest.mark.parametrize("seed", [42, 0, 7])
@pytest.mark.parametrize("trials", [1, 7, 8, AXIOM_BOUNDARY])
def test_axiom_suite_matches_per_trial_oracle_bitwise(seed, trials):
    report = run_axiom_suite(trials=trials, seed=seed)
    for prop, result in enumerate(report.results):
        oracle = AXIOM_ORACLES[result.name]
        count = min(trials, len(DIMS)) if result.name == "unit_membership" else trials
        assert result.trials == count
        expected = _reduce(oracle(seed, prop, t) for t in range(count))
        assert _outcome(result) == expected, result.name


@pytest.mark.parametrize("seed", [42, 0, 7])
@pytest.mark.parametrize("trials", [1, 7, 8, RIGIDITY_BOUNDARY])
def test_rigidity_suite_matches_per_trial_oracle_bitwise(seed, trials):
    by_name = {r.name: r for r in run_rigidity_suite(trials=trials, seed=seed).results}
    unitary_count = max(1, trials // 10)
    expected = {
        "trace_bound": _reduce(_oracle_trace_bound(seed, t) for t in range(trials)),
        "dichotomy": _reduce((_oracle_dichotomy(seed, t) for t in range(trials)), True),
        "unitary_invariance": _reduce(_oracle_unitary(seed, t) for t in range(unitary_count)),
    }
    for name, outcome in expected.items():
        assert _outcome(by_name[name]) == outcome, name
    assert by_name["unitary_invariance"].trials == unitary_count


@pytest.mark.parametrize("trials", [1, 200])
def test_rigidity_fixed_cases_are_tallied_once_each(trials):
    """identity_gap counts one identity per dimension; golden_ratio one 2x2 Jordan block."""
    by_name = {r.name: r for r in run_rigidity_suite(trials=trials, seed=0).results}
    assert by_name["identity_gap"] == suites.PropertyResult(
        "identity_gap", len(RIGIDITY_DIMS), 0, 0.0
    )
    golden = rigidity_gap(MatrixOperator(np.array([[1.0, 1.0], [0.0, 1.0]])))
    slack = min(
        1e-9 - abs(golden.norm_excess - ((1 + math.sqrt(5)) / 2 - 1)),
        1e-9 - abs(golden.deviation - 1.0),
    )
    assert slack > 0
    assert by_name["golden_ratio"] == suites.PropertyResult("golden_ratio", 1, 0, slack)


def test_one_trial_blocks_replay_the_suites(monkeypatch):
    """Any trial evaluated alone, as a block of one, gives the same reports."""
    blocked = run_axiom_suite(trials=60, seed=5), run_rigidity_suite(trials=200, seed=5)
    monkeypatch.setattr(suites, "_BLOCK", 1)
    assert (run_axiom_suite(trials=60, seed=5), run_rigidity_suite(trials=200, seed=5)) == blocked


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("scale", [0.0, 1.5])
def test_random_cone_element_is_the_one_element_stack(dim, scale):
    seeds = [3, 17, 2**40 + 1]
    mats, scalars, norms = random_cone_stack(seeds, dim, scale)
    for i, seed in enumerate(seeds):
        x = random_cone_element(seed, dim, scale)
        assert x.op.entries.tobytes() == mats[i].tobytes()
        assert x.scalar == complex(scalars[i]) and x.scalar.imag == 0.0
        assert spectral_norm(x.op) == norms[i]


def test_cone_stack_mixes_scales_per_element():
    scales = [0.0, 1.5, 0.0, 2.0]
    mats, scalars, norms = random_cone_stack([1, 2, 3, 4], 5, scales)
    for i, (seed, scale) in enumerate(zip([1, 2, 3, 4], scales)):
        x = random_cone_element(seed, 5, scale)
        assert x.op.entries.tobytes() == mats[i].tobytes()
        assert x.scalar == complex(scalars[i])
    assert not mats[0].any() and not mats[2].any()
    assert scalars[0] == scalars[2] == norms[0] == norms[2] == 0.0


@pytest.mark.parametrize(
    ("suite", "period"),
    [(run_axiom_suite, len(DIMS)), (run_rigidity_suite, 10 * len(RIGIDITY_DIMS))],
)
def test_suite_memory_is_set_by_the_block_not_the_trial_count(monkeypatch, suite, period):
    """Peak heap at 2 and 4 full blocks per dimension group is the same, and small.

    Blocks of 2 keep the runs short.  The rigidity period carries a factor 10
    because unitary invariance runs trials // 10 trials, whose blocks must be
    full too.  An untraced run first fills the interpreter's free lists, whose
    growth tracemalloc would otherwise count against the larger run.
    """
    monkeypatch.setattr(suites, "_BLOCK", 2)
    counts = [blocks * period * suites._BLOCK for blocks in (2, 4)]
    suite(trials=counts[-1], seed=42)
    peaks = []
    for trials in counts:
        tracemalloc.start()
        try:
            suite(trials=trials, seed=42)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert max(peaks) < 256 * 2**10
