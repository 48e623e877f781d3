"""Tests for the seeded bulk-trial suite runners."""

import json
import math
import multiprocessing
import os
import tracemalloc
import warnings

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
from oba_lab import cli, suites
from oba_lab._seeding import seeded_draws
from oba_lab.algebra import random_cone_stack
from oba_lab.rigidity import random_strict_nilpotent_stack

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
    exact_tol = ToleranceConfig(rel_tol=0.0)
    exact = run_axiom_suite(trials=50, seed=3, tol=exact_tol)
    assert (exact.abs_tol, exact.rel_tol) == (1e-9, 0.0)
    failures = {r.name: r.failures for r in exact.results}
    # which trials fail is a rounding coin flip that depends on the BLAS kernel,
    # so the count comes from the per-trial oracle under the same kernel
    prop = [r.name for r in exact.results].index("cstar_identity")
    cstar = sum(_oracle_cstar(3, prop, t, exact_tol) < 0 for t in range(50))
    assert cstar > 0
    assert failures == {name: cstar if name == "cstar_identity" else 0 for name in AXIOM_PROPERTIES}


def test_nonpositive_trials_rejected():
    with pytest.raises(ValueError):
        run_axiom_suite(trials=0)
    with pytest.raises(ValueError):
        run_rigidity_suite(trials=-5)


@pytest.mark.parametrize(("suite", "seed"), [(run_axiom_suite, 3), (run_rigidity_suite, 0)])
def test_numpy_integer_seeds_are_accepted(suite, seed):
    report = suite(trials=3, seed=np.int64(seed))
    assert type(report.seed) is int and report == suite(trials=3, seed=seed)


@pytest.mark.parametrize(
    ("command", "suite"), [("axioms", run_axiom_suite), ("rigidity", run_rigidity_suite)]
)
def test_numpy_integer_trial_counts_are_stored_as_int(command, suite):
    report = suite(trials=np.int64(3), seed=0)
    assert type(report.trials) is int and all(type(r.trials) is int for r in report.results)
    args = cli._build_parser().parse_args([command, "--no-timestamp"])
    record, *_ = cli._run_suite(lambda *_: report, args)
    assert json.loads(json.dumps(record))["trials"] == 3


@pytest.mark.parametrize("slack", [math.inf, -math.inf, math.nan])
def test_a_non_finite_worst_slack_is_an_empty_csv_cell_and_json_null(slack):
    report = suites.SuiteReport("axioms", 42, 3, 1e-9, 1e-9, (
        suites.PropertyResult("additivity", 3, 0, 1e-9),
        suites.PropertyResult("cstar_identity", 3, 1, slack),
    ))
    text = {}
    for fmt in ("json", "csv"):
        args = cli._build_parser().parse_args(["axioms", "--format", fmt, "--no-timestamp"])
        text[fmt] = cli.render(args, *cli._run_suite(lambda *_: report, args))
    properties = json.loads(text["json"])["report"]["properties"]
    assert [p["worst_slack"] for p in properties] == [1e-9, None]
    assert text["csv"] == (
        "name,trials,failures,worst_slack,passed\n"
        "additivity,3,0,1e-09,true\n"
        "cstar_identity,3,1,,false\n"
    )


@pytest.mark.parametrize("suite", [run_axiom_suite, run_rigidity_suite])
def test_non_integer_seeds_and_trials_are_named(suite):
    with pytest.raises(TypeError, match="trials must be an integer, got 2.5"):
        suite(trials=2.5)
    with pytest.raises(TypeError, match="seed must be an integer, got 1.5"):
        suite(trials=3, seed=1.5)


@pytest.mark.parametrize("suite", [run_axiom_suite, run_rigidity_suite])
def test_a_bare_float_tolerance_is_named_before_any_group_runs(suite, monkeypatch):
    def no_tally(tasks):
        raise AssertionError("a group ran before tol was checked")

    monkeypatch.setattr(suites, "_tally_groups", no_tally)
    with pytest.raises(TypeError, match="tol must be a ToleranceConfig, got 1e-06"):
        suite(trials=3, tol=1e-6)


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


def _oracle_cstar(seed, prop, t, tol=TOL):
    dim, scale = DIMS[t % len(DIMS)], SCALES[t % len(SCALES)]
    rng = np.random.default_rng(_seed(seed, prop, t))
    mat = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
    xi = complex(rng.standard_normal(), rng.standard_normal()) * scale
    x = ProductElement(MatrixOperator(mat), xi)
    square = prod_norm(x) ** 2
    return tol.rel_tol * square - abs(prod_norm(prod_mul(prod_involution(x), x)) - square)


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


def test_block_arithmetic_is_the_per_trial_arithmetic_bitwise():
    """The whole-block forms the C*-identity and trace-bound rows rest on.

    |xi| as np.hypot, |conj(xi) xi| as re^2 + im^2, and the stacked-matmul
    Frobenius norm give bit for bit the per-trial Python and numpy values, at
    every suite scale and every rigidity dimension.  A numpy or BLAS kernel
    that changes one of them fails here by name, before the oracle tests fail
    on a hex mismatch.
    """
    scales = np.resize(SCALES, 20_000)
    normals, _ = seeded_draws(range(len(scales)), 2)
    re, im = normals[:, 0] * scales, normals[:, 1] * scales
    xis = [complex(a, b) * s for (a, b), s in zip(normals.tolist(), scales.tolist())]
    assert np.hypot(re, im).tolist() == [abs(xi) for xi in xis]
    assert (re * re + im * im).tolist() == [abs(xi.conjugate() * xi) for xi in xis]
    for dim in RIGIDITY_DIMS:
        seeds = [_seed(dim, 0, t) for t in range(64)]
        nil = random_strict_nilpotent_stack(seeds, dim, np.resize(SCALES, len(seeds)))
        expected = [np.linalg.norm(n, "fro") for n in nil]
        assert suites._frobenius_norms(nil).tolist() == expected, dim


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
    tracemalloc sees this process only, so the groups run inline, through the
    same per-group loop a worker runs.
    """
    monkeypatch.setattr(suites, "_cpu_count", lambda: 1)
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


# The suites fork one worker per CPU; `_cpu_count` pins the worker count.
forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool forks")


@forks
@pytest.mark.parametrize(
    ("command", "suite", "trials"),
    [
        ("axioms", run_axiom_suite, 300),
        ("axioms", run_axiom_suite, AXIOM_BOUNDARY),
        ("rigidity", run_rigidity_suite, 300),
        ("rigidity", run_rigidity_suite, RIGIDITY_BOUNDARY),
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, command, suite, trials, seed):
    """One, two and eight workers (more than there are cores) give equal
    reports and byte-identical output.  At 300 trials every group ends in a
    partial block; at the boundary counts the first group ends in a block of
    one."""
    outcomes = []
    for cpus in (1, 2, 8):
        monkeypatch.setattr(suites, "_cpu_count", lambda: cpus)
        report = suite(trials=trials, seed=seed)
        args = cli._build_parser().parse_args(
            [command, "--trials", str(trials), "--seed", str(seed), "--no-timestamp"]
        )
        outcomes.append((report, cli.render(args, *cli._run_suite(lambda *_: report, args))))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert multiprocessing.active_children() == []


class BlockSlackError(Exception):
    pass


@forks
def test_a_worker_exception_reaches_the_caller(monkeypatch):
    """Raised in a worker only, so the test fails if the groups ran inline."""
    parent = os.getpid()
    norms = suites.spectral_norms

    def failing(mats):
        if os.getpid() != parent:
            raise BlockSlackError(f"no norm for a block of {len(mats)}")
        return norms(mats)

    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    monkeypatch.setattr(suites, "spectral_norms", failing)
    with pytest.raises(BlockSlackError) as info:
        run_axiom_suite(trials=3 * len(DIMS), seed=1)
    assert type(info.value) is BlockSlackError
    assert str(info.value) == "no norm for a block of 3"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=forks)])
def test_a_finite_relative_tolerance_never_warns(monkeypatch, cpus):
    """At rel_tol = 1e308 the C*-identity's allowance rel_tol ||x||^2 passes
    the largest float.  It saturates to +inf, the right slack, without a
    warning: with warnings as errors the suite runs inline and pooled, and
    every property passes."""
    monkeypatch.setattr(suites, "_cpu_count", lambda: cpus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_axiom_suite(trials=200, seed=42, tol=ToleranceConfig(rel_tol=1e308))
    assert report.all_passed
    assert multiprocessing.active_children() == []
