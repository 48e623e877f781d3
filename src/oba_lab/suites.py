"""Seeded bulk-trial suites over the cone axioms, norm identities, and rigidity families.

Each suite is a table of properties, and one engine runs both tables.  Every
trial derives its own seed from (suite seed, property index, trial index), so
reports are reproducible run to run and individual failures can be replayed in
isolation: a trial run alone, as a block of one, gives the same slack.  Every
trial's draws come from its row of `_seeding.seeded_draws`; the trials of a
property that share a dimension are evaluated in blocks, each norm taken
over the whole block by one stacked Gram eigenvalue solve.  These groups run
in forked worker processes, one per CPU, and fold into the report a serial
run gives.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._seeding import seeded_draws
from .algebra import cone_slack, membership_slack, random_cone_stack, unit_element
from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig, _integer
from .rigidity import (
    random_strict_nilpotent_stack,
    random_unitary_stack,
    rigidity_gap,
    rigidity_gaps,
)
from .spectral import spectral_norms

_DIMS = (2, 3, 4, 5, 6, 7, 8)
_SCALES = (0.5, 1.0, 1.5, 2.0)
_LAMBDAS = (0.0, 0.5, 1.0, 2.5, 10.0)
_RIGIDITY_DIMS = tuple(range(2, 17))
# Trials evaluated together.  128 amortizes the per-call overhead of the
# stacked norms as well as 256 does, and keeps peak memory within 2 MB of the
# one-trial-at-a-time loop; 256 added another 2 MB at dim 16.
_BLOCK = 128


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property over its trials; worst_slack < 0 means a violation."""

    name: str
    trials: int
    failures: int
    worst_slack: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    trials: int
    abs_tol: float
    rel_tol: float
    results: tuple[PropertyResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


# A suite table row: the block slack (seed, prop, trials, dim, tol) -> one slack
# per trial of a block of dimension `dim`, the trial count of a run of
# `trials`, and the failure test of a slack.
_Property = namedtuple("_Property", "name slack count failed", defaults=(lambda n: n, np.less))


def _trial_seed(seed: int, prop: int, trial: int) -> int:
    return (seed * 1_000_003 + prop * 65_537 + trial) % (2**63)


def _trial_scales(trials) -> np.ndarray:
    return np.array([_SCALES[t % len(_SCALES)] for t in trials])


def _cone_stack(seed, prop, trials, dim, stride=1, offset=0):
    """Cone members of a block, the one of trial t seeded by trial index stride * t + offset."""
    seeds = [_trial_seed(seed, prop, stride * t + offset) for t in trials]
    return random_cone_stack(seeds, dim, _trial_scales(trials))


def _cone_pair(seed, prop, trials, dim):
    return _cone_stack(seed, prop, trials, dim, 2, 0), _cone_stack(seed, prop, trials, dim, 2, 1)


def _prod_norms(norms, scalars):
    """`prod_norm` of each element, from its matrix norm and its scalar."""
    return np.maximum(norms, np.abs(scalars))


def _additivity(seed, prop, trials, dim, tol):
    (xm, xs, _), (ym, ys, _) = _cone_pair(seed, prop, trials, dim)
    return membership_slack(spectral_norms(xm + ym), xs + ys, tol)


def _positive_scaling(seed, prop, trials, dim, tol):
    xm, xs, _ = _cone_stack(seed, prop, trials, dim)
    lam = np.array([_LAMBDAS[t % len(_LAMBDAS)] for t in trials])
    return membership_slack(spectral_norms(lam[:, np.newaxis, np.newaxis] * xm), lam * xs, tol)


def _multiplicativity(seed, prop, trials, dim, tol):
    (xm, xs, _), (ym, ys, _) = _cone_pair(seed, prop, trials, dim)
    return membership_slack(spectral_norms(xm @ ym), xs * ys, tol)


def _properness(seed, prop, trials, dim, tol):
    _, xs, xn = _cone_stack(seed, prop, trials, dim)
    # ||-A|| = ||A||, so -x must miss membership by its real-part slack alone;
    # the test is vacuous at the cone tip
    tip = _prod_norms(xn, xs) <= tol.abs_tol
    return np.where(tip, math.inf, -membership_slack(xn, -xs, tol))


def _normality(seed, prop, trials, dim, tol):
    (xm, xs, xn), (km, ks, _) = _cone_pair(seed, prop, trials, dim)
    # 0 <= x <= x + k by construction; the norm must be monotone with constant 1
    return _prod_norms(spectral_norms(xm + km), xs + ks) + tol.abs_tol - _prod_norms(xn, xs)


def _ice_cream_equivalence(seed, prop, trials, dim, tol):
    _, xs, xn = _cone_stack(seed, prop, trials, dim)
    agrees = np.ones(len(trials), dtype=bool)
    slack = np.full(len(trials), math.inf)
    # x is a cone member, the candidate with scalar ||A|| - 0.5 deliberately is not
    for scalar, expected in ((xs, True), (xn - 0.5, False)):
        member = membership_slack(xn, scalar, tol) >= 0
        norm_bounded = membership_slack(_prod_norms(xn, scalar), scalar, tol) >= 0
        agrees &= (member == norm_bounded) & (member == expected)
        slack = np.minimum(slack, np.abs(xn - (scalar + tol.abs_tol)))
    return np.where(agrees, slack, -math.inf)


def _cstar_identity(seed, prop, trials, dim, tol):
    """||x* x|| = ||x||^2 on generic (not necessarily cone) elements."""
    size = dim * dim
    # the matrix's real and imaginary parts, then the scalar's
    seeds = [_trial_seed(seed, prop, t) for t in trials]
    normals, _ = seeded_draws(seeds, 2 * size + 2)
    scales = _trial_scales(trials)
    mats = (normals[:, :size] + 1j * normals[:, size : 2 * size]) * scales[:, np.newaxis]
    mats = mats.reshape(len(trials), dim, dim)
    re, im = normals[:, -2] * scales, normals[:, -1] * scales
    # |xi| is np.hypot, the modulus Python's abs(complex) takes; np.abs of a
    # complex array rounds differently in the last bit.  |conj(xi) xi| is
    # re^2 + im^2 exactly as the complex product forms it.
    top = np.maximum(spectral_norms(mats), np.hypot(re, im))
    square = top * top  # correctly rounded, unlike ** (libm pow)
    gram_norms = spectral_norms(np.swapaxes(mats.conj(), 1, 2) @ mats)
    # a finite rel_tol as large as 1e308 takes the product past the largest
    # float: +inf is then the right slack, and no warning is due
    with np.errstate(over="ignore"):
        allowed = tol.rel_tol * square
    return allowed - np.abs(np.maximum(gram_norms, re * re + im * im) - square)


def _unit_membership(seed, prop, trials, dim, tol):
    return np.full(len(trials), cone_slack(unit_element(dim), tol))


_AXIOM_CHECKS = (
    _Property("additivity", _additivity),
    _Property("positive_scaling", _positive_scaling),
    _Property("multiplicativity", _multiplicativity),
    _Property("properness", _properness),
    _Property("normality", _normality),
    _Property("ice_cream_equivalence", _ice_cream_equivalence),
    _Property("cstar_identity", _cstar_identity),
    # the unit's slack depends on the dimension alone: one trial per dimension
    _Property("unit_membership", _unit_membership, lambda trials: min(trials, len(_DIMS))),
)


def _rigidity_family(seed: int, prop: int, trials, dim: int):
    """Nilpotent parts N and matrices I + N of a block of rigidity trials."""
    seeds = [_trial_seed(seed, prop, t) for t in trials]
    nil = random_strict_nilpotent_stack(seeds, dim, _trial_scales(trials))
    return nil, np.eye(dim) + nil


def _frobenius_norms(stack) -> np.ndarray:
    """`np.linalg.norm(m, "fro")` of each complex matrix m of the stack, bit for bit."""
    # That norm adds the dot products of m's real and of its imaginary parts; a
    # stacked (1, k) @ (k, 1) matmul calls the same dot kernel on the same
    # strided views, where einsum would sum in another order.
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0, 0])


def _trace_bound(seed, prop, trials, dim, tol):
    nil, a = _rigidity_family(seed, prop, trials, dim)
    norms, fro = spectral_norms(a), _frobenius_norms(nil)
    # x * x, unlike ** (libm pow), is correctly rounded
    return norms * norms - 1.0 - fro * fro / dim + 1e-10


def _dichotomy(seed, prop, trials, dim, tol):
    _, a = _rigidity_family(seed, prop, trials, dim)
    norm_excess, deviation = rigidity_gaps(a)
    return np.where(deviation > 0, norm_excess, math.inf)


def _identity_gap(seed, prop, trials, dim, tol):
    """The identity of the block's dimension: exactly no excess and no deviation."""
    verdict = rigidity_gap(MatrixOperator.identity(dim), tol)
    ok = verdict.is_identity and verdict.norm_excess == 0.0 and verdict.deviation == 0.0
    return np.full(len(trials), 0.0 if ok else -math.inf)


def _golden_ratio(seed, prop, trials, dim, tol):
    """I + E_12: norm excess the golden ratio minus 1, deviation 1."""
    golden = rigidity_gap(MatrixOperator(np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]])), tol)
    slack = min(
        1e-9 - abs(golden.norm_excess - ((1 + math.sqrt(5)) / 2 - 1)),
        1e-9 - abs(golden.deviation - 1.0),
    )
    return np.full(len(trials), slack)


def _unitary_invariance(seed, prop, trials, dim, tol):
    # seed streams 3 (the family; row 3, golden_ratio, draws none) and 4 (the unitaries)
    _, a = _rigidity_family(seed, 3, trials, dim)
    u = random_unitary_stack([_trial_seed(seed, 4, t) for t in trials], dim)
    base = rigidity_gaps(a)
    rotated = rigidity_gaps(u @ a @ np.swapaxes(u.conj(), 1, 2))
    return np.minimum(1e-9 - np.abs(base[0] - rotated[0]), 1e-9 - np.abs(base[1] - rotated[1]))


_RIGIDITY_CHECKS = (
    _Property("trace_bound", _trace_bound),
    # a nonzero nilpotent part must push the norm strictly above 1
    _Property("dichotomy", _dichotomy, failed=np.less_equal),
    # one trial per dimension, each its own block
    _Property("identity_gap", _identity_gap, lambda trials: len(_RIGIDITY_DIMS)),
    _Property("golden_ratio", _golden_ratio, lambda trials: 1),
    _Property("unitary_invariance", _unitary_invariance, lambda trials: max(1, trials // 10)),
)


# Each suite's property table and the dimensions its trials cycle through.
_SUITES = {"axioms": (_AXIOM_CHECKS, _DIMS), "rigidity": (_RIGIDITY_CHECKS, _RIGIDITY_DIMS)}


def _cpu_count() -> int:
    """CPUs a suite run may fork workers onto; 1, so it runs inline, where the
    process cannot read its affinity (Windows and macOS, whose default start
    method is not `fork`)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _group_tally(task) -> tuple[int, float]:
    """Failures and worst slack of one property's trials of dimension `dims[residue]`, by block."""
    suite, prop, residue, trials, seed, tol = task
    checks, dims = _SUITES[suite]
    _, block_slack, trial_count, failed = checks[prop]
    group = range(residue, trial_count(trials), len(dims))
    failures, worst = 0, math.inf
    for start in range(0, len(group), _BLOCK):
        slack = block_slack(seed, prop, group[start : start + _BLOCK], dims[residue], tol)
        failures += int(np.count_nonzero(failed(slack, 0)))
        worst = min(worst, float(slack.min()))
    return failures, worst


def _tally_groups(tasks) -> list[tuple[int, float]]:
    """`_group_tally` of each task, in a forked pool of one worker per CPU, or inline."""
    workers = min(_cpu_count(), len(tasks))
    if workers < 2:
        return list(map(_group_tally, tasks))
    import multiprocessing  # here, not at module level: the import alone takes about 19 ms

    # loaded once in the parent, so the forked workers share its pages instead
    # of each importing it (about 6 MB) at its first draw
    import numpy.random

    # leaving the block terminates and joins the workers, also when a task raised
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(_group_tally, tasks, chunksize=1)


def _run_suite(suite: str, trials: int, seed: int, tol) -> SuiteReport:
    """Every property of the suite, its trials grouped by dimension (`trial % len(dims)`).

    Suite dimensions cycle with the trial index, so every block of a group
    shares one dimension, which the engine hands to the row, and its matrices
    can be normed as one stack; `_SUITES` is the one place a suite's dimension
    cycle lives.  The groups run largest dimension first, and their tallies
    are folded in trial order, so the report is the serial loop's whatever the
    worker count: even a tie between 0.0 and -0.0 resolves the same way.
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    # `_trial_seed` wraps trial indices mod 2^63, and past it the trial ranges'
    # lengths overflow
    if trials >= 2**63:
        raise ValueError(f"trials must be below 2^63, got {trials}")
    if not isinstance(tol, ToleranceConfig):
        raise TypeError(f"tol must be a ToleranceConfig, got {tol!r}")
    checks, dims = _SUITES[suite]
    counts = [check.count(trials) for check in checks]
    tasks = [
        (suite, prop, residue, trials, seed, tol)
        for prop, count in enumerate(counts)
        for residue in range(min(count, len(dims)))
    ]
    queued = sorted(tasks, key=lambda task: -dims[task[2]])
    tallies = dict(zip(queued, _tally_groups(queued)))
    failures, worst = [0] * len(checks), [math.inf] * len(checks)
    for task in tasks:
        prop, (group_failures, group_worst) = task[1], tallies[task]
        failures[prop] += group_failures
        worst[prop] = min(worst[prop], group_worst)
    results = tuple(map(PropertyResult, (c.name for c in checks), counts, failures, worst))
    return SuiteReport(suite, seed, trials, tol.abs_tol, tol.rel_tol, results)


def run_axiom_suite(
    trials: int = 10_000, seed: int = 42, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SuiteReport:
    """Run every cone-axiom property for `trials` seeded trials each."""
    return _run_suite("axioms", trials, seed, tol)


def run_rigidity_suite(
    trials: int = 10_000, seed: int = 42, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SuiteReport:
    """Trace-bound, dichotomy, identity, golden-ratio, and unitary-invariance trials."""
    return _run_suite("rigidity", trials, seed, tol)
