"""Seeded bulk-trial suites over the cone axioms, norm identities, and rigidity families.

Each suite is a table of properties, and one engine runs both tables.  Every
trial derives its own seed from (suite seed, property index, trial index), so
reports are reproducible run to run and individual failures can be replayed in
isolation: a trial run alone, as a block of one, gives the same slack.  Draws
are made per trial; the trials of a property that share a dimension are then
evaluated in blocks, each norm taken over the whole block by one stacked SVD.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .algebra import cone_slack, membership_slack, random_cone_stack, unit_element
from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig
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


# A suite table row: the block slack (seed, prop, trials, tol) -> one slack per
# trial, the trial count of a run of `trials`, and the failure test of a slack.
_Property = namedtuple("_Property", "name slack count failed", defaults=(lambda n: n, np.less))


def _trial_seed(seed: int, prop: int, trial: int) -> int:
    return (seed * 1_000_003 + prop * 65_537 + trial) % (2**63)


def _trial_dim(trial: int) -> int:
    return _DIMS[trial % len(_DIMS)]


def _trial_scales(trials) -> np.ndarray:
    return np.array([_SCALES[t % len(_SCALES)] for t in trials])


def _cone_stack(seed, prop, trials, stride=1, offset=0):
    """Cone members of a block, the one of trial t seeded by trial index stride * t + offset."""
    seeds = [_trial_seed(seed, prop, stride * t + offset) for t in trials]
    return random_cone_stack(seeds, _trial_dim(trials[0]), _trial_scales(trials))


def _cone_pair(seed, prop, trials):
    return _cone_stack(seed, prop, trials, 2, 0), _cone_stack(seed, prop, trials, 2, 1)


def _prod_norms(norms, scalars):
    """`prod_norm` of each element, from its matrix norm and its scalar."""
    return np.maximum(norms, np.abs(scalars))


def _additivity(seed, prop, trials, tol):
    (xm, xs, _), (ym, ys, _) = _cone_pair(seed, prop, trials)
    return membership_slack(spectral_norms(xm + ym), xs + ys, tol)


def _positive_scaling(seed, prop, trials, tol):
    xm, xs, _ = _cone_stack(seed, prop, trials)
    lam = np.array([_LAMBDAS[t % len(_LAMBDAS)] for t in trials])
    return membership_slack(spectral_norms(lam[:, np.newaxis, np.newaxis] * xm), lam * xs, tol)


def _multiplicativity(seed, prop, trials, tol):
    (xm, xs, _), (ym, ys, _) = _cone_pair(seed, prop, trials)
    return membership_slack(spectral_norms(xm @ ym), xs * ys, tol)


def _properness(seed, prop, trials, tol):
    _, xs, xn = _cone_stack(seed, prop, trials)
    # ||-A|| = ||A||, so -x must miss membership by its real-part slack alone;
    # the test is vacuous at the cone tip
    tip = _prod_norms(xn, xs) <= tol.abs_tol
    return np.where(tip, math.inf, -membership_slack(xn, -xs, tol))


def _normality(seed, prop, trials, tol):
    (xm, xs, xn), (km, ks, _) = _cone_pair(seed, prop, trials)
    # 0 <= x <= x + k by construction; the norm must be monotone with constant 1
    return _prod_norms(spectral_norms(xm + km), xs + ks) + tol.abs_tol - _prod_norms(xn, xs)


def _ice_cream_equivalence(seed, prop, trials, tol):
    _, xs, xn = _cone_stack(seed, prop, trials)
    agrees = np.ones(len(trials), dtype=bool)
    slack = np.full(len(trials), math.inf)
    # x is a cone member, the candidate with scalar ||A|| - 0.5 deliberately is not
    for scalar, expected in ((xs, True), (xn - 0.5, False)):
        member = membership_slack(xn, scalar, tol) >= 0
        norm_bounded = membership_slack(_prod_norms(xn, scalar), scalar, tol) >= 0
        agrees &= (member == norm_bounded) & (member == expected)
        slack = np.minimum(slack, np.abs(xn - (scalar + tol.abs_tol)))
    return np.where(agrees, slack, -math.inf)


def _cstar_identity(seed, prop, trials, tol):
    """||x* x|| = ||x||^2 on generic (not necessarily cone) elements."""
    dim = _trial_dim(trials[0])
    mats = np.empty((len(trials), dim, dim), dtype=np.complex128)
    scalars = []
    for i, t in enumerate(trials):
        scale = _SCALES[t % len(_SCALES)]
        rng = np.random.default_rng(_trial_seed(seed, prop, t))
        mats[i] = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
        scalars.append(complex(rng.standard_normal(), rng.standard_normal()) * scale)
    norms = spectral_norms(mats).tolist()
    gram_norms = spectral_norms(np.swapaxes(mats.conj(), 1, 2) @ mats).tolist()
    # The scalar arithmetic stays per trial in Python: numpy's vectorized
    # complex product, complex abs and square round differently in the last bit.
    slack = []
    for norm, gram_norm, xi in zip(norms, gram_norms, scalars):
        square = max(norm, abs(xi)) ** 2
        defect = abs(max(gram_norm, abs(xi.conjugate() * xi)) - square)
        slack.append(tol.rel_tol * square - defect)
    return np.array(slack)


def _unit_membership(seed, prop, trials, tol):
    return np.full(len(trials), cone_slack(unit_element(_trial_dim(trials[0])), tol))


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


def _rigidity_family(seed: int, prop: int, trials):
    """Dimension, nilpotent parts N and matrices I + N of a block of rigidity trials."""
    dim = _RIGIDITY_DIMS[trials[0] % len(_RIGIDITY_DIMS)]
    seeds = [_trial_seed(seed, prop, t) for t in trials]
    nil = random_strict_nilpotent_stack(seeds, dim, _trial_scales(trials))
    return dim, nil, np.eye(dim) + nil


def _trace_bound(seed, prop, trials, tol):
    dim, nil, a = _rigidity_family(seed, prop, trials)
    # Python's power and the per-matrix Frobenius norm round differently from
    # their vectorized forms, so this arithmetic stays per trial.
    return np.array([
        norm ** 2 - 1.0 - np.linalg.norm(n, "fro") ** 2 / dim + 1e-10
        for norm, n in zip(spectral_norms(a).tolist(), nil)
    ])


def _dichotomy(seed, prop, trials, tol):
    _, _, a = _rigidity_family(seed, prop, trials)
    norm_excess, deviation = rigidity_gaps(a)
    return np.where(deviation > 0, norm_excess, math.inf)


def _identity_gap(seed, prop, trials, tol):
    """The identity of each trial's dimension: exactly no excess and no deviation."""
    dim = _RIGIDITY_DIMS[trials[0] % len(_RIGIDITY_DIMS)]
    verdict = rigidity_gap(MatrixOperator.identity(dim), tol)
    ok = verdict.is_identity and verdict.norm_excess == 0.0 and verdict.deviation == 0.0
    return np.full(len(trials), 0.0 if ok else -math.inf)


def _golden_ratio(seed, prop, trials, tol):
    """I + E_12: norm excess the golden ratio minus 1, deviation 1."""
    golden = rigidity_gap(MatrixOperator(np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]])), tol)
    slack = min(
        1e-9 - abs(golden.norm_excess - ((1 + math.sqrt(5)) / 2 - 1)),
        1e-9 - abs(golden.deviation - 1.0),
    )
    return np.full(len(trials), slack)


def _unitary_invariance(seed, prop, trials, tol):
    # seed streams 3 (the family; row 3, golden_ratio, draws none) and 4 (the unitaries)
    dim, _, a = _rigidity_family(seed, 3, trials)
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


def _run_suite(suite: str, checks, period: int, trials: int, seed: int, tol) -> SuiteReport:
    """Every property of `checks`, its trials grouped by `trial % period` in blocks of _BLOCK.

    Suite dimensions cycle with the trial index, so every block shares one
    dimension and its matrices can be normed as one stack.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    results = []
    for prop, (name, block_slack, trial_count, failed) in enumerate(checks):
        count, failures, worst = trial_count(trials), 0, math.inf
        for residue in range(min(count, period)):
            group = range(residue, count, period)
            for start in range(0, len(group), _BLOCK):
                slack = block_slack(seed, prop, group[start : start + _BLOCK], tol)
                failures += int(np.count_nonzero(failed(slack, 0)))
                worst = min(worst, float(slack.min()))
        results.append(PropertyResult(name, count, failures, worst))
    return SuiteReport(suite, seed, trials, tol.abs_tol, tol.rel_tol, tuple(results))


def run_axiom_suite(
    trials: int = 10_000, seed: int = 42, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SuiteReport:
    """Run every cone-axiom property for `trials` seeded trials each."""
    return _run_suite("axioms", _AXIOM_CHECKS, len(_DIMS), trials, seed, tol)


def run_rigidity_suite(
    trials: int = 10_000, seed: int = 42, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SuiteReport:
    """Trace-bound, dichotomy, identity, golden-ratio, and unitary-invariance trials."""
    return _run_suite("rigidity", _RIGIDITY_CHECKS, len(_RIGIDITY_DIMS), trials, seed, tol)
