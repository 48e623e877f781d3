"""Seeded bulk-trial suites over the cone axioms, norm identities, and rigidity families.

Every trial derives its own seed from (suite seed, property index, trial
index), so reports are reproducible run to run and individual failures can be
replayed in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ProductElement,
    cone_slack,
    membership_slack,
    prod_involution,
    prod_mul,
    prod_norm,
    random_cone_element,
    unit_element,
)
from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig
from .rigidity import random_strict_nilpotent, random_unitary, rigidity_gap
from .spectral import spectral_norm

_DIMS = (2, 3, 4, 5, 6, 7, 8)
_SCALES = (0.5, 1.0, 1.5, 2.0)
_LAMBDAS = (0.0, 0.5, 1.0, 2.5, 10.0)
_RIGIDITY_DIMS = tuple(range(2, 17))


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


def _trial_seed(seed: int, prop: int, trial: int) -> int:
    return (seed * 1_000_003 + prop * 65_537 + trial) % (2**63)


def _trial_dim(trial: int) -> int:
    return _DIMS[trial % len(_DIMS)]


def _trial_scale(trial: int) -> float:
    return _SCALES[trial % len(_SCALES)]


def _random_element(seed: int, dim: int, scale: float) -> ProductElement:
    """Generic (not necessarily cone) element for norm-identity trials."""
    rng = np.random.default_rng(seed)
    mat = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
    xi = complex(rng.standard_normal(), rng.standard_normal()) * scale
    return ProductElement(MatrixOperator(mat), xi)


def _check_additivity(seed, prop, trial, tol):
    dim, scale = _trial_dim(trial), _trial_scale(trial)
    x = random_cone_element(_trial_seed(seed, prop, 2 * trial), dim, scale)
    y = random_cone_element(_trial_seed(seed, prop, 2 * trial + 1), dim, scale)
    return cone_slack(x + y, tol)


def _check_scaling(seed, prop, trial, tol):
    x = random_cone_element(_trial_seed(seed, prop, trial), _trial_dim(trial), _trial_scale(trial))
    lam = _LAMBDAS[trial % len(_LAMBDAS)]
    return cone_slack(lam * x, tol)


def _check_multiplicativity(seed, prop, trial, tol):
    dim, scale = _trial_dim(trial), _trial_scale(trial)
    x = random_cone_element(_trial_seed(seed, prop, 2 * trial), dim, scale)
    y = random_cone_element(_trial_seed(seed, prop, 2 * trial + 1), dim, scale)
    return cone_slack(prod_mul(x, y), tol)


def _check_properness(seed, prop, trial, tol):
    x = random_cone_element(_trial_seed(seed, prop, trial), _trial_dim(trial), _trial_scale(trial))
    norm_op = spectral_norm(x.op)  # ||-A|| = ||A||: one SVD serves x and -x
    if max(norm_op, abs(x.scalar)) <= tol.abs_tol:
        return math.inf  # vacuous at the cone tip
    # -x must miss membership: its real-part slack has to be negative
    return -membership_slack(norm_op, -x.scalar, tol)


def _check_normality(seed, prop, trial, tol):
    dim, scale = _trial_dim(trial), _trial_scale(trial)
    x = random_cone_element(_trial_seed(seed, prop, 2 * trial), dim, scale)
    k = random_cone_element(_trial_seed(seed, prop, 2 * trial + 1), dim, scale)
    # 0 <= x <= x + k by construction; the norm must be monotone with constant 1
    return prod_norm(x + k) + tol.abs_tol - prod_norm(x)


def _check_ice_cream(seed, prop, trial, tol):
    x = random_cone_element(_trial_seed(seed, prop, trial), _trial_dim(trial), _trial_scale(trial))
    norm_op = spectral_norm(x.op)
    slack = math.inf
    for candidate in (x, ProductElement(x.op, norm_op - 0.5)):
        member = membership_slack(norm_op, candidate.scalar, tol) >= 0
        prod = max(norm_op, abs(candidate.scalar))  # prod_norm(candidate), one SVD fewer
        norm_bounded = membership_slack(prod, candidate.scalar, tol) >= 0
        # x is a cone member, the shifted candidate deliberately is not
        expected = candidate is x
        if member != norm_bounded or member != expected:
            return -math.inf
        slack = min(slack, abs(norm_op - (candidate.scalar.real + tol.abs_tol)))
    return slack


def _check_cstar(seed, prop, trial, tol):
    x = _random_element(_trial_seed(seed, prop, trial), _trial_dim(trial), _trial_scale(trial))
    square = prod_norm(x) ** 2
    defect = abs(prod_norm(prod_mul(prod_involution(x), x)) - square)
    return tol.rel_tol * square - defect


def _check_unit_membership(seed, prop, trial, tol):
    return cone_slack(unit_element(_trial_dim(trial)), tol)


_AXIOM_CHECKS = (
    ("additivity", _check_additivity),
    ("positive_scaling", _check_scaling),
    ("multiplicativity", _check_multiplicativity),
    ("properness", _check_properness),
    ("normality", _check_normality),
    ("ice_cream_equivalence", _check_ice_cream),
    ("cstar_identity", _check_cstar),
    ("unit_membership", _check_unit_membership),
)


def run_axiom_suite(
    trials: int = 10_000, seed: int = 42, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SuiteReport:
    """Run every cone-axiom property for `trials` seeded trials each."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    results = []
    for prop, (name, check) in enumerate(_AXIOM_CHECKS):
        count = min(trials, len(_DIMS)) if name == "unit_membership" else trials
        failures = 0
        worst = math.inf
        for trial in range(count):
            slack = float(check(seed, prop, trial, tol))
            if slack < 0:
                failures += 1
            worst = min(worst, slack)
        results.append(PropertyResult(name, count, failures, worst))
    return SuiteReport("axioms", seed, trials, tol.abs_tol, tol.rel_tol, tuple(results))


def _rigidity_family(seed: int, prop: int, trial: int):
    dim = _RIGIDITY_DIMS[trial % len(_RIGIDITY_DIMS)]
    scale = _SCALES[trial % len(_SCALES)]
    nil = random_strict_nilpotent(_trial_seed(seed, prop, trial), dim, scale)
    return dim, nil, MatrixOperator(np.eye(dim) + nil.entries)


def run_rigidity_suite(
    trials: int = 10_000, seed: int = 42, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SuiteReport:
    """Trace-bound, dichotomy, identity, golden-ratio, and unitary-invariance trials."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    results = []

    failures, worst = 0, math.inf
    for trial in range(trials):
        dim, nil, a = _rigidity_family(seed, 0, trial)
        slack = (
            spectral_norm(a) ** 2
            - 1.0
            - np.linalg.norm(nil.entries, "fro") ** 2 / dim
            + 1e-10
        )
        failures += bool(slack < 0)
        worst = min(worst, float(slack))
    results.append(PropertyResult("trace_bound", trials, failures, worst))

    failures, worst = 0, math.inf
    for trial in range(trials):
        _, _, a = _rigidity_family(seed, 1, trial)
        verdict = rigidity_gap(a, tol)
        slack = verdict.norm_excess if verdict.deviation > 0 else math.inf
        failures += bool(slack <= 0)
        worst = min(worst, float(slack))
    results.append(PropertyResult("dichotomy", trials, failures, worst))

    failures, worst = 0, math.inf
    for dim in _RIGIDITY_DIMS:
        verdict = rigidity_gap(MatrixOperator.identity(dim), tol)
        ok = verdict.is_identity and verdict.norm_excess == 0.0 and verdict.deviation == 0.0
        failures += not ok
        worst = min(worst, 0.0 if ok else -math.inf)
    results.append(PropertyResult("identity_gap", len(_RIGIDITY_DIMS), failures, worst))

    golden = rigidity_gap(MatrixOperator(np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]])), tol)
    slack = min(
        1e-9 - abs(golden.norm_excess - ((1 + math.sqrt(5)) / 2 - 1)),
        1e-9 - abs(golden.deviation - 1.0),
    )
    results.append(PropertyResult("golden_ratio", 1, int(slack < 0), float(slack)))

    count = max(1, trials // 10)
    failures, worst = 0, math.inf
    for trial in range(count):
        dim, _, a = _rigidity_family(seed, 3, trial)
        u = random_unitary(_trial_seed(seed, 4, trial), dim)
        conjugated = MatrixOperator(u.entries @ a.entries @ u.entries.conj().T)
        base, rotated = rigidity_gap(a, tol), rigidity_gap(conjugated, tol)
        slack = min(
            1e-9 - abs(base.norm_excess - rotated.norm_excess),
            1e-9 - abs(base.deviation - rotated.deviation),
        )
        failures += bool(slack < 0)
        worst = min(worst, float(slack))
    results.append(PropertyResult("unitary_invariance", count, failures, worst))

    return SuiteReport("rigidity", seed, trials, tol.abs_tol, tol.rel_tol, tuple(results))
