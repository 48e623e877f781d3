"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible under `pytest -s` or in the
captured output of a failing run) and then asserts, so the suite doubles as a
human-readable checklist.
"""

import time

import numpy as np
from scipy.linalg import toeplitz

from oba_lab import (
    MatrixOperator,
    ProductElement,
    QuadratureRule,
    ToleranceConfig,
    build_witness,
    convergence_study,
    eigenvalues,
    growth_diagnostic,
    rigidity_gap,
    run_axiom_suite,
    run_rigidity_suite,
)
from oba_lab.volterra import _resolvent_symbol
from oracle import (
    multiset_distance,
    product_spectrum,
    resolvent_at_identity,
    resolvent_residual,
    volterra_matrix,
)

TOL = ToleranceConfig()
NS = (16, 32, 64, 128, 256, 512, 1024)


def _report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_witness_fidelity():
    start = time.perf_counter()
    w = build_witness(1024, QuadratureRule.TRAPEZOID, TOL)
    elapsed = time.perf_counter() - start
    expected_radius = (w.h / 2) / (1 + w.h / 2)
    checks = {
        "cone_member": w.cone_member,
        "xi_used == 1": w.xi_used == 1.0,
        "norm_excess <= 1e-10": w.norm_excess <= 1e-10,
        "cluster_radius within 1e-9": abs(w.cluster_radius - expected_radius) <= 1e-9,
        "geq_unit is false": not w.geq_unit,
        "deviation >= 0.1": w.deviation >= 0.1,
        "runtime < 30 s": elapsed < 30.0,
    }
    # independent dense-SVD oracle for the norm bound behind cone membership
    t = resolvent_at_identity(volterra_matrix(1024, QuadratureRule.TRAPEZOID))
    oracle_norm = np.linalg.svd(t.entries, compute_uv=False)[0]
    checks["svd oracle ||T|| <= 1 + 1e-12"] = oracle_norm <= 1 + 1e-12
    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    _report(
        1,
        ok,
        f"witness n=1024 trapezoid in {elapsed:.2f}s, norm_T={w.norm_T:.12f}, "
        f"cluster_radius={w.cluster_radius:.6e}"
        + (f"; FAILED: {failed}" if failed else ""),
    )


def test_criterion_2_norm_convergence_sandwich():
    start = time.perf_counter()
    rows = convergence_study(NS, QuadratureRule.TRAPEZOID, TOL)
    elapsed = time.perf_counter() - start
    sandwich = all(1 / (1 + r.h / 2) <= r.norm_T <= 1 + 1e-10 for r in rows)
    half_step = all(abs(1 - r.norm_T) <= r.h / 2 for r in rows)
    ok = sandwich and half_step and elapsed < 60.0
    worst = max(abs(1 - r.norm_T) / (r.h / 2) for r in rows)
    _report(
        2,
        ok,
        f"sandwich over n={NS} in {elapsed:.2f}s, worst |1-norm_T| at "
        f"{worst:.2e} of the h/2 budget",
    )


def test_criterion_3_rule_sensitivity():
    left = build_witness(2, QuadratureRule.LEFT_ENDPOINT, TOL)
    trap = build_witness(2, QuadratureRule.TRAPEZOID, TOL)
    eigs = eigenvalues(resolvent_at_identity(volterra_matrix(2, QuadratureRule.LEFT_ENDPOINT)))
    ok = (
        abs(left.norm_T - 1.280776) <= 1e-6
        and left.norm_T > 1
        and multiset_distance(eigs, [1, 1]) == 0.0
        and trap.norm_T <= 1 + 1e-10
    )
    _report(
        3,
        ok,
        f"left n=2: norm_T={left.norm_T:.9f} with spectrum exactly {{1,1}}; "
        f"trapezoid n=2: norm_T={trap.norm_T:.9f} <= 1",
    )


def test_criterion_4_cone_axiom_suite():
    start = time.perf_counter()
    report = run_axiom_suite(trials=10_000, seed=42, tol=TOL)
    elapsed = time.perf_counter() - start
    by_name = {r.name: r for r in report.results}
    required = (
        "additivity",
        "positive_scaling",
        "multiplicativity",
        "properness",
        "normality",
        "ice_cream_equivalence",
        "cstar_identity",
    )
    failures = {name: by_name[name].failures for name in required}
    ok = all(count == 0 for count in failures.values()) and elapsed < 60.0
    _report(
        4,
        ok,
        f"10^4 trials x {len(required)} properties in {elapsed:.1f}s, "
        f"failures={sum(failures.values())}",
    )


def test_criterion_5_spectrum_union_law():
    worst = 0.0
    for trial in range(1000):
        dim = 2 + trial % 15
        rng = np.random.default_rng(10_000 + trial)
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        xi = complex(rng.standard_normal(), rng.standard_normal())
        x = ProductElement(MatrixOperator(mat), xi)
        block = np.zeros((dim + 1, dim + 1), dtype=complex)
        block[:dim, :dim] = mat
        block[dim, dim] = xi
        worst = max(worst, multiset_distance(product_spectrum(x), np.linalg.eigvals(block)))
    ok = worst <= 1e-8
    _report(5, ok, f"10^3 block-embedding comparisons, worst multiset distance {worst:.2e}")


def test_criterion_6_rigidity_suite():
    report = run_rigidity_suite(trials=1000, seed=42, tol=TOL)
    by_name = {r.name: r for r in report.results}
    golden = rigidity_gap(MatrixOperator(np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]])), TOL)
    identity = rigidity_gap(MatrixOperator.identity(8), TOL)
    ok = (
        by_name["trace_bound"].failures == 0
        and by_name["dichotomy"].failures == 0
        and identity == type(identity)(0.0, 0.0, True)
        and abs(golden.norm_excess - ((1 + np.sqrt(5)) / 2 - 1)) <= 1e-9
    )
    _report(
        6,
        ok,
        f"10^3 nilpotent trials (dims 2-16): trace bound worst slack "
        f"{by_name['trace_bound'].worst_slack:.2e}, golden-ratio excess "
        f"{golden.norm_excess:.10f}",
    )


def test_criterion_7_growth_diagnostic():
    values = growth_diagnostic(256, 64)
    ok = values.max() <= 3.0 and values[63] >= 1.0
    _report(
        7,
        ok,
        f"n=256, k<=64: max a_k={values.max():.6f} <= 3.0, a_64={values[63]:.6f} >= 1.0 "
        f"(the normalized powers do not vanish)",
    )


def test_criterion_8_resolvent_residual():
    cases = [(n, QuadratureRule.TRAPEZOID) for n in NS]
    cases += [(2, QuadratureRule.LEFT_ENDPOINT), (256, QuadratureRule.LEFT_ENDPOINT)]
    worst = 0.0
    for n, rule in cases:
        # the package's T_n: lower-triangular Toeplitz with the closed-form column
        # c_0 = 1/a, c_k = (r - 1)/a * r^(k-1) of its symbol, r = b/a
        a, b = _resolvent_symbol(n, rule)
        r = b / a
        column = np.concatenate([[1.0 / a], (r - 1.0) / a * r ** np.arange(n - 1)])
        t = toeplitz(column, np.zeros(n))
        worst = max(worst, resolvent_residual(volterra_matrix(n, rule), t))
    ok = worst <= 1e-10
    _report(8, ok, f"worst ||(I+V)T - I|| over {len(cases)} grids: {worst:.2e}")
