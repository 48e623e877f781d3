"""The public API: the names `oba_lab` promises, and the README example that uses them."""

import re
from pathlib import Path

import oba_lab

README = Path(__file__).resolve().parent.parent / "README.md"

PROMISED = [
    "ComputationError",
    "DEFAULT_TOLERANCE",
    "GrowthReport",
    "MatrixOperator",
    "PreconditionError",
    "ProductElement",
    "PropertyResult",
    "QuadratureRule",
    "RigidityVerdict",
    "SuiteReport",
    "ToleranceConfig",
    "WitnessReport",
    "build_witness",
    "check_rigidity",
    "cluster_radius",
    "cone_contains",
    "cone_leq",
    "cone_slack",
    "convergence_study",
    "eigenvalues",
    "geq_unit",
    "growth_diagnostic",
    "prod_involution",
    "prod_mul",
    "prod_norm",
    "random_cone_element",
    "random_strict_nilpotent",
    "random_unitary",
    "rigidity_gap",
    "run_axiom_suite",
    "run_rigidity_suite",
    "spectral_norm",
    "unit_element",
]


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_all_is_the_promised_api():
    assert sorted(oba_lab.__all__) == PROMISED
    assert [name for name in PROMISED if not hasattr(oba_lab, name)] == []


def test_readme_lists_every_promised_name():
    listed = set(re.findall(r"`(\w+)`", _library_section()))
    assert [name for name in PROMISED if name not in listed] == []


def test_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", _library_section(), re.DOTALL)
    exec(compile(example, str(README), "exec"), {})
