"""Numerical toolkit for an ordered product algebra of (matrix, scalar) pairs.

Builds the algebra with its ice-cream order cone, discretizes the Volterra
integration operator to produce a resolvent element whose spectrum clusters at
1 while it fails to dominate the unit, and verifies the finite-dimensional
rigidity that makes such elements impossible for matrices.
"""

from .algebra import (
    ProductElement,
    cone_contains,
    cone_leq,
    cone_slack,
    geq_unit,
    prod_involution,
    prod_mul,
    prod_norm,
    random_cone_element,
    unit_element,
)
from .errors import ComputationError, PreconditionError
from .operators import DEFAULT_TOLERANCE, MatrixOperator, ToleranceConfig
from .rigidity import (
    RigidityVerdict,
    check_rigidity,
    random_strict_nilpotent,
    random_unitary,
    rigidity_gap,
)
from .spectral import cluster_radius, eigenvalues, spectral_norm
from .suites import PropertyResult, SuiteReport, run_axiom_suite, run_rigidity_suite
from .volterra import (
    GrowthReport,
    QuadratureRule,
    WitnessReport,
    build_witness,
    convergence_study,
    growth_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
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
