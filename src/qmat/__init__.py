"""Exact symbolic computation in quantized matrix coordinate rings.

The package implements the quantized coordinate ring of n x n matrices
over Q(q), the quantum torus it localizes to, the step-by-step tower
connecting the two, and a constructive decomposition engine for
derivations that certifies the first-cohomology coordinates at small n.
"""

from .context import AlgebraContext, build_context
from .derivations import (
    DerivationSpec,
    HH1Coordinates,
    TorusDecomposition,
    ad,
    annihilates_qdet,
    basis_derivation,
    central_scaling_spec,
    check_derivation,
    check_z_condition,
    decompose_torus_derivation,
    express_hh1,
    gl_express,
    is_derivation,
    leibniz_extend,
    lift_to_torus,
    mu_sum_constraint,
    sl_basis_derivation,
)
from .errors import QmatError
from .matrixalg import (
    MatrixAlgebraElement,
    b_minor,
    qdet,
    qminor,
    sigma_automorphism,
)
from .rational import RF_ONE, RF_ZERO, RationalFunction
from .torus import (
    TorusElement,
    delta_exponents,
    is_central_monomial,
)
from .tower import (
    StepGeneratorTable,
    build_table,
    embed,
    rebase_to_step,
    verify_relations_preserved,
    verify_step_factorizations,
)
from .suite import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext",
    "build_context",
    "DerivationSpec",
    "HH1Coordinates",
    "TorusDecomposition",
    "ad",
    "annihilates_qdet",
    "basis_derivation",
    "central_scaling_spec",
    "check_derivation",
    "check_z_condition",
    "decompose_torus_derivation",
    "express_hh1",
    "gl_express",
    "is_derivation",
    "leibniz_extend",
    "lift_to_torus",
    "mu_sum_constraint",
    "sl_basis_derivation",
    "QmatError",
    "MatrixAlgebraElement",
    "b_minor",
    "qdet",
    "qminor",
    "sigma_automorphism",
    "RationalFunction",
    "RF_ONE",
    "RF_ZERO",
    "TorusElement",
    "delta_exponents",
    "is_central_monomial",
    "StepGeneratorTable",
    "build_table",
    "embed",
    "rebase_to_step",
    "verify_relations_preserved",
    "verify_step_factorizations",
    "VerificationReport",
    "run_suite",
]
