"""Explicit construction and exact verification of 2-generator quasi-twisted
two-weight codes built from consta-cyclic simplex codes."""

from .analysis import (
    DEFAULT_BUDGET,
    GriesmerReport,
    TwoWeightVerdict,
    WeightDistribution,
    decompose_block_count,
    dual_low_counts,
    expected_counts,
    gap_fn,
    griesmer_length,
    griesmer_report,
    mean_weight_identity_holds,
    min_distance,
    srg_parameters,
    verify_two_weight,
    weight_distribution,
)
from .construction import (
    GeneratorMatrix,
    QtCodeSpec,
    SimplexSpec,
    build_qt_simplex,
    build_two_weight,
    default_selection,
    full_block_matrix,
    is_projective,
    simplex_consta,
    simplex_cyclic,
)
from .errors import BudgetExceededError, ParameterError, VerificationError
from .fields import Field, field_create, field_from_order
from .polynomial import Poly, find_primitive

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Field",
    "GeneratorMatrix",
    "GriesmerReport",
    "ParameterError",
    "Poly",
    "QtCodeSpec",
    "SimplexSpec",
    "TwoWeightVerdict",
    "VerificationError",
    "WeightDistribution",
    "build_qt_simplex",
    "build_two_weight",
    "decompose_block_count",
    "default_selection",
    "dual_low_counts",
    "expected_counts",
    "field_create",
    "field_from_order",
    "find_primitive",
    "full_block_matrix",
    "gap_fn",
    "griesmer_length",
    "griesmer_report",
    "is_projective",
    "mean_weight_identity_holds",
    "min_distance",
    "simplex_consta",
    "simplex_cyclic",
    "srg_parameters",
    "verify_two_weight",
    "weight_distribution",
]
