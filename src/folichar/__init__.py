"""Exact symbolic toolkit for characteristic varieties of polynomial
vector fields over Q or Q(alpha)."""

from .errors import (
    BudgetExceeded,
    ConstantFunction,
    DegeneratePencil,
    EmptyVariety,
    FieldMismatch,
    FolicharError,
    InvalidInput,
    IrreducibilityUnattested,
    LeafNotInvariant,
    MixedContext,
    NotADistribution,
    NotASingularPoint,
    NotLogarithmic,
    NotTorusInvariant,
    ParseError,
    ReducibleDetected,
    SizeMismatch,
    SpaceMismatch,
    UnknownVariable,
    UnresolvedFactor,
    ZeroEigenvalue,
    ZeroForm,
    ZeroOperator,
)
from .scalars import NFElement, NumberField, make_number_field, zrank
from .polynomials import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    VarSpace,
    block_order_xy,
    elimination_order,
    multigrade_decompose,
)
from .ideals import (
    Ideal,
    StepBudget,
    groebner,
    normal_form,
    radical_membership,
    rational_points,
)
from .forms import (
    PolyForm,
    binary_discriminant,
    contract_field,
    exterior_derivative,
    is_distribution,
    is_infinitesimal_automorphism,
    is_integrable,
    is_torus_invariant_form,
    lie_derivative,
    logarithmic_normal_form,
    wedge,
)
from .foliations import (
    DarbouxPair,
    DarbouxResult,
    PolyVectorField,
    characteristic_polynomial,
    ch_singular_locus,
    classify_ch_subvariety,
    darboux_search,
    hamiltonian,
    hyperplane_at_infinity,
    is_invariant,
    prolong,
    singular_scheme,
)
from .singularities import (
    EigenData,
    bott_connection,
    coordinate_subspace_decomposition,
    holonomy_spectrum,
    is_nonresonant,
    jacobian_eigendata,
    verify_prolongation_duality,
)
from .weyl import (
    WeylOperator,
    bernstein_symbol,
    charvariety_of_principal_ideal,
    order_one_field,
    principal_symbol,
    weyl_mul,
)
from .parser import Session, parse_expression, parse_input

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ConstantFunction", "DegeneratePencil", "EmptyVariety",
    "FieldMismatch", "FolicharError", "InvalidInput", "IrreducibilityUnattested",
    "LeafNotInvariant", "MixedContext",
    "NotADistribution", "NotASingularPoint", "NotLogarithmic",
    "NotTorusInvariant", "ParseError", "ReducibleDetected",
    "SizeMismatch", "SpaceMismatch", "UnknownVariable", "UnresolvedFactor",
    "ZeroEigenvalue", "ZeroForm", "ZeroOperator",
    "NFElement", "NumberField", "make_number_field", "zrank",
    "GREVLEX", "LEX", "MonomialOrder", "MultiPoly", "VarSpace",
    "block_order_xy", "elimination_order", "multigrade_decompose",
    "Ideal", "StepBudget", "groebner", "normal_form", "radical_membership",
    "rational_points",
    "PolyForm", "binary_discriminant", "contract_field",
    "exterior_derivative", "is_distribution",
    "is_infinitesimal_automorphism", "is_integrable",
    "is_torus_invariant_form", "lie_derivative", "logarithmic_normal_form",
    "wedge",
    "DarbouxPair", "DarbouxResult", "PolyVectorField",
    "characteristic_polynomial", "ch_singular_locus",
    "classify_ch_subvariety", "darboux_search", "hamiltonian",
    "hyperplane_at_infinity", "is_invariant", "prolong", "singular_scheme",
    "EigenData", "bott_connection", "coordinate_subspace_decomposition",
    "holonomy_spectrum", "is_nonresonant", "jacobian_eigendata",
    "verify_prolongation_duality",
    "WeylOperator", "bernstein_symbol", "charvariety_of_principal_ideal",
    "order_one_field", "principal_symbol", "weyl_mul",
    "Session", "parse_expression", "parse_input",
]
