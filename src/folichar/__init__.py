"""Exact symbolic toolkit for characteristic varieties of polynomial
vector fields over Q or Q(alpha).

The public names are listed once, by defining module, and each module is
imported on first use of one of its names (PEP 562), so ``import folichar``
loads no submodule and a command loads only what it calls.
"""

import importlib

_EXPORTS = {
    "errors": (
        "BudgetExceeded", "ConstantFunction", "DegeneratePencil", "EmptyVariety",
        "FieldMismatch", "FolicharError", "InvalidInput", "IrreducibilityUnattested",
        "LeafNotInvariant", "MixedContext",
        "NotADistribution", "NotASingularPoint", "NotTorusInvariant",
        "ParseError", "ReducibleDetected",
        "SizeMismatch", "SpaceMismatch", "UnknownVariable", "UnresolvedFactor",
        "ZeroEigenvalue", "ZeroForm", "ZeroOperator",
    ),
    "scalars": ("NFElement", "NumberField", "make_number_field", "zrank"),
    "polynomials": (
        "GREVLEX", "LEX", "MonomialOrder", "MultiPoly", "VarSpace",
        "block_order_xy", "elimination_order", "multigrade_decompose",
    ),
    "ideals": (
        "Ideal", "StepBudget", "normal_form", "radical_membership", "rational_points",
    ),
    "forms": (
        "PolyForm", "binary_discriminant", "contract_field",
        "exterior_derivative", "is_distribution",
        "is_infinitesimal_automorphism", "is_integrable",
        "is_torus_invariant_form", "lie_derivative", "logarithmic_normal_form",
        "wedge",
    ),
    "foliations": (
        "DarbouxPair", "DarbouxResult", "PolyVectorField",
        "characteristic_polynomial", "ch_singular_locus",
        "classify_ch_subvariety", "darboux_search", "hamiltonian",
        "hyperplane_at_infinity", "is_invariant", "prolong", "singular_scheme",
    ),
    "singularities": (
        "EigenData", "bott_connection", "coordinate_subspace_decomposition",
        "holonomy_spectrum", "is_nonresonant", "jacobian_eigendata",
        "verify_prolongation_duality",
    ),
    "weyl": (
        "WeylOperator", "bernstein_symbol", "charvariety_of_principal_ideal",
        "order_one_field", "principal_symbol", "weyl_mul",
    ),
    "parser": ("Session", "parse_expression", "parse_input"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
