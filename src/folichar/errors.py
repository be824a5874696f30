"""Exception hierarchy shared by every layer of the toolkit.

Plain ``ZeroDivisionError`` is raised for scalar division by zero so that
field elements behave like ``fractions.Fraction``.
"""


class FolicharError(Exception):
    """Base class for all library-specific errors."""


class InvalidInput(FolicharError, ValueError):
    """An argument outside an operation's domain (a degree, an index)."""


# ---------------------------------------------------------------------------
# scalars / number fields
# ---------------------------------------------------------------------------

class FieldMismatch(FolicharError):
    """Arithmetic between elements of two different number fields."""


class NotSquarefree(FolicharError):
    """Minimal polynomial shares a factor with its derivative."""


class RationalRootFound(FolicharError):
    """Minimal polynomial of degree >= 2 has a rational root."""


class ReducibleDetected(FolicharError):
    """Minimal polynomial splits into lower-degree integer factors."""


class IrreducibilityUnattested(FolicharError):
    """Degree >= 5 minimal polynomial given without assume_irreducible."""


# ---------------------------------------------------------------------------
# polynomials / ideals
# ---------------------------------------------------------------------------

class SpaceMismatch(FolicharError):
    """Operands live over different variable spaces."""


class BudgetExceeded(FolicharError):
    """A Groebner computation ran past its reduction-step budget."""

    def __init__(self, msg="reduction budget exhausted", steps=None):
        super().__init__(msg)
        self.steps = steps


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------

class ZeroForm(FolicharError):
    """Operation requires a nonzero differential form."""


class NotADistribution(FolicharError):
    """Form fails the decomposability (distribution) test."""


class NotTorusInvariant(FolicharError):
    """Form is not invariant under coordinate torus scaling."""


class DegeneratePencil(FolicharError):
    """Binary form is identically zero (no discriminant)."""


# ---------------------------------------------------------------------------
# foliations
# ---------------------------------------------------------------------------

class ConstantFunction(FolicharError):
    """Hamiltonian construction needs a nonconstant function."""


class EmptyVariety(FolicharError):
    """The ideal is the unit ideal; its zero set is empty."""


# ---------------------------------------------------------------------------
# singularities
# ---------------------------------------------------------------------------

class NotASingularPoint(FolicharError):
    """The vector field does not vanish at the given point."""


class UnresolvedFactor(FolicharError):
    """Characteristic polynomial keeps a factor of degree >= 2 with no root
    in the working field; the factor is irreducible when its degree is 2 or 3,
    and may split into factors without roots when it is higher."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class ZeroEigenvalue(FolicharError):
    """Holonomy ratios need a nonzero reference eigenvalue."""


class LeafNotInvariant(FolicharError):
    """Requested coordinate axis is not invariant under the field."""


# ---------------------------------------------------------------------------
# Weyl algebra
# ---------------------------------------------------------------------------

class SizeMismatch(FolicharError):
    """Operators act on different numbers of variables."""


class ZeroOperator(FolicharError):
    """Operation requires a nonzero operator."""


# ---------------------------------------------------------------------------
# input language
# ---------------------------------------------------------------------------

class ParseError(FolicharError):
    """Syntax error in a session file or expression."""

    def __init__(self, msg, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(msg + loc)
        self.line = line
        self.column = column


class UnknownVariable(ParseError):
    """Identifier is neither a variable, the field generator, nor a declaration."""


class MixedContext(ParseError):
    """Expression combines incompatible kinds (e.g. wedge of operators)."""
