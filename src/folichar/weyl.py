"""Weyl algebra arithmetic and the two symbol maps.

An operator is a polynomial in (x1..xn | d1..dn), a :class:`MultiPoly`
whose y-block is the d-block, read in normal order (all x's to the left of
all d's).  Sums, scaling, powers, equality and printing are the
polynomials'; only the product differs, expanded term pair by term pair
through the closed commutation formula

    d^s x^r = sum_k C(s,k) C(r,k) k! x^(r-k) d^(s-k)

applied per variable (distinct variables commute).  Two filtrations matter:
the total-degree (Bernstein) filtration and the order filtration counting
only d's.  Their top-part symbol maps read the d-block as the y-block; the
symbol of a first-order operator xi + f recovers the characteristic
polynomial of the vector field xi, which is the bridge between principal
ideals of operators and characteristic varieties of foliations.
"""

from __future__ import annotations

from math import comb, perm

from .errors import SizeMismatch, ZeroOperator
from .foliations import PolyVectorField
from .ideals import Ideal
from .polynomials import SCALARS, MultiPoly, VarSpace


def _doubled_space(n):
    """(x1..xn | d1..dn): the variables of the operators on n variables."""
    return VarSpace(tuple(f"x{i + 1}" for i in range(n)),
                    tuple(f"d{i + 1}" for i in range(n)))


class WeylOperator(MultiPoly):
    """Element of A_n: a sum of c * x^r * d^s in normal order, keyed r + s."""

    __slots__ = ()
    _noun = "operator"

    @property
    def n(self):
        return self.space.n

    def _like(self, terms):
        return WeylOperator(self.space, terms)

    def _embed(self, c):
        return WeylOperator.constant(self.n, c)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(_doubled_space(n))

    @classmethod
    def constant(cls, n, c):
        return cls.monomial(_doubled_space(n), (0,) * (2 * n), c)

    @classmethod
    def from_poly(cls, f):
        """Multiplication operator by a polynomial in the x-variables."""
        n = len(f.space.x_vars)
        if f.involves(range(n, f.space.nvars)):
            raise ValueError("multiplication operators come from x-only polynomials")
        zero = (0,) * n
        return cls(_doubled_space(n), {e[:n] + zero: c for e, c in f.terms.items()})

    # -- structure -------------------------------------------------------------

    def order(self):
        """Largest number of d's in a term; -1 for the zero operator."""
        return self.degree(self.space.y_indices)

    total_degree = MultiPoly.degree

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise SizeMismatch(f"operators on {self.n} and {other.n} variables")

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self._scale(other)
        if not isinstance(other, WeylOperator):
            return NotImplemented  # a MultiPoly then raises SpaceMismatch
        return weyl_mul(self, other)

    __rmul__ = __mul__


def weyl_mul(a, b):
    """Normally ordered product in A_n."""
    if not isinstance(a, WeylOperator) or not isinstance(b, WeylOperator):
        raise TypeError("weyl_mul expects two WeylOperators")
    a._check(b)
    n = a.n
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            # per variable i, contract k of the d_i^s of e1 with the x_i^r of e2
            parts = [((), (), c1 * c2)]
            for i in range(n):
                s, r = e1[n + i], e2[i]
                x, d = e1[i] + r, s + e2[n + i]
                parts = [(xs + (x - k,), ds + (d - k,), c * (perm(s, k) * comb(r, k)))
                         for xs, ds, c in parts for k in range(min(s, r) + 1)]
            for xs, ds, c in parts:
                e = xs + ds
                out[e] = out[e] + c if e in out else c
    return WeylOperator(a.space, out)


# ---------------------------------------------------------------------------
# symbol maps
# ---------------------------------------------------------------------------

def _symbol_space(d, space):
    """The target (x | y | aux) of ``d``'s symbols: its blocks must fit."""
    if space is None:
        return d.space.x_only().doubled()
    if len(space.x_vars) != d.n or len(space.y_vars) != d.n:
        raise SizeMismatch(f"an operator on {d.n} variables has no symbol in {space}")
    return space


def _top_part(d, indices, space):
    """(k, top part of ``d`` in the degree counted on ``indices``), the
    d-block read as the y-block of ``space``."""
    if d.is_zero():
        raise ZeroOperator("the zero operator has no symbol")
    space = _symbol_space(d, space)
    k = d.degree(indices)
    pad = (0,) * len(space.aux_vars)
    return k, MultiPoly(space, {e + pad: c for e, c in
                                d.homogeneous_part(k, indices).terms.items()})


def bernstein_symbol(d, space=None):
    """(k, sigma_k): top total-degree part with d_i replaced by y_i."""
    return _top_part(d, None, space)


def principal_symbol(d, space=None):
    """(m, symbol): order filtration, keeping the terms with m d's."""
    return _top_part(d, d.space.y_indices, space)


def _is_field_shaped(op):
    """Pure first order with no order-zero part: readable as a vector field."""
    return set(op.homogeneous_parts(op.space.y_indices)) == {1}


def order_one_field(d, space=None):
    """The vector field sum g_i d_i read off an order-one operator:
    g_i is the d_i-derivative of its order-one part."""
    base = _symbol_space(d, space).x_only()
    if d.order() != 1:
        raise ValueError("not an order-one operator")
    n = d.n
    part = d.homogeneous_part(1, d.space.y_indices)
    return PolyVectorField(base, [
        MultiPoly(base, {e[:n]: c for e, c in part.partial(n + i).terms.items()})
        for i in range(n)])


def charvariety_of_principal_ideal(d, space=None):
    """Principal ideal of the principal symbol in the doubled space.

    For an order-one operator xi + f this is the ideal of the characteristic
    polynomial of xi: both are sum g_i y_i.
    """
    _, sym = principal_symbol(d, space)
    return Ideal(sym.space, [sym])
