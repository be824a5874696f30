"""Weyl algebra arithmetic and the two symbol maps.

Operators are kept normally ordered (all x's to the left of all d's); the
product is expanded term-pair-wise through the closed commutation formula

    d^s x^r = sum_k C(s,k) C(r,k) k! x^(r-k) d^(s-k)

applied per variable (distinct variables commute).  Two filtrations matter:
the total-degree (Bernstein) filtration and the order filtration counting
only d's.  Their top-part symbol maps substitute y_i for d_i; the symbol of
a first-order operator xi + f recovers the characteristic polynomial of the
vector field xi, which is the bridge between principal ideals of operators
and characteristic varieties of foliations.

Sums, differences, negation, scalar scaling and powers come from
:class:`folichar.polynomials.SparseSum`; an operator prints as the
polynomial in x1..xn, d1..dn with the same terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import SizeMismatch, ZeroOperator
from .foliations import PolyVectorField, characteristic_polynomial
from .ideals import Ideal
from .polynomials import SCALARS, MultiPoly, SparseSum, VarSpace

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _doubled_space(n, stem="y"):
    """x1..xn with a second block stem1..stemn (the symbol's y's, or d's)."""
    return VarSpace(tuple(f"x{i + 1}" for i in range(n)),
                    tuple(f"{stem}{i + 1}" for i in range(n)))


class WeylOperator(SparseSum):
    """Element of A_n: finite sum of c * x^r * d^s in normal order."""

    __slots__ = ("n", "terms")
    _noun = "operator"

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for (xe, de), c in (terms or {}).items():
            if len(xe) != n or len(de) != n:
                raise SizeMismatch(f"exponent vectors must have length {n}")
            if c:
                clean[(tuple(xe), tuple(de))] = c
        self.terms = clean

    def _like(self, terms):
        return WeylOperator(self.n, terms)

    def _embed(self, c):
        return WeylOperator.constant(self.n, c)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, c):
        e = (0,) * n
        return cls(n, {(e, e): Fraction(c) if isinstance(c, int) else c})

    @classmethod
    def x_var(cls, n, i):
        xe = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {(xe, (0,) * n): _ONE})

    @classmethod
    def d_var(cls, n, i):
        de = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {((0,) * n, de): _ONE})

    @classmethod
    def from_poly(cls, f):
        """Multiplication operator by a polynomial in the x-variables."""
        space = f.space
        if f.involves(range(len(space.x_vars), space.nvars)):
            raise ValueError("multiplication operators come from x-only polynomials")
        n = len(space.x_vars)
        zero = (0,) * n
        return cls(n, {(e[:n], zero): c for e, c in f.terms.items()})

    @classmethod
    def from_vector_field(cls, xi):
        """sum a_i d_i as an operator (already normally ordered)."""
        n = len(xi.components)
        terms = {}
        for i, a in enumerate(xi.components):
            de = tuple(1 if j == i else 0 for j in range(n))
            for e, c in a.terms.items():
                key = (e[:n], de)
                terms[key] = terms.get(key, _ZERO) + c
        return cls(n, terms)

    # -- structure -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def order(self):
        """Largest number of d's in a term; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(sum(de) for _, de in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(xe) + sum(de) for xe, de in self.terms)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise SizeMismatch(f"operators on {self.n} and {other.n} variables")

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self._scale(other)
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return weyl_mul(self, other)

    __rmul__ = __mul__

    # -- display ---------------------------------------------------------------

    def __str__(self):
        """Printed as a polynomial in x1..xn, d1..dn."""
        return str(_symbol_poly(self.terms.items(), self.n, _doubled_space(self.n, "d")))

    def __repr__(self):
        return f"<{self}>"


def _term_product(xe1, de1, xe2, de2, coeff, n, out):
    """Accumulate x^xe1 d^de1 * x^xe2 d^de2 into ``out`` in normal order."""
    ranges = [range(min(de1[i], xe2[i]) + 1) for i in range(n)]
    # iterate the k-vector of contractions variable by variable
    stack = [(0, (), coeff)]
    while stack:
        i, ks, c = stack.pop()
        if i == n:
            xe = tuple(xe1[j] + xe2[j] - ks[j] for j in range(n))
            de = tuple(de1[j] + de2[j] - ks[j] for j in range(n))
            out[xe, de] = out.get((xe, de), _ZERO) + c
            continue
        for k in ranges[i]:
            w = comb(de1[i], k) * comb(xe2[i], k) * factorial(k)
            stack.append((i + 1, ks + (k,), c * w))


def weyl_mul(a, b):
    """Normally ordered product in A_n."""
    if not isinstance(a, WeylOperator) or not isinstance(b, WeylOperator):
        raise TypeError("weyl_mul expects two WeylOperators")
    a._check(b)
    out = {}
    for (xe1, de1), c1 in a.terms.items():
        for (xe2, de2), c2 in b.terms.items():
            _term_product(xe1, de1, xe2, de2, c1 * c2, a.n, out)
    return WeylOperator(a.n, out)


# ---------------------------------------------------------------------------
# symbol maps
# ---------------------------------------------------------------------------

def _symbol_poly(terms, n, space):
    if space is None:
        space = _doubled_space(n)
    pad = space.nvars - 2 * n
    out = {}
    for (xe, de), c in terms:
        out[xe + de + (0,) * pad] = c
    return MultiPoly(space, out)


def bernstein_symbol(d, space=None):
    """(k, sigma_k): top total-degree part with d_i replaced by y_i."""
    if d.is_zero():
        raise ZeroOperator("the zero operator has no symbol")
    k = d.total_degree()
    top = [(key, c) for key, c in d.terms.items() if sum(key[0]) + sum(key[1]) == k]
    return k, _symbol_poly(top, d.n, space)


def principal_symbol(d, space=None):
    """(m, symbol): order filtration, keeping the terms with m d's."""
    if d.is_zero():
        raise ZeroOperator("the zero operator has no symbol")
    m = d.order()
    top = [(key, c) for key, c in d.terms.items() if sum(key[1]) == m]
    return m, _symbol_poly(top, d.n, space)


def order_one_field(d, space=None):
    """The vector field sum g_i d_i read off an order-one operator."""
    if d.order() != 1:
        raise ValueError("not an order-one operator")
    if space is None:
        space = _doubled_space(d.n)
    base = space.x_only()
    comps = [MultiPoly.zero(base) for _ in range(d.n)]
    for (xe, de), c in d.terms.items():
        if sum(de) != 1:
            continue
        i = de.index(1)
        comps[i] = comps[i] + MultiPoly.monomial(base, xe, c)
    return PolyVectorField(base, comps)


def charvariety_of_principal_ideal(d, space=None):
    """Principal ideal of the principal symbol in the doubled space.

    For an order-one operator xi + f this is exactly the ideal of the
    characteristic polynomial of xi; the identity is checked.
    """
    m, sym = principal_symbol(d, space)
    if m == 1:
        xi = order_one_field(d, sym.space)
        if sym != characteristic_polynomial(xi).lift_to(sym.space):
            raise RuntimeError("principal symbol differs from the characteristic polynomial")
    return Ideal(sym.space, [sym])
