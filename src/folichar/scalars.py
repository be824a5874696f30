"""Exact scalar arithmetic: rationals and single-generator number fields.

The working field of every computation is either Q (``fractions.Fraction``)
or Q(alpha) for one algebraic generator alpha with a monic minimal polynomial
over Q.  Field elements are coordinate vectors in the power basis
1, alpha, ..., alpha^(d-1); all arithmetic is exact.

Q(alpha) has the integral model Q(beta), beta = scale*alpha (Cohen 1993,
ch. 4).  The Groebner kernel's coefficient rule lives here: it computes
fraction-free in Z (:class:`IntegerRule`, inputs over Q) or in Z[beta]
(:class:`ZBetaRule`, inputs over Q(alpha)).

Univariate polynomials over a field are represented as tuples of
coefficients in ascending degree order (``()`` is the zero polynomial).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    FieldMismatch,
    IrreducibilityUnattested,
    NotSquarefree,
    RationalRootFound,
    ReducibleDetected,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# univariate polynomial helpers (dense, ascending coefficients)
# ---------------------------------------------------------------------------

def upoly_trim(coeffs):
    """Drop trailing zero coefficients."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def upoly_degree(p):
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def upoly_divmod(p, q):
    """Quotient and remainder over a field; raises on zero divisor."""
    if not q:
        raise ZeroDivisionError("univariate division by zero polynomial")
    rem = list(p)
    dq = len(q) - 1
    lead_inv = scalar_inverse(q[-1])
    quot = [0] * max(len(p) - dq, 0)
    while len(rem) - 1 >= dq and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] * lead_inv
        quot[shift] = factor
        for i in range(dq + 1):
            rem[shift + i] -= factor * q[i]
        rem.pop()
    return upoly_trim(quot), upoly_trim(rem)


def upoly_monic(p):
    if not p:
        return ()
    inv = scalar_inverse(p[-1])
    return tuple(c * inv for c in p)


def upoly_gcd(p, q):
    """Monic gcd over a field."""
    a, b = upoly_trim(p), upoly_trim(q)
    while b:
        a, b = b, upoly_divmod(a, b)[1]
    return upoly_monic(a)


def upoly_deriv(p):
    return upoly_trim(i * c for i, c in enumerate(p) if i)


def upoly_squarefree_part(p):
    """p / gcd(p, p') over a field of characteristic zero."""
    d = upoly_gcd(p, upoly_deriv(p))
    if upoly_degree(d) <= 0:
        return upoly_monic(p)
    return upoly_monic(upoly_divmod(p, d)[0])


def power(base, k, one):
    """base**k for an int k >= 0 by square-and-multiply, starting from ``one``."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _int_divisors(n):
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def upoly_rational_roots(p):
    """All rational roots of a nonzero polynomial with Fraction coefficients."""
    p = upoly_trim(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    roots = []
    # strip powers of x
    k = 0
    while not p[k]:
        k += 1
    if k:
        roots.append(Fraction(0))
        p = p[k:]
    if len(p) == 1:
        return roots
    ints = IntegerRule.clear(p)
    g = gcd(*ints)
    ints = [c // g for c in ints]
    a0, dens = ints[0], _int_divisors(ints[-1])
    for num in _int_divisors(a0):
        for dd in dens:
            if gcd(num, dd) != 1:  # its lowest terms came earlier
                continue
            for x in (num, -num):
                v, w = 0, 1  # Horner for dd^n * p(x/dd) over the integers
                for c in reversed(ints):
                    v, w = v * x + c * w, w * dd
                if not v:
                    roots.append(Fraction(x, dd))
    return roots


def term_str(c, mono):
    """``c`` times the monomial text ``mono``: a coefficient 1 or -1 is left
    implicit and a non-rational Q(alpha) coefficient is parenthesized."""
    if isinstance(c, NFElement) and not c.is_rational():
        return f"({c})*{mono}" if mono else f"({c})"
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def sum_str(chunks):
    """Join printed terms with signs; the empty sum prints as 0."""
    return " + ".join(chunks).replace("+ -", "- ") or "0"


def upoly_str(p, var="t"):
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            head = "" if c == 1 else ("-" if c == -1 else f"{cs}*")
            parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return sum_str(parts)


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField:
    """Q(alpha) for a single generator with monic minimal polynomial over Q;
    ``model`` is Q(beta) for the least ``scale`` with beta = scale*alpha integral."""

    __slots__ = ("name", "min_poly", "degree", "integral", "_red", "scale", "model")

    def __init__(self, name, min_poly):
        min_poly = upoly_trim(tuple(Fraction(c) for c in min_poly))
        if upoly_degree(min_poly) < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if min_poly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.name = name
        self.min_poly = min_poly
        self.degree = upoly_degree(min_poly)
        # reduction table: alpha^k as a coordinate vector, k = d..2d-2
        d = self.degree
        rems = (upoly_divmod((_ZERO,) * k + (_ONE,), min_poly)[1] for k in range(d, 2 * d - 1))
        red = [r + (_ZERO,) * (d - len(r)) for r in rems]
        self.scale, ints = _to_integer_monic(min_poly)
        self.integral = self.scale == 1  # Z[alpha]: _red holds ints
        self._red = tuple(tuple(map(int, v)) if self.integral else v for v in red)
        self.model = self if self.integral else NumberField(name, ints)

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.name == other.name
            and self.min_poly == other.min_poly
        )

    def __hash__(self):
        return hash((self.name, self.min_poly))

    def __repr__(self):
        return f"NumberField({self.name!r}, {upoly_str(self.min_poly, self.name)} = 0)"

    def element(self, coords):
        coords = list(coords)
        if len(coords) > self.degree:
            raise ValueError("coordinate vector longer than field degree")
        coords += [_ZERO] * (self.degree - len(coords))
        return NFElement(self, tuple(Fraction(c) for c in coords))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        if self.degree == 1:
            return self.element([-self.min_poly[0]])
        return self.element([0, 1])

    def from_rational(self, q):
        return self.element([Fraction(q)])

    def coerce(self, value):
        if isinstance(value, NFElement):
            if value.field != self:
                raise FieldMismatch(
                    f"element of Q({value.field.name}) used in Q({self.name})"
                )
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into Q({self.name})")


class NFElement:
    """Element of a :class:`NumberField`, a vector in the power basis: Fraction
    coordinates from the constructors, int ones for Z[alpha] (kept by + - * //)."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    # -- structure ----------------------------------------------------------

    def is_rational(self):
        return not any(self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if isinstance(other, NFElement):
            return self.field == other.field and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    # -- arithmetic ---------------------------------------------------------

    def _binop(self, other):
        if isinstance(other, NFElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    f"cannot mix Q({self.field.name}) and Q({other.field.name})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._binop(other)
        if o is None:
            return NotImplemented
        return NFElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._binop(other)
        if o is None:
            return NotImplemented
        return NFElement(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is int:
            return NFElement(self.field, tuple(a * other for a in self.coords))
        o = self._binop(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        ints = type(self.coords[0]) is type(o.coords[0]) is int and self.field.integral
        prod = [0 if ints else _ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(o.coords):
                if b:
                    prod[i + j] += a * b
        out = list(prod[:d])
        red = self.field._red
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                vec = red[k - d]
                for i in range(d):
                    out[i] += c * vec[i]
        return NFElement(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Invert a rational element as a Fraction; else solve self*x = 1 by
        :func:`rref` on the matrix of multiplication by self, whose columns
        are self*alpha^j (Cohen 1993, ch. 4)."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        field, d = self.field, self.field.degree
        if self.is_rational():
            return field.from_rational(Fraction(1, self.coords[0]))
        cols = [self]
        while len(cols) < d:
            cols.append(cols[-1] * field.gen())
        rows = [[c.coords[i] for c in cols] + [int(i == 0)] for i in range(d)]
        if rref(rows) != list(range(d)):  # singular: self shares a factor with min_poly
            g = upoly_gcd(self.coords, field.min_poly)
            raise ReducibleDetected(
                f"minimal polynomial of {field.name} is reducible: "
                f"gcd {upoly_str(g, field.name)} found during inversion"
            )
        return field.element(row[d] for row in rows)

    def __floordiv__(self, k):
        """Exact division of int coordinates by the int k."""
        return NFElement(self.field, tuple(a // k for a in self.coords))

    def __truediv__(self, other):
        if type(other) is int and other:
            return NFElement(self.field, tuple(Fraction(a, other) for a in self.coords))
        o = self._binop(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._binop(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one())

    # -- display ------------------------------------------------------------

    def __str__(self):
        name = self.field.name
        return sum_str([term_str(c, f"{name}^{i}" if i > 1 else name if i else "")
                        for i, c in enumerate(self.coords) if c])

    __repr__ = __str__


def common_field(values):
    """The one number field of the NFElements among the values, else None."""
    field = None
    for v in values:
        if isinstance(v, NFElement) and v.field is not field and v.field != field:
            if field is not None:
                raise FieldMismatch(f"cannot mix Q({field.name}) and Q({v.field.name})")
            field = v.field
    return field


# ---------------------------------------------------------------------------
# coefficient rules of the Groebner kernel
# ---------------------------------------------------------------------------

class IntegerRule:
    """How the Groebner kernel treats coefficients over Q: fraction-free in Z.

    ``clear`` multiplies the generators' coefficients by their least common
    denominator once; every basis element is kept ``primitive`` with a
    positive int ``lead``.  A step reducing c*x^e by g with lead coefficient
    lc is p <- a*p - b*x^s*g for (a, b) = ``step(c, lc)``: a = lc/d, b = c/d
    for d = gcd(content(c), lc) (Becker-Weispfenning 1993, ch. 5).  The
    kernel divides p and its tail by their ``content`` every few steps, and
    ``restore(c, lc)`` = c/lc makes the basis monic on return.  Divisors are
    those of division by lc, so step counts do not depend on the ring.  The
    S-polynomial of two int leads takes this ``step`` over every ring.
    """

    __slots__ = ()
    content = staticmethod(gcd)
    restore = staticmethod(Fraction)
    lead = staticmethod(int)

    @staticmethod
    def clear(coeffs):
        den = lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (den // c.denominator) for c in coeffs]

    @staticmethod
    def step(c, lc):
        d = gcd(c, lc)
        return lc // d, c // d

    @staticmethod
    def primitive(terms, le):
        """The terms over their content, signed so that terms[le] is positive."""
        d = gcd(*terms.values()) * (1 if terms[le] > 0 else -1)
        return {e: c // d for e, c in terms.items()}


class ZBetaRule(IntegerRule):
    """The rule over Q(alpha), fraction-free in Z[beta] (``field.model``):
    ``primitive`` makes a lead lc a positive rational integer D by the norm
    cofactor D*lc^-1, and ``content`` is the gcd of all int coordinates."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def clear(self, coeffs):
        s, field = self.field.scale, self.field
        vecs = [[x / s ** i for i, x in enumerate(field.coerce(c).coords)] for c in coeffs]
        den = lcm(*(x.denominator for v in vecs for x in v))
        return [NFElement(field.model, tuple(int(x * den) for x in v)) for v in vecs]

    def restore(self, c, lc):
        s = self.field.scale
        return NFElement(self.field, tuple(Fraction(x * s ** i, lc)
                                           for i, x in enumerate(c.coords)))

    @staticmethod
    def content(*elements):
        return gcd(*(x for c in elements for x in c.coords))

    @staticmethod
    def lead(c):
        return c.coords[0]

    def step(self, c, lc):
        d = gcd(self.content(c), lc)
        return lc // d, c // d

    def primitive(self, terms, le):
        lc = terms[le]
        if lc.is_rational():
            m = 1 if lc.coords[0] > 0 else -1
        else:
            inv = lc.inverse().coords
            den = lcm(*(x.denominator for x in inv))
            m = NFElement(lc.field, tuple(int(x * den) for x in inv))
        terms = {e: c * m for e, c in terms.items()}
        d = self.content(*terms.values())
        return {e: c // d for e, c in terms.items()}


# ---------------------------------------------------------------------------
# field construction with irreducibility screen
# ---------------------------------------------------------------------------

def _to_integer_monic(p):
    """Monic rational p(t) -> (c, g) with g(u) = c^d p(u/c) monic integral."""
    c = lcm(*(a.denominator for a in p))
    d = upoly_degree(p)
    return c, tuple(int(p[i] * c ** (d - i)) for i in range(d + 1))


def _quadratic_factor(ints):
    """Search for a monic integer quadratic divisor of a monic integer quartic.

    For a divisor u^2 + pp*u + qq with cofactor u^2 + r*u + s, qq divides
    ``ints[0]`` (nonzero once the rational-root screen has passed) and
    s = ints[0] / qq.  The u coefficient gives pp*(s - qq) = a1 - qq*a3,
    which fixes pp unless s == qq; then the u^2 coefficient makes pp a root
    of t^2 - a3*t + (a2 - 2*qq).  So each qq has at most two candidates for
    pp, and the hit with the least (pp, qq position) is the factor reported.
    """
    a0, a1, a2, a3 = ints[:4]
    bound = isqrt(sum(c * c for c in ints)) + 1  # floor(l2 norm) + 1: a Mahler-measure bound
    divs = [d for d in _int_divisors(a0) if d <= bound]
    qqs = [-d for d in reversed(divs)] + divs
    candidates = []
    for k, qq in enumerate(qqs):
        s = a0 // qq
        if s != qq:
            num, den = a1 - qq * a3, s - qq
            pps = [num // den] if num % den == 0 else []
        else:
            disc = a3 * a3 - 4 * (a2 - 2 * qq)
            root = isqrt(disc) if disc >= 0 else -1
            pps = ({(a3 - root) // 2, (a3 + root) // 2}
                   if root * root == disc and (a3 + root) % 2 == 0 else [])
        candidates.extend((pp, k) for pp in pps if abs(pp) <= 2 * bound)
    for pp, k in sorted(candidates):
        quot, rem = upoly_divmod(ints, (qqs[k], pp, 1))
        if not rem:  # exact division by a monic integer divisor
            return (qqs[k], pp, 1), tuple(map(int, quot))
    return None


def make_number_field(name, min_poly, assume_irreducible=False):
    """Build Q(alpha) after screening ``min_poly`` for obvious reducibility.

    The screen rejects non-squarefree input (gcd with the derivative),
    polynomials of degree >= 2 with a rational root, and quartics with a
    monic integer quadratic factor inside the norm bound.  Degree >= 5
    requires ``assume_irreducible=True``; the screens still run first.

    Raises :class:`NotSquarefree`, :class:`RationalRootFound`,
    :class:`ReducibleDetected`, or :class:`IrreducibilityUnattested`.
    """
    field = NumberField(name, min_poly)
    p, d, scale = field.min_poly, field.degree, field.scale
    if d == 1:
        # Q(alpha) with alpha rational: the field collapses to Q
        return field
    g = upoly_gcd(p, upoly_deriv(p))
    if upoly_degree(g) > 0:
        raise NotSquarefree(
            f"min_poly shares the factor {upoly_str(g, name)} with its derivative"
        )
    ints = tuple(map(int, field.model.min_poly))
    # rational root screen on the integral model (roots are r*scale)
    roots = upoly_rational_roots(ints)
    if roots:
        raise RationalRootFound(f"min_poly has the rational root {roots[0] / scale}")
    if d == 4:
        hit = _quadratic_factor(ints)
        if hit is not None:
            fac, cof = hit
            u = name
            raise ReducibleDetected(
                "min_poly factors as "
                f"({upoly_str(fac, u)}) * ({upoly_str(cof, u)}) after clearing "
                f"denominators (scale {scale})"
            )
    if d >= 5 and not assume_irreducible:
        raise IrreducibilityUnattested(
            f"degree {d} needs assume_irreducible=True (or --assume-irreducible); "
            "the built-in screen only certifies degrees <= 4"
        )
    return field


# ---------------------------------------------------------------------------
# exact linear algebra over Q or Q(alpha)
# ---------------------------------------------------------------------------

def scalar_inverse(c):
    """Multiplicative inverse of a Fraction or NFElement."""
    if isinstance(c, NFElement):
        return c.inverse()
    return _ONE / Fraction(c)


def rref(rows):
    """Reduce ``rows`` in place to reduced row echelon form; return pivot columns.

    Entries are Fractions or elements of one number field.  Each pivot is
    the first nonzero entry at or below the current row, scaled to 1, and
    its column is cleared in every other row.
    """
    pivots = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = scalar_inverse(rows[r][col])
        rows[r] = pr = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, pr)]
        pivots.append(col)
    return pivots


def _coord_rows(values):
    """Coordinate vectors of the values, all padded to the field degree."""
    field = common_field(values)
    if field is None:
        return [[Fraction(v)] for v in values]
    return [list(field.coerce(v).coords) for v in values]


def zrank(values):
    """Rank of the Z-module generated by algebraic numbers.

    Because 1, alpha, ..., alpha^(d-1) are Q-linearly independent, this is
    the Q-linear rank of the coordinate vectors, computed by :func:`rref`.
    ``zrank([]) == 0``.
    """
    return len(rref(_coord_rows(list(values))))


def is_rational_scalar(c):
    return isinstance(c, (int, Fraction)) or (isinstance(c, NFElement) and c.is_rational())


def as_fraction(c):
    if isinstance(c, NFElement):
        return c.rational_value()
    return Fraction(c)
