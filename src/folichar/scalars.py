"""Exact scalar arithmetic: rationals and single-generator number fields.

The working field of every computation is either Q (``fractions.Fraction``)
or Q(alpha) for one algebraic generator alpha with a monic minimal polynomial
over Q.  Field elements are coordinate vectors in the power basis
1, alpha, ..., alpha^(d-1); all arithmetic is exact.

Univariate polynomials over a field are represented as tuples of
coefficients in ascending degree order (``()`` is the zero polynomial).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import (
    FieldMismatch,
    IrreducibilityUnattested,
    NotSquarefree,
    RationalRootFound,
    ReducibleDetected,
)

Rational = Fraction

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


def upoly_add(p, q):
    n = max(len(p), len(q))
    return upoly_trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def upoly_neg(p):
    return tuple(-c for c in p)


def upoly_sub(p, q):
    return upoly_add(p, upoly_neg(q))


def upoly_scale(p, c):
    if not c:
        return ()
    return tuple(c * a for a in p)


def upoly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return upoly_trim(out)


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


def upoly_egcd(p, q):
    """Extended Euclid: returns (g, u, v) with u*p + v*q = g, g monic."""
    r0, r1 = upoly_trim(p), upoly_trim(q)
    u0, u1 = (_ONE,), ()
    v0, v1 = (), (_ONE,)
    while r1:
        quot, rem = upoly_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, upoly_sub(u0, upoly_mul(quot, u1))
        v0, v1 = v1, upoly_sub(v0, upoly_mul(quot, v1))
    if not r0:
        return (), u0, v0
    inv = scalar_inverse(r0[-1])
    return upoly_scale(r0, inv), upoly_scale(u0, inv), upoly_scale(v0, inv)


def upoly_deriv(p):
    return upoly_trim(i * c for i, c in enumerate(p) if i)


def upoly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def upoly_squarefree_part(p):
    """p / gcd(p, p') over a field of characteristic zero."""
    d = upoly_gcd(p, upoly_deriv(p))
    if upoly_degree(d) <= 0:
        return upoly_monic(p)
    return upoly_monic(upoly_divmod(p, d)[0])


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
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    a0, an = ints[0], ints[-1]
    for num in _int_divisors(a0):
        for dd in _int_divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * num, dd)
                if cand not in roots and not upoly_eval(p, cand):
                    roots.append(cand)
    return roots


def upoly_str(p, var="t"):
    if not p:
        return "0"
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
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField:
    """Q(alpha) for a single generator with monic minimal polynomial over Q."""

    __slots__ = ("name", "min_poly", "degree", "_red")

    def __init__(self, name, min_poly):
        min_poly = upoly_trim(tuple(Fraction(c) for c in min_poly))
        if upoly_degree(min_poly) < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if min_poly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.name = name
        self.min_poly = min_poly
        self.degree = upoly_degree(min_poly)
        # reduction table: alpha^(d+k) as a coordinate vector, k = 0..d-2
        d = self.degree
        red = []
        cur = [-c for c in min_poly[:-1]]  # alpha^d
        red.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [_ZERO] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(d):
                    nxt[i] -= top * min_poly[i]
            cur = nxt
            red.append(tuple(cur))
        self._red = tuple(red)

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
    """Element of a :class:`NumberField`, a vector in the power basis."""

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
            if other.field != self.field:
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
        o = self._binop(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        prod = [_ZERO] * (2 * d - 1)
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
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        g, u, _ = upoly_egcd(upoly_trim(self.coords), self.field.min_poly)
        if upoly_degree(g) != 0:
            raise ReducibleDetected(
                f"minimal polynomial of {self.field.name} is reducible: "
                f"gcd {upoly_str(g, self.field.name)} found during inversion"
            )
        return self.field.element(u)

    def __truediv__(self, other):
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
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- display ------------------------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        name = self.field.name
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}{name}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


# ---------------------------------------------------------------------------
# field construction with irreducibility screen
# ---------------------------------------------------------------------------

def _to_integer_monic(p):
    """Monic rational p(t) -> (c, g) with g(u) = c^d p(u/c) monic integral."""
    c = 1
    for a in p:
        c = c * a.denominator // gcd(c, a.denominator)
    d = upoly_degree(p)
    return c, tuple(int(p[i] * c ** (d - i)) for i in range(d + 1))


def _norm2_bound(ints):
    """floor(l2 norm) + 1: cheap Mahler-measure bound for factor coefficients."""
    s = sum(c * c for c in ints)
    return isqrt(s) + 1


def _quadratic_factor(ints):
    """Search for a monic integer quadratic divisor of a monic integer quartic.

    The constant term of such a divisor divides ``ints[0]``, which is
    nonzero once the rational-root screen has passed.
    """
    bound = _norm2_bound(ints)
    divs = [d for d in _int_divisors(ints[0]) if d <= bound]
    qqs = [-d for d in reversed(divs)] + divs
    for pp in range(-2 * bound, 2 * bound + 1):
        for qq in qqs:
            # synthetic division of ints by u^2 + pp*u + qq
            rem = list(ints)
            for i in range(len(ints) - 1, 1, -1):
                f = rem[i]
                if f:
                    rem[i - 1] -= f * pp
                    rem[i - 2] -= f * qq
                rem[i] = 0
            if not rem[0] and not rem[1]:
                quot = list(ints)
                out = []
                for i in range(len(ints) - 1, 1, -1):
                    f = quot[i]
                    out.append(f)
                    quot[i - 1] -= f * pp
                    quot[i - 2] -= f * qq
                out.reverse()
                return (qq, pp, 1), tuple(out)
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
    p = upoly_trim(tuple(Fraction(c) for c in min_poly))
    d = upoly_degree(p)
    if d < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    if p[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    if d == 1:
        # Q(alpha) with alpha rational: the field collapses to Q
        return NumberField(name, p)
    g = upoly_gcd(p, upoly_deriv(p))
    if upoly_degree(g) > 0:
        raise NotSquarefree(
            f"min_poly shares the factor {upoly_str(g, name)} with its derivative"
        )
    scale, ints = _to_integer_monic(p)
    # rational root screen on the integral model (roots are r*scale)
    for num in _int_divisors(ints[0]) if ints[0] else [0]:
        candidates = [num, -num] if num else [0]
        for cand in candidates:
            if not upoly_eval(ints, cand):
                raise RationalRootFound(
                    f"min_poly has the rational root {Fraction(cand, scale)}"
                )
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
    return NumberField(name, p)


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
    field = None
    for v in values:
        if isinstance(v, NFElement):
            if field is None:
                field = v.field
            elif v.field != field:
                raise FieldMismatch("zrank needs all elements in one field")
    rows = []
    for v in values:
        if isinstance(v, NFElement):
            rows.append(list(v.coords))
        else:
            q = Fraction(v)
            if field is None:
                rows.append([q])
            else:
                rows.append([q] + [_ZERO] * (field.degree - 1))
    return rows


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
