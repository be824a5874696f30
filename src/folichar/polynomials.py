"""Sparse multivariate polynomials over Q or Q(alpha), with monomial orders.

A :class:`VarSpace` fixes the ambient variables: an x-block, an optional
y-block of equal length (the conormal directions), and auxiliary variables
used internally by elimination tricks.  Polynomials are dicts mapping
exponent tuples (one slot per variable, x-block first, then y, then aux)
to nonzero scalars.

:class:`SparseSum` is the one home of sparse-sum arithmetic: ``+``, ``-``,
negation, scalar scaling, ``**`` and zero tests for polynomials here, Weyl
operators (:mod:`folichar.weyl`) and differential forms
(:mod:`folichar.forms`).  The one printing rule for a coefficient times a
monomial and for a sum of terms, ``term_str`` and ``sum_str``, lives in
:mod:`folichar.scalars`, where :class:`NFElement` prints by it too.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import add

from .errors import SpaceMismatch
from .scalars import NFElement, power, scalar_inverse, sum_str, term_str

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# variable spaces
# ---------------------------------------------------------------------------

class VarSpace(namedtuple("VarSpace", "x_vars y_vars aux_vars")):
    """Named coordinate block structure shared by all objects of a session."""

    __slots__ = ()

    def __new__(cls, x_vars, y_vars=(), aux_vars=()):
        self = super().__new__(cls, tuple(x_vars), tuple(y_vars), tuple(aux_vars))
        names = self.all_vars
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct: {names}")
        if self.y_vars and len(self.y_vars) != len(self.x_vars):
            raise ValueError("y-block must be empty or match the x-block length")
        return self

    @property
    def all_vars(self):
        return self.x_vars + self.y_vars + self.aux_vars

    @property
    def directions(self):
        """Variables carrying a derivative or differential: x then y, no aux."""
        return self.x_vars + self.y_vars

    @property
    def nvars(self):
        return len(self.x_vars) + len(self.y_vars) + len(self.aux_vars)

    @property
    def n(self):
        return len(self.x_vars)

    @property
    def x_indices(self):
        return tuple(range(len(self.x_vars)))

    @property
    def y_indices(self):
        nx = len(self.x_vars)
        return tuple(range(nx, nx + len(self.y_vars)))

    def index(self, name):
        try:
            return self.all_vars.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in {self}") from None

    def doubled(self):
        """Adjoin the conormal y-block (y<i> paired with x<i> by position)."""
        if self.y_vars:
            return self
        ys = []
        for i, xn in enumerate(self.x_vars):
            yn = "y" + xn[1:] if xn.startswith("x") and xn[1:].isdigit() else f"y{i + 1}"
            ys.append(yn)
        return VarSpace(self.x_vars, tuple(ys), self.aux_vars)

    def x_only(self):
        return VarSpace(self.x_vars, (), ())

    def with_aux(self, extra):
        return VarSpace(self.x_vars, self.y_vars, self.aux_vars + tuple(extra))

    def restrict(self, names):
        keep = set(names)
        return VarSpace(
            tuple(v for v in self.x_vars if v in keep),
            tuple(v for v in self.y_vars if v in keep),
            tuple(v for v in self.aux_vars if v in keep),
        )

    def fresh_aux(self, stem):
        existing = set(self.all_vars)
        name = stem
        k = 0
        while name in existing:
            k += 1
            name = f"{stem}{k}"
        return name

    def __str__(self):
        blocks = [",".join(self.x_vars)]
        if self.y_vars:
            blocks.append(",".join(self.y_vars))
        if self.aux_vars:
            blocks.append(",".join(self.aux_vars))
        return "(" + " | ".join(blocks) + ")"


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

def _grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


class MonomialOrder:
    """Total order on exponent tuples; larger key means larger monomial."""

    __slots__ = ("name", "blocks")

    def __init__(self, name, blocks=None):
        self.name = name
        self.blocks = blocks  # tuple of index tuples, compared left to right

    def key(self, exp):
        if self.name == "lex":
            return exp
        if self.name == "grevlex":
            return _grevlex_key(exp)
        return tuple(_grevlex_key(tuple(exp[i] for i in blk)) for blk in self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.name == other.name
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.name, self.blocks))

    def __repr__(self):
        return f"MonomialOrder({self.name})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def block_order_xy(space):
    """x-block over y-block (and aux last): eliminates the x-block."""
    return elimination_order(space, space.x_indices)


def elimination_order(space, eliminate_indices):
    """Block order placing the eliminated variables in the leading block."""
    elim = tuple(sorted(eliminate_indices))
    keep = tuple(i for i in range(space.nvars) if i not in set(elim))
    return MonomialOrder("block", (elim, keep))


def order_from_name(name, space):
    if name == "grevlex":
        return GREVLEX
    if name == "lex":
        return LEX
    if name == "block":
        return block_order_xy(space)
    raise ValueError(f"unknown monomial order {name!r}")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

# the scalar types that every polynomial-valued object embeds as a constant
SCALARS = (int, Fraction, NFElement)


class SparseSum:
    """Finite sum of coefficients times basis elements, stored sparsely.

    ``terms`` maps a basis key to a nonzero coefficient.  Constructors drop
    zero coefficients, so the arithmetic here only builds term dicts.  Each
    subclass supplies ``_like(terms)`` (a value of its own shape), ``_check``
    (raising its mismatch error) and, for the algebras, ``_embed(scalar)``
    and the noun used in the ``**`` error message.
    """

    __slots__ = ()

    def _embed(self, c):
        return NotImplemented

    def _operand(self, other):
        """``other`` as a like value, after the mismatch check."""
        if isinstance(other, SCALARS):
            return self._embed(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return other

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if self._operand(other) is NotImplemented:
            return NotImplemented
        return (-self) + other

    def _scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()} if c else {})

    def __pow__(self, k):
        one = self._embed(1)
        if one is NotImplemented:
            return NotImplemented
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"{self._noun} powers take nonnegative integer exponents")
        return power(self, k, one)


def _over_z(terms):
    """The terms as (exponent, integer) pairs over one common denominator d,
    and d; None when a coefficient is not an int or a Fraction."""
    cs = terms.values()
    if not all(type(c) is Fraction or type(c) is int for c in cs):
        return None
    d = lcm(*[c.denominator for c in cs])
    return [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()], d


class MultiPoly(SparseSum):
    """Immutable sparse polynomial over a :class:`VarSpace`."""

    __slots__ = ("space", "terms")
    _noun = "polynomial"

    def __init__(self, space, terms=None):
        self.space = space
        if terms is None:
            self.terms = {}
        else:
            self.terms = {e: c for e, c in terms.items() if c}

    def _like(self, terms):
        return MultiPoly(self.space, terms)

    def _embed(self, c):
        return MultiPoly.constant(self.space, c)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def constant(cls, space, c):
        return cls.monomial(space, (0,) * space.nvars, c)

    @classmethod
    def variable(cls, space, name_or_index):
        idx = name_or_index if isinstance(name_or_index, int) else space.index(name_or_index)
        exp = [0] * space.nvars
        exp[idx] = 1
        return cls(space, {tuple(exp): _ONE})

    @classmethod
    def monomial(cls, space, exp, coeff=_ONE):
        coeff = Fraction(coeff) if isinstance(coeff, int) else coeff
        return cls(space, {tuple(exp): coeff})

    # -- predicates ----------------------------------------------------------

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            if not any(e):
                return c
        raise ValueError(f"{self} is not constant")

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = MultiPoly.constant(self.space, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self._scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        a, b = _over_z(self.terms), _over_z(other.terms)
        over_q = a and b  # then sum integer products and divide once per term
        ta, tb = (a[0], b[0]) if over_q else (self.terms.items(), other.terms.items())
        out = {}
        for e1, c1 in ta:
            for e2, c2 in tb:
                e = tuple(map(add, e1, e2))
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
        if over_q:
            d = a[1] * b[1]
            return MultiPoly(self.space, {e: Fraction(n, d) for e, n in out.items() if n})
        return MultiPoly(self.space, {e: Fraction(c) if type(c) is int else c
                                      for e, c in out.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * scalar_inverse(scalar)

    # -- calculus ------------------------------------------------------------

    def partial(self, var):
        """Partial derivative with respect to a variable name or index."""
        idx = var if isinstance(var, int) else self.space.index(var)
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                c = k * c  # e -> e - 1_idx is one-to-one: each term lands once
                out[e[:idx] + (k - 1,) + e[idx + 1:]] = Fraction(c) if type(c) is int else c
        return MultiPoly(self.space, out)

    def substitute(self, mapping):
        """Substitute variables (by index or name) with polynomials or scalars.

        Scalar values scale a term's coefficient; polynomial values multiply
        a per-term factor.  Every result is summed into one term dict, and a
        cancelled term leaves it, as in ``MultiPoly`` addition.
        """
        subs = {}
        for k, v in mapping.items():
            idx = k if isinstance(k, int) else self.space.index(k)
            subs[idx] = v
        out = {}
        for e, c in self.terms.items():
            c = Fraction(c) if type(c) is int else c
            rest = list(e)
            factors = []
            for i, k in enumerate(e):
                if k and i in subs:
                    v = subs[i]
                    if isinstance(v, SCALARS):
                        c = c * v ** k
                    else:
                        factors.append(v ** k)
                    rest[i] = 0
            if factors:
                term = MultiPoly.constant(self.space, c)
                for f in factors:
                    term = term * f  # SpaceMismatch or TypeError on a bad value
                summands = [(tuple(map(add, f, rest)), d) for f, d in term.terms.items()]
            else:
                summands = [(tuple(rest), c)] if c else []
            for r, d in summands:
                d = out[r] + d if r in out else d
                if d:
                    out[r] = d
                else:
                    del out[r]
        return MultiPoly(self.space, out)

    def evaluate(self, point):
        """Evaluate at a full point given as a mapping name/index -> scalar."""
        res = self.substitute(point)
        if not res.is_constant():
            raise ValueError("evaluation left free variables")
        return res.constant_value()

    # -- degrees and parts -----------------------------------------------------

    def degree(self, indices=None):
        """Total degree (or degree in the given variable indices); -1 for 0."""
        if not self.terms:
            return -1
        if indices is None:
            return max(sum(e) for e in self.terms)
        idx = set(indices)
        return max(sum(v for i, v in enumerate(e) if i in idx) for e in self.terms)

    def homogeneous_part(self, d, indices=None):
        return self.homogeneous_parts(indices).get(d, MultiPoly.zero(self.space))

    def homogeneous_parts(self, indices=None):
        """Decomposition into homogeneous parts, as a degree -> poly dict."""
        idx = None if indices is None else set(indices)
        buckets = {}
        for e, c in self.terms.items():
            deg = sum(e) if idx is None else sum(v for i, v in enumerate(e) if i in idx)
            buckets.setdefault(deg, {})[e] = c
        return {d: MultiPoly(self.space, t) for d, t in sorted(buckets.items())}

    def involves(self, indices):
        idx = set(indices)
        return any(e[i] for e in self.terms for i in idx)

    # -- leading data ----------------------------------------------------------

    def leading(self, order=GREVLEX):
        """(exponent, coefficient) of the largest monomial; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def monic(self, order=GREVLEX):
        if not self.terms:
            return self
        _, c = self.leading(order)
        if c == 1:
            return self
        return self * scalar_inverse(c)

    def sorted_terms(self, order=GREVLEX):
        return sorted(self.terms.items(), key=lambda ec: order.key(ec[0]), reverse=True)

    # -- space transport ---------------------------------------------------------

    def restrict_to(self, space):
        """The same polynomial over ``space``, each variable matched by name;
        raises :class:`SpaceMismatch` if a used variable is absent from it."""
        if space == self.space:
            return self
        names = self.space.all_vars
        keep = {v: i for i, v in enumerate(space.all_vars)}
        pos = [keep.get(v) for v in names]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * space.nvars
            for i, k in enumerate(e):
                if k:
                    if pos[i] is None:
                        raise SpaceMismatch(f"variable {names[i]} is used but absent from {space}")
                    ne[pos[i]] = k
            out[tuple(ne)] = c
        return MultiPoly(space, out)

    lift_to = restrict_to

    # -- display -------------------------------------------------------------

    def to_str(self, order=GREVLEX):
        names = self.space.all_vars
        chunks = []
        for e, c in self.sorted_terms(order):
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            chunks.append(term_str(c, "*".join(factors)))
        return sum_str(chunks)

    __str__ = to_str

    def __repr__(self):
        return f"<{self.to_str()}>"


def multigrade_decompose(f):
    """Split a polynomial into its monomial summands, largest first in grevlex."""
    return [MultiPoly.monomial(f.space, e, c) for e, c in f.sorted_terms()]
