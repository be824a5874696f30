"""Polynomial differential forms, integrability tests, and normal forms.

A :class:`PolyForm` of degree q over a :class:`VarSpace` stores coefficients
on strictly increasing index tuples of the form directions (the x-block
followed by the y-block; auxiliary variables never carry a differential).
Signs follow the Koszul convention throughout: d(a ^ b) = da ^ b +
(-1)^deg(a) a ^ db, and contraction is a graded derivation of degree -1.

Decomposability and integrability of a q-form are tested with the
finite-dimensional criteria: for every basis multivector J of degree q-1,
(i_J w) ^ w = 0 declares the kernel a distribution, and (i_J w) ^ dw = 0
on top of that declares it integrable.

A form is a :class:`folichar.polynomials.SparseSum` keyed by index tuples,
so its sums, differences, negation and scalar scaling, and the
coefficient-times-monomial rule it prints with, are the polynomials' own.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import (
    DegeneratePencil,
    InvalidInput,
    NotADistribution,
    NotTorusInvariant,
    SpaceMismatch,
    ZeroForm,
)
from .ideals import poly_det
from .polynomials import GREVLEX, SCALARS, MultiPoly, SparseSum, VarSpace, sum_str, term_str


def _merge_signed(idx_a, idx_b):
    """Merge two strictly increasing tuples; (sign, merged) or (0, None)."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(idx_a) and j < len(idx_b):
        a, b = idx_a[i], idx_b[j]
        if a == b:
            return 0, None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of idx_a
            if (len(idx_a) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(idx_a[i:])
    merged.extend(idx_b[j:])
    return sign, tuple(merged)


class PolyForm(SparseSum):
    """Differential q-form with :class:`MultiPoly` coefficients."""

    __slots__ = ("space", "degree", "terms")

    def __init__(self, space, degree, terms=None):
        ndir = len(space.directions)
        if degree < 0:
            raise ValueError("form degree must be nonnegative")
        self.space = space
        self.degree = degree
        clean = {}
        if terms:
            for idx, poly in terms.items():
                idx = tuple(idx)
                if len(idx) != degree or any(
                    i < 0 or i >= ndir for i in idx
                ) or tuple(sorted(set(idx))) != idx:
                    raise ValueError(f"bad index tuple {idx} for degree {degree}")
                if poly:
                    clean[idx] = poly
        self.terms = clean

    def _like(self, terms):
        return PolyForm(self.space, self.degree, terms)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, space, degree=0):
        return cls(space, degree)

    @classmethod
    def from_poly(cls, poly):
        return cls(poly.space, 0, {(): poly})

    @classmethod
    def basis_form(cls, space, index):
        """The 1-form attached to the direction with the given index."""
        return cls(space, 1, {(index,): MultiPoly.constant(space, 1)})

    # -- predicates -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (
            self.space == other.space
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, self.degree, frozenset(
            (i, hash(p)) for i, p in self.terms.items())))

    @property
    def ndirections(self):
        return len(self.space.directions)

    # -- linear structure -------------------------------------------------------

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degree {self.degree} and {other.degree}"
            )

    def __mul__(self, other):
        """Scaling by a scalar or polynomial (use :func:`wedge` for forms)."""
        if isinstance(other, PolyForm):
            return wedge(self, other)
        if isinstance(other, SCALARS):
            return self._scale(other)
        return self._like({i: p * other for i, p in self.terms.items()})

    __rmul__ = __mul__

    # -- display ---------------------------------------------------------------

    def _dname(self, i):
        return "d" + self.space.directions[i]

    def to_str(self):
        chunks = []
        for idx in sorted(self.terms):
            p = self.terms[idx]
            mono = "^".join(self._dname(i) for i in idx)
            if not mono:
                chunks.append(p.to_str())
            elif p.is_constant():
                chunks.append(term_str(p.constant_value(), mono))
            elif len(p.terms) == 1:
                chunks.append(f"{p.to_str()}*{mono}")
            else:
                chunks.append(f"({p.to_str()})*{mono}")
        return sum_str(chunks)

    __str__ = to_str

    def __repr__(self):
        return f"<{self.to_str()}>"


# ---------------------------------------------------------------------------
# graded operations
# ---------------------------------------------------------------------------

def wedge(a, b):
    """Exterior product; forms past the direction count collapse to zero."""
    if a.space != b.space:
        raise SpaceMismatch("wedge over mismatched spaces")
    out = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            sign, merged = _merge_signed(ia, ib)
            if not sign:
                continue
            term = pa * pb if sign > 0 else -(pa * pb)
            out[merged] = out[merged] + term if merged in out else term
    return PolyForm(a.space, a.degree + b.degree, out)


def exterior_derivative(w):
    """Exterior differential d(w) = sum over directions j of dv_j ^ (dw/dv_j)."""
    out = PolyForm(w.space, w.degree + 1)
    for j in range(w.ndirections):
        out = out + wedge(PolyForm.basis_form(w.space, j),
                          w._like({idx: p.partial(j) for idx, p in w.terms.items()}))
    return out


def contract_index(w, j):
    """Interior product with the coordinate direction number j."""
    if w.degree == 0:
        return PolyForm(w.space, 0)
    out = {}
    for idx, p in w.terms.items():
        if j not in idx:
            continue
        pos = idx.index(j)
        rest = idx[:pos] + idx[pos + 1:]
        term = p if pos % 2 == 0 else -p
        out[rest] = out[rest] + term if rest in out else term
    return PolyForm(w.space, w.degree - 1, out)


def contract_basis(w, indices):
    """Iterated interior product with a basis multivector (tuple of indices)."""
    out = w
    for j in indices:
        out = contract_index(out, j)
    return out


def contract_field(w, xi):
    """Interior product i_xi(w) for a polynomial vector field."""
    ndir = w.ndirections
    if len(xi.components) != ndir:
        raise SpaceMismatch(f"expected {ndir} components, got {len(xi.components)}")
    out = PolyForm(w.space, max(w.degree - 1, 0))
    for j, c in enumerate(xi.components):
        out = out + contract_index(w, j) * c.lift_to(w.space)
    return out


def lie_derivative(xi, w):
    """Cartan formula: L_xi = i_xi d + d i_xi; i_xi is 0 on functions, so L_xi f = xi(f)."""
    out = contract_field(exterior_derivative(w), xi)
    return out + exterior_derivative(contract_field(w, xi)) if w.degree else out


# ---------------------------------------------------------------------------
# distributions and integrability
# ---------------------------------------------------------------------------

def _wedge_residues(w, other):
    """(i_J w) ^ other = 0 for every strictly increasing (q-1)-tuple J?"""
    return all(wedge(contract_basis(w, J), other).is_zero()
               for J in itertools.combinations(range(w.ndirections), w.degree - 1))


def is_distribution(w):
    """Does ker(w) define a codimension-q distribution (w decomposable)?

    Checks (i_J w) ^ w = 0 for every strictly increasing (q-1)-tuple J of
    directions.  Degree-1 forms pass trivially.
    """
    if w.is_zero():
        raise ZeroForm("the zero form does not define a distribution")
    if w.degree < 1:
        raise InvalidInput("distributions come from forms of degree >= 1")
    return _wedge_residues(w, w)


def is_integrable(w):
    """Frobenius-type criterion: distribution plus (i_J w) ^ dw = 0 for all J.

    Raises :class:`NotADistribution` when the decomposability half fails.
    """
    if not is_distribution(w):
        raise NotADistribution("form fails the decomposability minors")
    return _wedge_residues(w, exterior_derivative(w))


def proportional_forms(a, b):
    """Are a and b proportional over the fraction field (all 2x2 minors zero)?

    Requires b nonzero; the witness ratio is left to the caller.
    """
    if b.is_zero():
        raise ZeroForm("proportionality against the zero form is ill-posed")
    if a.space != b.space or a.degree != b.degree:
        raise SpaceMismatch("proportionality needs forms of one degree and space")
    support = sorted(set(a.terms) | set(b.terms))
    zero = MultiPoly.zero(a.space)
    for i1, i2 in itertools.combinations(support, 2):
        a1, a2 = a.terms.get(i1, zero), a.terms.get(i2, zero)
        b1, b2 = b.terms.get(i1, zero), b.terms.get(i2, zero)
        if not (a1 * b2 - a2 * b1).is_zero():
            return False
    return True


def is_infinitesimal_automorphism(xi, w):
    """L_xi(w) proportional to w (zero counts as proportional)."""
    if w.is_zero():
        raise ZeroForm("automorphism test needs a nonzero form")
    if w.degree < 1:
        raise InvalidInput("the automorphism test applies to forms of degree >= 1")
    return proportional_forms(lie_derivative(xi, w), w)


# ---------------------------------------------------------------------------
# torus invariance and logarithmic normal form
# ---------------------------------------------------------------------------

def _log_factor(w):
    """(h, {I: lambda_I}) with c_I * x_I = lambda_I * h for every slot I of
    the nonzero form w, h the smallest I's product made monic; None when the
    products are not all scalar multiples of one polynomial."""
    nvars = w.space.nvars
    products = {idx: c * MultiPoly.monomial(w.space, tuple(int(i in idx) for i in range(nvars)))
                for idx, c in sorted(w.terms.items())}
    h = products[min(products)].monic(GREVLEX)
    le, _ = h.leading(GREVLEX)
    lambdas = {}
    for idx, u in products.items():
        lam = u.terms.get(le)
        if lam is None or u != h * lam:
            return None
        lambdas[idx] = lam
    return h, lambdas


def is_torus_invariant_form(w):
    """Invariance of the kernel distribution under coordinate scalings.

    The pullback along x_i -> t_i x_i has I-slot (c_I x_I)(t x) / x_I, so it
    is proportional to w = sum c_I dx_I exactly when each ratio
    (c_I x_I) / (c_J x_J) is torus-invariant, hence constant, the orbits
    being dense: the products c_I x_I are scalar multiples of one
    polynomial.  Every variable of the space is a torus coordinate.
    """
    if w.is_zero():
        raise ZeroForm("torus test needs a nonzero form")
    return _log_factor(w) is not None


# w = h * Sum over I of lambda_I * dx_I / x_I: h is the common polynomial
# with h = c_I * x_I / lambda_I for every participating index tuple I, and
# lambdas maps those index tuples to nonzero scalars
LogNormalForm = namedtuple("LogNormalForm", "h lambdas")


# support: the union of the participating direction indices; k: the number
# of invariant hyperplanes; q: the form degree; hyperplanes: the variable
# names cut out by the support; witness_subspace: the indices pinned to zero,
# None unless k > q and q <= n - 2
LogNormalReport = namedtuple("LogNormalReport", "normal_form support k q hyperplanes "
                             "witness_subspace witness_dimension")


def logarithmic_normal_form(w):
    """Write a torus-invariant q-form as h * Sum(lambda_I dx_I / x_I).

    Every product c_I * x_I is lambda_I * h, h the first (smallest I)
    product made monic.  Returns the pair (LogNormalForm, LogNormalReport).

    Raises :class:`NotTorusInvariant`.
    """
    if w.is_zero():
        raise ZeroForm("normal form needs a nonzero form")
    if w.degree < 1:
        raise InvalidInput("normal form applies to forms of degree >= 1")
    factor = _log_factor(w)
    if factor is None:
        raise NotTorusInvariant("form is not invariant under coordinate scaling")
    nf = LogNormalForm(*factor)
    support = tuple(sorted({i for idx in nf.lambdas for i in idx}))
    k = len(support)
    q = w.degree
    n = w.ndirections
    names = w.space.directions
    witness = None
    wdim = None
    if k > q and q <= n - 2:
        witness = tuple(support[: q + 1])
        wdim = n - (q + 1)
    report = LogNormalReport(
        normal_form=nf,
        support=support,
        k=k,
        q=q,
        hyperplanes=tuple(names[i] for i in support),
        witness_subspace=witness,
        witness_dimension=wdim,
    )
    return nf, report


# ---------------------------------------------------------------------------
# binary discriminant
# ---------------------------------------------------------------------------

def binary_discriminant(coeffs):
    """Discriminant of a binary form phi = sum a_j u^(k-j) v^j, k >= 2.

    Computed as (-1)^(k(k-1)/2) Res(d phi/du, d phi/dv) / k^(k-2), the
    resultant of the two partials taken as binary forms of degree k - 1
    (the Sylvester determinant, by :func:`poly_det`).  Euler's identity
    k*phi = u*phi_u + v*phi_v makes this hold whatever the leading slot a_0,
    so a form with a_0 = 0 needs no change of coordinates.  Coefficients
    may be scalars or polynomials.

    Raises :class:`InvalidInput` below degree 2 and :class:`DegeneratePencil`
    on the zero form.
    """
    coeffs = list(coeffs)
    if len(coeffs) < 3:
        raise InvalidInput("discriminants need degree >= 2")
    space = next((c.space for c in coeffs if isinstance(c, MultiPoly)), VarSpace(("x1",)))
    a = []
    for c in coeffs:
        if isinstance(c, SCALARS):
            c = MultiPoly.constant(space, c)
        elif c.space != space:
            c = c.lift_to(space)
        a.append(c)
    if all(c.is_zero() for c in a):
        raise DegeneratePencil("binary form is identically zero")
    k = len(a) - 1
    du = [(k - j) * a[j] for j in range(k)]         # u^(k-1-j) v^j slots
    dv = [(j + 1) * a[j + 1] for j in range(k)]
    zero = MultiPoly.zero(space)
    rows = [[zero] * shift + p + [zero] * (k - 2 - shift)
            for p in (du, dv) for shift in range(k - 1)]
    disc = poly_det(rows) / k ** (k - 2)
    return -disc if (k * (k - 1) // 2) % 2 else disc
