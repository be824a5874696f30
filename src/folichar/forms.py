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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    DegeneratePencil,
    NotADistribution,
    NotLogarithmic,
    NotTorusInvariant,
    SpaceMismatch,
    ZeroForm,
)
from .ideals import exact_divide
from .polynomials import GREVLEX, MultiPoly, VarSpace
from .scalars import NFElement

_ONE = Fraction(1)


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


class PolyForm:
    """Differential q-form with :class:`MultiPoly` coefficients."""

    __slots__ = ("space", "degree", "coeffs")

    def __init__(self, space, degree, coeffs=None):
        ndir = len(space.x_vars) + len(space.y_vars)
        if degree < 0:
            raise ValueError("form degree must be nonnegative")
        self.space = space
        self.degree = degree
        clean = {}
        if coeffs:
            for idx, poly in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree or any(
                    i < 0 or i >= ndir for i in idx
                ) or tuple(sorted(set(idx))) != idx:
                    raise ValueError(f"bad index tuple {idx} for degree {degree}")
                if not poly.is_zero():
                    clean[idx] = poly
        self.coeffs = clean

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

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (
            self.space == other.space
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.space, self.degree, frozenset(
            (i, hash(p)) for i, p in self.coeffs.items())))

    @property
    def ndirections(self):
        return len(self.space.x_vars) + len(self.space.y_vars)

    # -- linear structure -------------------------------------------------------

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degree {self.degree} and {other.degree}"
            )

    def __add__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for idx, p in other.coeffs.items():
            s = out.get(idx)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return PolyForm(self.space, self.degree, out)

    def __neg__(self):
        return PolyForm(self.space, self.degree, {i: -p for i, p in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Scaling by a scalar or polynomial (use :func:`wedge` for forms)."""
        if isinstance(other, PolyForm):
            return wedge(self, other)
        if isinstance(other, (int, Fraction, NFElement)):
            other = MultiPoly.constant(self.space, other)
        return PolyForm(
            self.space, self.degree, {i: p * other for i, p in self.coeffs.items()}
        )

    __rmul__ = __mul__

    # -- display ---------------------------------------------------------------

    def _dname(self, i):
        names = self.space.x_vars + self.space.y_vars
        return "d" + names[i]

    def to_str(self):
        if not self.coeffs:
            return "0"
        chunks = []
        for idx in sorted(self.coeffs):
            p = self.coeffs[idx]
            mono = "^".join(self._dname(i) for i in idx)
            if not mono:
                chunks.append(p.to_str())
                continue
            if p.is_constant():
                c = p.constant_value()
                if c == 1:
                    chunks.append(mono)
                    continue
                if c == -1:
                    chunks.append(f"-{mono}")
                    continue
                lead = MultiPoly._coeff_str(c)
                chunks.append(f"{lead}*{mono}")
                continue
            if len(p.terms) == 1:
                chunks.append(f"{p.to_str()}*{mono}")
            else:
                chunks.append(f"({p.to_str()})*{mono}")
        return " + ".join(chunks).replace("+ -", "- ")

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
    deg = a.degree + b.degree
    ndir = a.ndirections
    if deg > ndir:
        return PolyForm(a.space, deg)
    out = {}
    for ia, pa in a.coeffs.items():
        for ib, pb in b.coeffs.items():
            sign, merged = _merge_signed(ia, ib)
            if not sign:
                continue
            term = pa * pb
            if sign < 0:
                term = -term
            s = out.get(merged)
            s = term if s is None else s + term
            if s.is_zero():
                out.pop(merged, None)
            else:
                out[merged] = s
    return PolyForm(a.space, deg, out)


def exterior_derivative(w):
    """Exterior differential d(w)."""
    out = {}
    ndir = w.ndirections
    deg = w.degree + 1
    if deg > ndir:
        return PolyForm(w.space, deg)
    for idx, p in w.coeffs.items():
        for j in range(ndir):
            dp = p.partial(j)
            if dp.is_zero():
                continue
            sign, merged = _merge_signed((j,), idx)
            if not sign:
                continue
            term = dp if sign > 0 else -dp
            s = out.get(merged)
            s = term if s is None else s + term
            if s.is_zero():
                out.pop(merged, None)
            else:
                out[merged] = s
    return PolyForm(w.space, deg, out)


def contract_index(w, j):
    """Interior product with the coordinate direction number j."""
    if w.degree == 0:
        return PolyForm(w.space, 0)
    out = {}
    for idx, p in w.coeffs.items():
        if j not in idx:
            continue
        pos = idx.index(j)
        rest = idx[:pos] + idx[pos + 1:]
        term = p if pos % 2 == 0 else -p
        s = out.get(rest)
        s = term if s is None else s + term
        if s.is_zero():
            out.pop(rest, None)
        else:
            out[rest] = s
    return PolyForm(w.space, w.degree - 1, out)


def contract_basis(w, indices):
    """Iterated interior product with a basis multivector (tuple of indices)."""
    out = w
    for j in indices:
        out = contract_index(out, j)
    return out


def _field_components(xi, space):
    """Direction components of a vector-field-like object over ``space``."""
    if hasattr(xi, "form_components"):
        comps = xi.form_components()
    else:
        comps = list(xi)
    comps = [c.lift_to(space) if c.space != space else c for c in comps]
    ndir = len(space.x_vars) + len(space.y_vars)
    if len(comps) != ndir:
        raise ValueError(f"expected {ndir} components, got {len(comps)}")
    return comps


def contract_field(w, xi):
    """Interior product i_xi(w) for a polynomial vector field."""
    comps = _field_components(xi, w.space)
    out = PolyForm(w.space, max(w.degree - 1, 0))
    for j, c in enumerate(comps):
        if c.is_zero():
            continue
        out = out + contract_index(w, j) * c
    return out


def lie_derivative(xi, w):
    """Cartan formula: L_xi = i_xi d + d i_xi."""
    return contract_field(exterior_derivative(w), xi) + exterior_derivative(
        contract_field(w, xi)
    )


# ---------------------------------------------------------------------------
# distributions and integrability
# ---------------------------------------------------------------------------

def is_distribution(w, certificate=False):
    """Does ker(w) define a codimension-q distribution (w decomposable)?

    Checks (i_J w) ^ w = 0 for every strictly increasing (q-1)-tuple J of
    directions.  Degree-1 forms pass trivially.
    """
    if w.is_zero():
        raise ZeroForm("the zero form does not define a distribution")
    if w.degree < 1:
        raise ValueError("distributions come from forms of degree >= 1")
    failures = []
    for J in itertools.combinations(range(w.ndirections), w.degree - 1):
        residue = wedge(contract_basis(w, J), w)
        if not residue.is_zero():
            if not certificate:
                return False
            failures.append((J, residue))
    if certificate:
        return (not failures), failures
    return True


def is_integrable(w, certificate=False):
    """Frobenius-type criterion: distribution plus (i_J w) ^ dw = 0 for all J.

    Raises :class:`NotADistribution` when the decomposability half fails.
    """
    ok = is_distribution(w)
    if not ok:
        raise NotADistribution("form fails the decomposability minors")
    dw = exterior_derivative(w)
    failures = []
    for J in itertools.combinations(range(w.ndirections), w.degree - 1):
        residue = wedge(contract_basis(w, J), dw)
        if not residue.is_zero():
            if not certificate:
                return False
            failures.append((J, residue))
    if certificate:
        return (not failures), failures
    return True


def proportional_forms(a, b):
    """Are a and b proportional over the fraction field (all 2x2 minors zero)?

    Requires b nonzero; the witness ratio is left to the caller.
    """
    if b.is_zero():
        raise ZeroForm("proportionality against the zero form is ill-posed")
    if a.space != b.space or a.degree != b.degree:
        raise SpaceMismatch("proportionality needs forms of one degree and space")
    support = sorted(set(a.coeffs) | set(b.coeffs))
    zero = MultiPoly.zero(a.space)
    for i1, i2 in itertools.combinations(support, 2):
        a1, a2 = a.coeffs.get(i1, zero), a.coeffs.get(i2, zero)
        b1, b2 = b.coeffs.get(i1, zero), b.coeffs.get(i2, zero)
        if not (a1 * b2 - a2 * b1).is_zero():
            return False
    return True


def is_infinitesimal_automorphism(xi, w):
    """L_xi(w) proportional to w (zero counts as proportional)."""
    if w.is_zero():
        raise ZeroForm("automorphism test needs a nonzero form")
    lw = lie_derivative(xi, w)
    if lw.is_zero():
        return True
    return proportional_forms(lw, w)


# ---------------------------------------------------------------------------
# torus invariance and logarithmic normal form
# ---------------------------------------------------------------------------

def _torus_pullback(w, ext, tnames):
    """Pull w back along x_i -> t_i * x_i in the extended space."""
    tpolys = [MultiPoly.variable(ext, t) for t in tnames]
    scaled = {}
    ndir = w.ndirections
    for idx, p in w.coeffs.items():
        q = p.lift_to(ext).substitute(
            {i: tpolys[i] * MultiPoly.variable(ext, ext.all_vars[i]) for i in range(ndir)}
        )
        for i in idx:
            q = q * tpolys[i]
        scaled[idx] = q
    return PolyForm(ext, w.degree, scaled)


def is_torus_invariant_form(w, certificate=False):
    """Invariance of the kernel distribution under coordinate scalings.

    The pullback along x_i -> t_i x_i (fresh scalar slots t_i) must be
    proportional to w over the extended ring; equivalently every coefficient
    scales by one common monomial character.
    """
    if w.is_zero():
        raise ZeroForm("torus test needs a nonzero form")
    ndir = w.ndirections
    tnames = tuple(w.space.fresh_aux(f"_t{i + 1}") for i in range(ndir))
    ext = w.space.with_aux(tnames)
    pulled = _torus_pullback(w, ext, tnames)
    lifted = PolyForm(ext, w.degree, {i: p.lift_to(ext) for i, p in w.coeffs.items()})
    ok = proportional_forms(pulled, lifted)
    if certificate:
        return ok, pulled
    return ok


@dataclass
class LogNormalForm:
    """w = (Sum over I of lambda_I * x_I * dx_I / x_I) * h-normalization data.

    ``h`` is the common polynomial with h = c_I * x_I / lambda_I for every
    participating index tuple; ``lambdas`` maps index tuples to nonzero
    scalars.
    """

    h: MultiPoly
    lambdas: dict

    @property
    def support(self):
        out = set()
        for idx in self.lambdas:
            out.update(idx)
        return tuple(sorted(out))


@dataclass
class LogNormalReport:
    normal_form: LogNormalForm
    support: tuple          # union of participating direction indices
    k: int                  # number of invariant hyperplanes
    q: int                  # form degree
    hyperplanes: tuple      # variable names cut out by the support
    witness_subspace: tuple | None  # indices pinned to zero, if k > q, q <= n-2
    witness_dimension: int | None


def logarithmic_normal_form(w):
    """Write a torus-invariant q-form as h * Sum(lambda_I dx_I / x_I).

    For each participating I the product c_I * x_I must be a common
    polynomial up to scalars; the first (smallest I) product, made monic,
    serves as h.  Returns the pair (LogNormalForm, LogNormalReport).

    Raises :class:`NotTorusInvariant` or :class:`NotLogarithmic`.
    """
    if w.is_zero():
        raise ZeroForm("normal form needs a nonzero form")
    if w.degree < 1:
        raise ValueError("normal form applies to forms of degree >= 1")
    if not is_torus_invariant_form(w):
        raise NotTorusInvariant("form is not invariant under coordinate scaling")
    space = w.space
    products = {}
    for idx, c in sorted(w.coeffs.items()):
        exp = [0] * space.nvars
        for i in idx:
            exp[i] = 1
        products[idx] = c * MultiPoly.monomial(space, tuple(exp))
    first = min(products)
    h = products[first].monic(GREVLEX)
    lambdas = {}
    for idx, u in products.items():
        # u must equal lambda * h for a scalar lambda
        le, lc = h.leading(GREVLEX)
        lam = u.terms.get(le)
        if lam is None or u != h * lam:
            raise NotLogarithmic(
                f"coefficient slot {idx} is not a scalar multiple of {h}"
            )
        lambdas[idx] = lam
    nf = LogNormalForm(h, lambdas)
    support = nf.support
    k = len(support)
    q = w.degree
    n = w.ndirections
    names = (space.x_vars + space.y_vars)
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

def _poly_det(rows):
    """Fraction-free Bareiss determinant of a square MultiPoly matrix."""
    m = [row[:] for row in rows]
    size = len(m)
    if size == 0:
        raise ValueError("empty matrix")
    space = m[0][0].space
    one = MultiPoly.constant(space, 1)
    sign = 1
    prev = one
    for k in range(size - 1):
        if m[k][k].is_zero():
            swap = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if swap is None:
                return MultiPoly.zero(space)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev) if not num.is_zero() else num
            m[i][k] = MultiPoly.zero(space)
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


def binary_discriminant(coeffs, space=None):
    """Discriminant of a binary form phi = sum a_j u^(k-j) v^j, k >= 2.

    Computed as (-1)^(k(k-1)/2) Res_u(phi, d phi/du) / a_0 after an exact
    unimodular shear v -> v + c*u (discriminant-invariant) whenever the
    leading slot a_0 degenerates.  Coefficients may be scalars or polynomials.

    Raises :class:`DegeneratePencil` on the zero form.
    """
    coeffs = list(coeffs)
    if len(coeffs) < 3:
        raise ValueError("binary form must have degree k >= 2")
    if space is None:
        space = next(
            (c.space for c in coeffs if isinstance(c, MultiPoly)), None
        ) or VarSpace(("x1",))
    norm = []
    for c in coeffs:
        if isinstance(c, (int, Fraction, NFElement)):
            c = MultiPoly.constant(space, c)
        elif c.space != space:
            c = c.lift_to(space)
        norm.append(c)
    if all(c.is_zero() for c in norm):
        raise DegeneratePencil("binary form is identically zero")
    k = len(norm) - 1
    if norm[0].is_zero():
        norm = _shear_to_nonzero_lead(norm, k, space)
    a = norm
    fprime = [(k - j) * a[j] for j in range(k)]  # degree k-1 in u
    zero = MultiPoly.zero(space)
    rows = []
    for shift in range(k - 1):
        rows.append([zero] * shift + a + [zero] * (k - 1 - shift - 1))
    for shift in range(k):
        rows.append([zero] * shift + fprime + [zero] * (k - shift - 1))
    res = _poly_det(rows)
    disc = exact_divide(res, a[0]) if not res.is_zero() else res
    if (k * (k - 1) // 2) % 2:
        disc = -disc
    return disc


def _shear_to_nonzero_lead(coeffs, k, space):
    """Apply v -> v + c*u for the smallest integer c giving a_0 != 0."""
    for c in range(1, k + 2):
        new = [MultiPoly.zero(space) for _ in range(k + 1)]
        # u^(k-j) (v + c u)^j expands over u^(k-m) v^m
        for j, aj in enumerate(coeffs):
            if aj.is_zero():
                continue
            for m in range(j + 1):
                new[m] = new[m] + aj * (comb(j, m) * (c ** (j - m)))
        # slot order: new[m] multiplies u^(k-m) v^m; a_0 slot is new[0]
        if not new[0].is_zero():
            return new
    raise DegeneratePencil("no integer shear exposes a leading coefficient")
