"""Polynomial vector fields, characteristic varieties, and prolongations.

For xi = sum a_i(x) d/dx_i the characteristic polynomial is the fiberwise
linear function P = sum a_i * y_i on the doubled space (x, y); its zero set
is the characteristic variety.  The first prolongation

    xi_hat = sum a_i d/dx_i  -  sum_{i,j} (da_i/dx_j) y_i d/dy_j

is exactly the Hamiltonian field of P for the symplectic form
Omega = sum dx_i ^ dy_i with the convention dF = Omega(xi_F, .), i.e.

    xi_F = sum (dF/dy_i) d/dx_i - sum (dF/dx_i) d/dy_i.

So :func:`prolong` returns :func:`hamiltonian` of
:func:`characteristic_polynomial`; ``tests/oracles.py`` keeps the coordinate
formula above as the independent reference.

xi_hat and the Hamiltonian fields are :class:`PolyVectorField` instances on
the doubled space, whose directions are the x-block then the y-block.  A field
prints as the operator sum a_i*d_i with its directions numbered d1..dm:
x2*d1 - x1*d2 for the rotation, x2*d1 - x1*d2 + y2*d3 - y1*d4 for its
prolongation.

Invariant subvarieties of the characteristic variety that are homogeneous
in y are classified against the trichotomy: the zero section, a subvariety
of a fiber over a singular point, or the whole characteristic variety.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .errors import (ConstantFunction, EmptyVariety, FieldMismatch, InvalidInput,
                     SpaceMismatch)
from .ideals import (
    Ideal,
    _as_budget,
    eliminate,
    exact_divide,
    krull_dim_zero_check,
    normal_form,
    poly_det,
    poly_gcd_list,
    radical_membership,
    rational_points,
)
from .polynomials import LEX, SCALARS, MultiPoly, VarSpace
from .scalars import rref

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

class PolyVectorField:
    """xi = sum a_i d/dv_i with one polynomial component per direction v_i.

    The directions are :attr:`VarSpace.directions`: the x-block on a base
    space, the x-block then the y-block on a doubled space.
    """

    __slots__ = ("space", "components")

    def __init__(self, space, components):
        ndir = len(space.directions)
        if len(components) != ndir:
            raise ValueError(f"need {ndir} components, got {len(components)}")
        comps = []
        for c in components:
            if isinstance(c, SCALARS):
                c = MultiPoly.constant(space, c)
            if c.space != space:
                raise SpaceMismatch("component over a different space")
            comps.append(c)
        if all(c.is_zero() for c in comps):
            raise ValueError("the zero vector field is not allowed")
        self.space = space
        self.components = tuple(comps)

    @property
    def x_components(self):
        return self.components[:len(self.space.x_vars)]

    @property
    def y_components(self):
        return self.components[len(self.space.x_vars):]

    def apply(self, f):
        """Derivation xi(f) = sum a_i df/dv_i; f may live in a larger space."""
        comps = [c.lift_to(f.space) for c in self.components]
        out = MultiPoly.zero(f.space)
        for name, a in zip(self.space.directions, comps):
            out = out + a * f.partial(f.space.index(name))
        return out

    def is_prolongation_shaped(self):
        """x-components free of y, y-components linear in y."""
        yidx = set(self.space.y_indices)
        if any(c.involves(yidx) for c in self.x_components):
            return False
        for b in self.y_components:
            if not b.is_zero() and set(b.homogeneous_parts(yidx)) != {1}:
                return False
        return True

    def degree(self):
        return max(c.degree() for c in self.components)

    def scale(self, u):
        """u * xi for a polynomial or scalar u."""
        if isinstance(u, SCALARS):
            u = MultiPoly.constant(self.space, u)
        return PolyVectorField(self.space, [u * c for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.space == other.space and self.components == other.components

    def __str__(self):
        """The operator sum a_i*d_i, directions numbered d1..dm."""
        dnames = [f"d{i + 1}" for i in range(len(self.components))]
        ops = self.space.with_aux(dnames)
        out = MultiPoly.zero(ops)
        for a, d in zip(self.components, dnames):
            out = out + a.lift_to(ops) * MultiPoly.variable(ops, d)
        return str(out)

    __repr__ = __str__

    def affine_shift(self, point):
        """Rewrite the field in coordinates centered at ``point``.

        Sends p to the origin: components become a_i(x + p).
        """
        mapping = {i: MultiPoly.variable(self.space, i) + point[i]
                   for i in range(len(self.components))}
        return PolyVectorField(
            self.space, [c.substitute(mapping) for c in self.components]
        )

    def linear_change(self, matrix):
        """Exact change of coordinates x = M u for an invertible matrix M.

        Returns the field in the u-coordinates: M^{-1} a(M u).
        """
        inv = _matrix_inverse(matrix)
        zero = MultiPoly.zero(self.space)

        def product(m, vec):
            return [sum((v * c for v, c in zip(vec, row)), zero) for row in m]

        xs = [MultiPoly.variable(self.space, i) for i in range(len(self.components))]
        subs = dict(enumerate(product(matrix, xs)))
        moved = [c.substitute(subs) for c in self.components]
        return PolyVectorField(self.space, product(inv, moved))


def _matrix_inverse(m):
    n = len(m)
    aug = [list(row) + [_ONE if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    if rref(aug) != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# characteristic polynomial, Hamiltonian, prolongation
# ---------------------------------------------------------------------------

def characteristic_polynomial(xi):
    """P = sum a_i y_i on the doubled space; cuts out the char variety."""
    dspace = xi.space.doubled()
    out = MultiPoly.zero(dspace)
    for i, a in enumerate(xi.components):
        y = MultiPoly.variable(dspace, dspace.y_vars[i])
        out = out + a.lift_to(dspace) * y
    return out


def hamiltonian(F):
    """Hamiltonian field of F: dF = Omega(xi_F, .) for Omega = sum dx_i^dy_i.

    Components: xi_F = sum (dF/dy_i) d/dx_i - sum (dF/dx_i) d/dy_i.
    Raises :class:`ConstantFunction` on constant input.
    """
    space = F.space
    if not space.y_vars:
        raise SpaceMismatch("hamiltonian fields live on a doubled space")
    if F.is_constant():
        raise ConstantFunction("hamiltonian of a constant vanishes")
    xc = [F.partial(i) for i in space.y_indices]
    yc = [-F.partial(i) for i in space.x_indices]
    return PolyVectorField(space, xc + yc)


def prolong(xi):
    """First prolongation xi_hat: the Hamiltonian field of P.

    Its x-components are a_i and its y-components -sum_i (da_i/dx_j) y_i,
    i.e. dP/dy_i and -dP/dx_j for P = sum a_i y_i.
    """
    out = hamiltonian(characteristic_polynomial(xi))
    if not out.is_prolongation_shaped():
        raise RuntimeError("prolongation is not linear in the fiber variables")
    return out


# ---------------------------------------------------------------------------
# singular scheme
# ---------------------------------------------------------------------------

# reduced is None when the scheme is not zero-dimensional; distinct_points
# is vecdim(I) - vecdim(I + (det D(xi)))
SingularScheme = namedtuple("SingularScheme", "ideal isolated vecdim reduced "
                            "distinct_points divisorial_part")


def singular_scheme(xi, budget=None):
    """Scheme of zeros of the components, with desk-scale flags.

    ``isolated`` is the Krull-dimension-zero check on I = (a_1, ..., a_n).
    Then I is a complete intersection, and in characteristic 0 the Jacobian
    determinant det D(xi) spans the socle of the local ring of I at every
    point of multiplicity mu > 1 and is a unit at every simple point
    (Scheja-Storch 1975; Eisenbud-Levine, Ann. Math. 106, 1977).  So
    I + (det D(xi)) has colength mu - 1 at each point:
    ``distinct_points`` is vecdim(I) - vecdim(I + (det D(xi))), and
    ``reduced`` holds iff I + (det D(xi)) is the unit ideal.
    ``divisorial_part`` is the monic nonconstant gcd of the components, if
    any.  For n >= 2 an isolated scheme has none, since a common factor
    would cut a hypersurface out of V(I), so the gcd is computed only when
    n = 1 or the scheme is not isolated.
    """
    budget = _as_budget(budget)
    comps = list(xi.components)
    ideal = Ideal(xi.space, comps)
    isolated, vecdim = krull_dim_zero_check(ideal, budget=budget)
    reduced = distinct = None
    if isolated:
        jac = poly_det([[a.partial(k) for k in range(len(comps))] for a in comps])
        _, excess = krull_dim_zero_check(Ideal(xi.space, comps + [jac]), budget=budget)
        distinct = vecdim - excess
        reduced = excess == 0
    divisorial = None
    if len(comps) == 1 or not isolated:
        gcd = poly_gcd_list(comps, budget=budget)
        divisorial = None if gcd is None or gcd.is_constant() else gcd
    return SingularScheme(ideal, isolated, vecdim, reduced, distinct, divisorial)


ChSingularReport = namedtuple("ChSingularReport", "jacobian_ideal "
                              "smooth_away_from_zero_section scheme consistent")


def ch_singular_locus(xi, budget=None):
    """Singular locus of the characteristic hypersurface {P = 0}.

    The Jacobian ideal is (P, dP/dx_1..n, dP/dy_1..n); its zero set is
    {a(x) = 0, D(xi)(x)^T y = 0}, since P vanishes there too.  So the
    verdict ``smooth_away_from_zero_section`` (every y_i lies in its
    radical: all singular points sit on the zero section) holds iff
    det D(xi) vanishes at no zero of xi.  When the zeros are isolated that
    is the unit-ideal test behind :func:`singular_scheme`'s ``reduced``,
    read from the same cached basis.  A positive-dimensional component of
    the zeros makes det D(xi) vanish along it (D(xi) kills its tangent
    vectors), so a non-isolated scheme gives False.  ``consistent`` (the
    verdict is true when the scheme is isolated and reduced) therefore
    holds by construction.
    """
    budget = _as_budget(budget)
    P = characteristic_polynomial(xi)
    gens = [P] + [d for d in map(P.partial, range(P.space.nvars)) if not d.is_zero()]
    scheme = singular_scheme(xi, budget=budget)
    verdict = bool(scheme.isolated and scheme.reduced)
    return ChSingularReport(Ideal(P.space, gens), verdict, scheme, True)


# ---------------------------------------------------------------------------
# invariance and classification
# ---------------------------------------------------------------------------

InvarianceCertificate = namedtuple("InvarianceCertificate", "generator image remainder")
InvarianceReport = namedtuple("InvarianceReport", "invariant certificates")


def is_invariant(field, ideal, budget=None):
    """Does the derivation map the ideal into itself (variety invariant)?

    ``field`` is a :class:`PolyVectorField`, such as a prolongation, whose
    space matches the ideal's.  Certificates list (g, field(g), remainder of
    field(g) against the cached basis); all-zero remainders mean invariant.
    Raises :class:`EmptyVariety` on the unit ideal.
    """
    budget = _as_budget(budget)
    if ideal.is_unit(budget=budget):
        raise EmptyVariety("the unit ideal cuts out the empty variety")
    certs = []
    ok = True
    for g in ideal.generators:
        if g.is_zero():
            continue
        img = field.apply(g)
        rem = normal_form(img, ideal, budget=budget)
        certs.append(InvarianceCertificate(g, img, rem))
        if not rem.is_zero():
            ok = False
    return InvarianceReport(ok, certs)


TAG_EMPTY = "EmptyVariety"
TAG_NOT_CONTAINED = "NotContained"
TAG_NOT_YHOM = "NotYHomogeneous"
TAG_NOT_INVARIANT = "NotInvariant"
TAG_ZERO_SECTION = "ZeroSection"
TAG_FIBER = "FiberOverSingularPoint"
TAG_WHOLE = "WholeCharVariety"
TAG_VIOLATION = "QuasiMinimalityViolation"


SubvarietyClassification = namedtuple("SubvarietyClassification",
                                      "tag certificate point residual",
                                      defaults=(None, None))


def classify_ch_subvariety(xi, ideal, budget=None):
    """Classify V(J) inside the characteristic variety of xi.

    Pipeline: empty check, containment (P in the radical of J),
    y-homogeneity of the generators, invariance under the prolongation,
    then the trichotomy tags ZeroSection / FiberOverSingularPoint /
    WholeCharVariety, falling through to QuasiMinimalityViolation.
    """
    budget = _as_budget(budget)
    P = characteristic_polynomial(xi)
    dspace = P.space
    J = Ideal(dspace, [g.lift_to(dspace) for g in ideal.generators]) \
        if ideal.space != dspace else ideal
    cert = {}
    if J.is_unit(budget=budget):
        return SubvarietyClassification(TAG_EMPTY, certificate=cert)

    if not radical_membership(P, J, budget=budget):
        cert["characteristic_polynomial"] = P
        return SubvarietyClassification(TAG_NOT_CONTAINED, certificate=cert)

    yidx = set(dspace.y_indices)
    bad = []
    parts_cert = []
    for g in J.generators:
        parts = g.homogeneous_parts(yidx)
        for d, part in parts.items():
            rem = normal_form(part, J, budget=budget)
            parts_cert.append((g, d, part, rem))
            if not rem.is_zero():
                bad.append((g, d, part, rem))
    cert["y_parts"] = parts_cert
    if bad:
        return SubvarietyClassification(TAG_NOT_YHOM, certificate=cert)

    xihat = prolong(xi)
    inv = is_invariant(xihat, J, budget=budget)
    cert["invariance"] = inv.certificates
    if not inv.invariant:
        return SubvarietyClassification(TAG_NOT_INVARIANT, certificate=cert)

    # zero section: every y_i vanishes on V(J) and V(J) covers {y = 0}
    ys = [MultiPoly.variable(dspace, v) for v in dspace.y_vars]
    if all(radical_membership(y, J, budget=budget) for y in ys):
        zero_map = {i: 0 for i in dspace.y_indices}
        if all(g.substitute(zero_map).is_zero() for g in J.generators):
            return SubvarietyClassification(TAG_ZERO_SECTION, certificate=cert)

    # fiber over the singular set: every component a_i vanishes on V(J)
    lifted = [a.lift_to(dspace) for a in xi.components]
    if all(radical_membership(a, J, budget=budget) for a in lifted):
        coords = []
        for v in dspace.x_vars:
            nf = normal_form(MultiPoly.variable(dspace, v), J, budget=budget)
            coords.append(nf.constant_value() if nf.is_constant() else None)
        if all(c is not None for c in coords):
            return SubvarietyClassification(
                TAG_FIBER, point=tuple(coords), certificate=cert
            )
        residual = eliminate(J, set(dspace.x_vars), budget=budget)
        return SubvarietyClassification(TAG_FIBER, residual=residual, certificate=cert)

    # whole characteristic variety: radicals agree
    if all(radical_membership(g, Ideal(dspace, [P]), budget=budget)
           for g in J.generators):
        return SubvarietyClassification(TAG_WHOLE, certificate=cert)

    return SubvarietyClassification(TAG_VIOLATION, certificate=cert)


# ---------------------------------------------------------------------------
# Darboux polynomials
# ---------------------------------------------------------------------------

DarbouxPair = namedtuple("DarbouxPair", "polynomial cofactor")
# complete: no Darboux polynomial over the algebraic closure was missed
DarbouxResult = namedtuple("DarbouxResult", "pairs complete")


def _monomials_up_to(space, max_deg):
    """Exponents of total degree <= max_deg, by degree, then ascending."""
    exps = itertools.product(range(max_deg + 1), repeat=space.nvars)
    return sorted((e for e in exps if sum(e) <= max_deg), key=lambda e: (sum(e), e))


def darboux_search(xi, max_deg, max_cofactor_deg, budget=None):
    """All Darboux polynomials xi(g) = c * g with deg g <= max_deg.

    The unknown coefficients of g and c satisfy a bilinear system, solved
    per choice of the lex-leading monomial of g (coefficient pinned to 1,
    larger monomials pinned to 0).  Cofactor degree is additionally capped
    at deg(xi) - 1.  Rational solution families with genuinely free
    coordinates are reported by their representative with the free
    coordinates set to zero.  Only rational solutions are listed, so
    irrational Darboux polynomials (x2 +- i*x1 for the rotation
    x2*d1 - x1*d2) are never returned.  ``complete`` is True only when
    every branch was solved in full over the algebraic closure: no free
    coordinates, and every univariate eliminant split over Q
    (:func:`rational_points`' ``exhaustive``).  It then certifies that no
    Darboux polynomial within the degree bounds, rational or not, was
    missed.  A field with a coefficient outside Q raises
    :class:`FieldMismatch`, a negative degree bound :class:`InvalidInput`.
    """
    budget = _as_budget(budget)
    if max_deg < 0 or max_cofactor_deg < 0:
        raise InvalidInput(f"Darboux degree bounds must be nonnegative, got max_deg "
                           f"{max_deg} and max_cofactor_deg {max_cofactor_deg}")
    for comp in xi.components:
        for c in comp.terms.values():
            if not isinstance(c, Fraction):
                raise FieldMismatch(f"darboux_search solves over Q only; the "
                                    f"field's coefficient {c} is not rational")
    space = xi.space
    nx = space.nvars
    cof_cap = min(max_cofactor_deg, max(xi.degree() - 1, 0))
    g_monos = _monomials_up_to(space, max_deg)
    c_monos = _monomials_up_to(space, cof_cap)
    lexkeys = sorted(
        (m for m in g_monos if any(m)), key=LEX.key, reverse=True
    )
    results = []
    complete = True
    for lead in lexkeys:
        unknowns = [m for m in g_monos if LEX.key(m) < LEX.key(lead)]
        names = ([f"_u{i}" for i in range(len(unknowns))]
                 + [f"_v{j}" for j in range(len(c_monos))])
        uspace, ext = VarSpace(names), space.with_aux(names)
        pad = (0,) * len(names)
        us = [MultiPoly.variable(ext, name) for name in names]
        # g = lead + sum u_i m_i and c = sum v_j k_j; each x-coefficient of
        # xi(g) - c*g is one equation in the unknowns
        g = MultiPoly.monomial(ext, lead + pad) + sum(
            u * MultiPoly.monomial(ext, m + pad) for u, m in zip(us, unknowns))
        c = sum(v * MultiPoly.monomial(ext, m + pad)
                for v, m in zip(us[len(unknowns):], c_monos))
        rows = {}
        for e, coeff in (xi.apply(g) - c * g).terms.items():
            rows.setdefault(e[:nx], {})[e[nx:]] = coeff
        pts, exhaustive = rational_points(
            [MultiPoly(uspace, t) for t in rows.values()], uspace, budget=budget)
        complete = complete and exhaustive
        # each point solves the branch's equations, so it gives its own pair,
        # with g's lex lead pinned on this branch
        for pt in pts:
            values = {nx + i: v for i, v in pt.items()}
            g_pt, c_pt = (p.substitute(values).restrict_to(space) for p in (g, c))
            if xi.apply(g_pt) != c_pt * g_pt:
                raise RuntimeError("a rational point does not solve its Darboux branch")
            results.append(DarbouxPair(g_pt, c_pt))
    results.sort(
        key=lambda p: (
            p.polynomial.degree(),
            tuple(-v for v in LEX.key(p.polynomial.leading(LEX)[0])),
        )
    )
    return DarbouxResult(results, complete)


# ---------------------------------------------------------------------------
# hyperplane at infinity
# ---------------------------------------------------------------------------

InfinityReport = namedtuple("InfinityReport", "invariant projective_degree "
                            "affine_degree radial_factor")


def hyperplane_at_infinity(xi):
    """Is the hyperplane at infinity invariant, and the projective degree.

    With d the maximal component degree and a_i^(d) the degree-d parts, the
    hyperplane fails to be invariant exactly when the top parts are radial:
    a_i^(d) = h * x_i for every i with one polynomial h, the
    ``radial_factor``.  Then the projective degree drops to d - 1, otherwise
    it is d.  A constant field such as d/dx1 has no radial top part.
    """
    space = xi.space
    d = xi.degree()
    tops = [c.homogeneous_part(d) for c in xi.components]
    xs = [MultiPoly.variable(space, v) for v in space.x_vars]
    nz = next(i for i, t in enumerate(tops) if not t.is_zero())
    try:
        h = exact_divide(tops[nz], xs[nz])
    except ValueError:  # x_nz does not divide its top part
        h = None
    if h is not None and all(t == h * x for t, x in zip(tops, xs)):
        return InfinityReport(False, d - 1, d, h)
    return InfinityReport(True, d, d, None)
