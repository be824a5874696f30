"""Polynomial vector fields, characteristic varieties, and prolongations.

For xi = sum a_i(x) d/dx_i the characteristic polynomial is the fiberwise
linear function P = sum a_i * y_i on the doubled space (x, y); its zero set
is the characteristic variety.  The first prolongation

    xi_hat = sum a_i d/dx_i  -  sum_{i,j} (da_i/dx_j) y_i d/dy_j

is exactly the Hamiltonian field of P for the symplectic form
Omega = sum dx_i ^ dy_i with the convention dF = Omega(xi_F, .), i.e.

    xi_F = sum (dF/dy_i) d/dx_i - sum (dF/dx_i) d/dy_i.

Invariant subvarieties of the characteristic variety that are homogeneous
in y are classified against the trichotomy: the zero section, a subvariety
of a fiber over a singular point, or the whole characteristic variety.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ConstantFunction, EmptyVariety, SpaceMismatch
from .ideals import (
    Ideal,
    _as_budget,
    _univariate_in,
    eliminate,
    exact_divide,
    krull_dim_zero_check,
    normal_form,
    poly_gcd_list,
    radical_membership,
    rational_points,
)
from .polynomials import LEX, MultiPoly, VarSpace
from .scalars import NFElement, rref, upoly_squarefree_part

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

class PolyVectorField:
    """xi = sum a_i d/dx_i with polynomial coefficients in the x-block only."""

    __slots__ = ("space", "components")

    def __init__(self, space, components):
        if space.y_vars or space.aux_vars:
            space = space.x_only()
            components = [c.restrict_to(space) for c in components]
        if len(components) != len(space.x_vars):
            raise ValueError(
                f"need {len(space.x_vars)} components, got {len(components)}"
            )
        comps = []
        for c in components:
            if isinstance(c, (int, Fraction, NFElement)):
                c = MultiPoly.constant(space, c)
            if c.space != space:
                raise SpaceMismatch("component over a different space")
            comps.append(c)
        if all(c.is_zero() for c in comps):
            raise ValueError("the zero vector field is not allowed")
        self.space = space
        self.components = tuple(comps)

    def apply(self, f):
        """Derivation xi(f) = sum a_i df/dx_i; f may live in a larger space."""
        if f.space == self.space:
            comps = self.components
        else:
            comps = tuple(c.lift_to(f.space) for c in self.components)
        out = MultiPoly.zero(f.space)
        for name, a in zip(self.space.x_vars, comps):
            out = out + a * f.partial(f.space.index(name))
        return out

    def form_components(self):
        return list(self.components)

    def degree(self):
        return max(c.degree() for c in self.components)

    def scale(self, u):
        """u * xi for a polynomial or scalar u."""
        if isinstance(u, (int, Fraction, NFElement)):
            u = MultiPoly.constant(self.space, u)
        return PolyVectorField(self.space, [u * c for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.space == other.space and self.components == other.components

    def __str__(self):
        names = self.space.x_vars
        parts = []
        for name, c in zip(names, self.components):
            if c.is_zero():
                continue
            parts.append(f"({c})*d/d{name}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__

    def affine_shift(self, point):
        """Rewrite the field in coordinates centered at ``point``.

        Sends p to the origin: components become a_i(x + p).
        """
        mapping = {}
        for i in range(len(self.components)):
            c = point[i] if isinstance(point[i], NFElement) else Fraction(point[i])
            mapping[i] = MultiPoly.variable(self.space, i) + c
        return PolyVectorField(
            self.space, [c.substitute(mapping) for c in self.components]
        )

    def linear_change(self, matrix):
        """Exact change of coordinates x = M u for an invertible matrix M.

        Returns the field in the u-coordinates: M^{-1} a(M u).
        """
        n = len(self.components)
        m = [[Fraction(matrix[i][j]) if not isinstance(matrix[i][j], NFElement)
              else matrix[i][j] for j in range(n)] for i in range(n)]
        inv = _matrix_inverse(m)
        xs = [MultiPoly.variable(self.space, i) for i in range(n)]
        images = []
        for i in range(n):
            acc = MultiPoly.zero(self.space)
            for j in range(n):
                acc = acc + xs[j] * m[i][j]
            images.append(acc)
        subs = {i: images[i] for i in range(n)}
        moved = [c.substitute(subs) for c in self.components]
        new_comps = []
        for i in range(n):
            acc = MultiPoly.zero(self.space)
            for j in range(n):
                acc = acc + moved[j] * inv[i][j]
            new_comps.append(acc)
        return PolyVectorField(self.space, new_comps)


def _matrix_inverse(m):
    n = len(m)
    aug = [list(row) + [_ONE if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    if rref(aug) != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]


class CotangentField:
    """Vector field on the doubled space, split into x- and y-components."""

    __slots__ = ("space", "x_components", "y_components")

    def __init__(self, space, x_components, y_components):
        if not space.y_vars:
            raise ValueError("cotangent fields live on a doubled space")
        if len(x_components) != len(space.x_vars) or len(y_components) != len(space.y_vars):
            raise ValueError("component count mismatch")
        self.space = space
        self.x_components = tuple(x_components)
        self.y_components = tuple(y_components)

    def apply(self, f):
        if f.space != self.space:
            f = f.lift_to(self.space)
        out = MultiPoly.zero(self.space)
        for idx, a in zip(self.space.x_indices, self.x_components):
            out = out + a * f.partial(idx)
        for idx, b in zip(self.space.y_indices, self.y_components):
            out = out + b * f.partial(idx)
        return out

    def form_components(self):
        return list(self.x_components) + list(self.y_components)

    def is_prolongation_shaped(self):
        """x-components free of y, y-components linear in y."""
        yidx = set(self.space.y_indices)
        if any(c.involves(yidx) for c in self.x_components):
            return False
        for b in self.y_components:
            if not b.is_zero() and set(b.homogeneous_parts(yidx)) != {1}:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, CotangentField):
            return NotImplemented
        return (
            self.space == other.space
            and self.x_components == other.x_components
            and self.y_components == other.y_components
        )

    def __str__(self):
        names = self.space.x_vars + self.space.y_vars
        comps = list(self.x_components) + list(self.y_components)
        parts = [f"({c})*d/d{nm}" for nm, c in zip(names, comps) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


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
    return CotangentField(space, xc, yc)


def prolong(xi):
    """First prolongation xi_hat, also dual-computable via the Hamiltonian.

    The direct formula is used: x-components a_i, y-components
    -sum_i (da_i/dx_j) y_i for each j.
    """
    dspace = xi.space.doubled()
    lifted = [a.lift_to(dspace) for a in xi.components]
    n = len(lifted)
    ys = [MultiPoly.variable(dspace, v) for v in dspace.y_vars]
    yc = []
    for j in range(n):
        acc = MultiPoly.zero(dspace)
        for i in range(n):
            d = lifted[i].partial(dspace.x_indices[j])
            if not d.is_zero():
                acc = acc - d * ys[i]
        yc.append(acc)
    out = CotangentField(dspace, lifted, yc)
    if not out.is_prolongation_shaped():
        raise RuntimeError("prolongation is not linear in the fiber variables")
    return out


# ---------------------------------------------------------------------------
# singular scheme
# ---------------------------------------------------------------------------

@dataclass
class SingularScheme:
    ideal: Ideal
    isolated: bool
    vecdim: int | None
    reduced: bool | None           # None when not zero-dimensional
    distinct_points: int | None    # vecdim of the squarefree-augmented ideal
    divisorial_part: MultiPoly | None


def singular_scheme(xi, budget=None):
    """Scheme of zeros of the components, with desk-scale flags.

    ``isolated`` is the Krull-dimension-zero check; ``reduced`` compares the
    quotient dimension against the point count certified by squarefree
    univariate eliminants (an ideal containing a squarefree univariate
    polynomial in every variable is radical).  ``divisorial_part`` is the
    monic nonconstant gcd of the components, if any.
    """
    budget = _as_budget(budget)
    space = xi.space
    ideal = Ideal(space, list(xi.components))
    isolated, vecdim = krull_dim_zero_check(ideal, budget=budget)
    reduced = None
    distinct = None
    if isolated and vecdim is not None:
        if vecdim == 0:
            reduced = True
            distinct = 0
        else:
            augmented = list(ideal.generators)
            for name in space.all_vars:
                eli = eliminate(ideal, {name}, budget=budget)
                gens = [g for g in eli.generators if not g.is_zero()]
                if not gens:
                    continue
                sq = upoly_squarefree_part(_univariate_in(gens[0], 0))
                augmented.append(_from_univariate(space, space.index(name), sq))
            _, distinct = krull_dim_zero_check(Ideal(space, augmented), budget=budget)
            reduced = distinct == vecdim
    gcd = poly_gcd_list(list(xi.components), budget=budget)
    divisorial = None if gcd is None or gcd.is_constant() else gcd
    return SingularScheme(ideal, isolated, vecdim, reduced, distinct, divisorial)


def _from_univariate(space, idx, coeffs):
    out = MultiPoly.zero(space)
    for k, c in enumerate(coeffs):
        if c:
            e = [0] * space.nvars
            e[idx] = k
            out = out + MultiPoly.monomial(space, tuple(e), c)
    return out


@dataclass
class ChSingularReport:
    jacobian_ideal: Ideal
    smooth_away_from_zero_section: bool
    scheme: SingularScheme
    consistent: bool


def ch_singular_locus(xi, budget=None):
    """Singular locus of the characteristic hypersurface {P = 0}.

    The Jacobian ideal is (P, dP/dx_1..n, dP/dy_1..n); the verdict
    ``smooth_away_from_zero_section`` holds iff every y_i lies in its
    radical, i.e. all singular points sit on the zero section.  When the
    singular scheme of the field is reduced and zero-dimensional the verdict
    must come back true; ``consistent`` records that cross-check.
    """
    budget = _as_budget(budget)
    P = characteristic_polynomial(xi)
    dspace = P.space
    gens = [P]
    for i in range(dspace.nvars):
        d = P.partial(i)
        if not d.is_zero():
            gens.append(d)
    jac = Ideal(dspace, gens)
    verdict = all(
        radical_membership(MultiPoly.variable(dspace, v), jac, budget=budget)
        for v in dspace.y_vars
    )
    scheme = singular_scheme(xi, budget=budget)
    expected_true = bool(scheme.isolated and scheme.reduced)
    consistent = verdict or not expected_true
    return ChSingularReport(jac, verdict, scheme, consistent)


# ---------------------------------------------------------------------------
# invariance and classification
# ---------------------------------------------------------------------------

@dataclass
class InvarianceCertificate:
    generator: MultiPoly
    image: MultiPoly
    remainder: MultiPoly


@dataclass
class InvarianceReport:
    invariant: bool
    certificates: list


def is_invariant(field, ideal, budget=None):
    """Does the derivation map the ideal into itself (variety invariant)?

    ``field`` is a :class:`PolyVectorField` or :class:`CotangentField` whose
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


@dataclass
class SubvarietyClassification:
    tag: str
    point: tuple | None = None
    residual: Ideal | None = None
    certificate: dict = dc_field(default_factory=dict)


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

@dataclass
class DarbouxPair:
    polynomial: MultiPoly
    cofactor: MultiPoly


@dataclass
class DarbouxResult:
    pairs: list
    complete: bool   # True when every branch of the solve was exhaustive


def _monomials_up_to(space, max_deg):
    n = space.nvars
    out = []
    for total in range(max_deg + 1):
        out.extend(_exps_of_degree(n, total))
    return out


def _exps_of_degree(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exps_of_degree(n - 1, total - first):
            yield (first,) + rest


def darboux_search(xi, max_deg, max_cofactor_deg, budget=None):
    """All Darboux polynomials xi(g) = c * g with deg g <= max_deg.

    The unknown coefficients of g and c satisfy a bilinear system, solved
    per choice of the lex-leading monomial of g (coefficient pinned to 1,
    larger monomials pinned to 0).  Cofactor degree is additionally capped
    at deg(xi) - 1.  Rational solution families with genuinely free
    coordinates are reported by their representative with the free
    coordinates set to zero; ``complete`` is True when no branch had free
    coordinates, so an empty result is a certificate of nonexistence over
    the algebraic closure.
    """
    budget = _as_budget(budget)
    if max_deg < 1:
        return DarbouxResult([], True)
    space = xi.space
    cof_cap = min(max_cofactor_deg, max(xi.degree() - 1, 0))
    g_monos = _monomials_up_to(space, max_deg)
    c_monos = _monomials_up_to(space, cof_cap)
    lexkeys = sorted(
        (m for m in g_monos if any(m)), key=LEX.key, reverse=True
    )
    results = []
    seen = set()
    complete = True
    for lead in lexkeys:
        unknowns = [m for m in g_monos if LEX.key(m) < LEX.key(lead)]
        u_names = tuple(f"_u{i}" for i in range(len(unknowns)))
        v_names = tuple(f"_v{i}" for i in range(len(c_monos)))
        uspace = VarSpace(u_names + v_names)
        # g = lead + sum u_i m_i ; c = sum v_j k_j, coefficients in Q[u, v]
        # expand xi(g) - c*g over x with coefficients in the unknowns
        equations = _darboux_equations(
            xi, lead, unknowns, c_monos, uspace
        )
        pts, exhaustive = rational_points(
            equations, uspace, budget=budget, zero_free_vars=True
        )
        if not exhaustive:
            complete = False
        for pt in pts:
            g = MultiPoly.monomial(space, lead)
            for i, m in enumerate(unknowns):
                val = pt[i]
                if val:
                    g = g + MultiPoly.monomial(space, m, val)
            c = MultiPoly.zero(space)
            for j, m in enumerate(c_monos):
                val = pt[len(unknowns) + j]
                if val:
                    c = c + MultiPoly.monomial(space, m, val)
            if xi.apply(g) != c * g:
                continue  # pinned free coordinate broke the identity
            key = (frozenset(g.terms.items()), frozenset(c.terms.items()))
            if key not in seen:
                seen.add(key)
                results.append(DarbouxPair(g, c))
    results.sort(
        key=lambda p: (
            p.polynomial.degree(),
            tuple(-v for v in LEX.key(p.polynomial.leading(LEX)[0])),
        )
    )
    return DarbouxResult(results, complete)


def _darboux_equations(xi, lead, unknowns, c_monos, uspace):
    """Coefficient equations of xi(g) - c*g = 0 in the unknown space.

    Returns polynomials in Q[u, v]; each x-monomial of the expansion
    contributes one equation.
    """
    space = xi.space
    # xi applied to a monomial exponent -> MultiPoly in x
    def xi_of_monomial(m):
        return xi.apply(MultiPoly.monomial(space, m))

    # rows: x-exponent -> MultiPoly over uspace
    rows = {}

    def add(xexp, upoly):
        cur = rows.get(xexp)
        rows[xexp] = upoly if cur is None else cur + upoly

    one_u = MultiPoly.constant(uspace, 1)
    for e, c in xi_of_monomial(lead).terms.items():
        add(e, one_u * c)
    for i, m in enumerate(unknowns):
        u = MultiPoly.variable(uspace, i)
        for e, c in xi_of_monomial(m).terms.items():
            add(e, u * c)
    # minus c * g
    g_entries = [(lead, None)] + [(m, i) for i, m in enumerate(unknowns)]
    for j, k in enumerate(c_monos):
        v = MultiPoly.variable(uspace, len(unknowns) + j)
        for m, ui in g_entries:
            xexp = tuple(a + b for a, b in zip(k, m))
            if ui is None:
                add(xexp, -v)
            else:
                add(xexp, -(v * MultiPoly.variable(uspace, ui)))
    return [p for p in rows.values() if not p.is_zero()]


# ---------------------------------------------------------------------------
# hyperplane at infinity
# ---------------------------------------------------------------------------

@dataclass
class InfinityReport:
    invariant: bool
    projective_degree: int
    affine_degree: int
    radial_factor: MultiPoly | None


def hyperplane_at_infinity(xi):
    """Is the hyperplane at infinity invariant, and the projective degree.

    With d the maximal component degree and a_i^(d) the degree-d parts, the
    hyperplane fails to be invariant exactly when the top parts are a radial
    multiple (all x_j a_i^(d) - x_i a_j^(d) vanish); then the projective
    degree drops to d - 1, otherwise it is d.
    """
    space = xi.space
    d = xi.degree()
    tops = [c.homogeneous_part(d) for c in xi.components]
    xs = [MultiPoly.variable(space, v) for v in space.x_vars]
    radial = True
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not (xs[j] * tops[i] - xs[i] * tops[j]).is_zero():
                radial = False
                break
        if not radial:
            break
    factor = None
    if radial:
        nz = next((i for i, t in enumerate(tops) if not t.is_zero()), None)
        if nz is not None:
            try:
                factor = exact_divide(tops[nz], xs[nz])
            except ValueError:
                factor = None
        return InfinityReport(False, d - 1, d, factor)
    return InfinityReport(True, d, d, None)
