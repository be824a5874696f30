"""Local analysis of a vector field at a singular point.

Eigendata of the linear part is computed exactly.  D is read once, in one
ring: over Q when every entry is rational and none belongs to a number field
other than the working one, else coerced into the working field, where an
entry from another field raises :class:`~folichar.errors.FieldMismatch`.
The characteristic polynomial det(tI - D) is taken by
:func:`folichar.ideals.poly_det`, the package's one determinant.  Its roots
in the working field are found in three steps: the rational roots of a
rational polynomial first; over a quadratic field, a rational quadratic
remainder by the quadratic formula; any other remainder by a coordinate
ansatz solved with ``rational_points``.  Eigenvectors are exact kernel
bases, computed only by :func:`jacobian_eigendata`: non-resonance and
holonomy need the eigenvalues alone.  A factor of degree >= 2 with no root
in the working field is reported through
:class:`~folichar.errors.UnresolvedFactor`, never approximated.

Non-resonance of an isolated singularity means the linear part is invertible
and its eigenvalues span a rank-n subgroup of the additive group of the field
(:func:`folichar.scalars.zrank`).  The linear holonomy around the separatrix
tangent to the i-th eigendirection has spectrum exp(2*pi*i*lambda_j/lambda_i);
those ratios are computed exactly and each entry is tagged as a root of unity
or not.  Non-resonance is also the criterion for the closure of the holonomy
group to be a maximal torus.

Along an invariant coordinate axis the normal-bundle connection has matrix
A(t) with A_{ij} = da_j/dx_i restricted to the axis; the prolonged field,
restricted to the conormal of the axis, is linear in y with matrix -A^T.
:func:`verify_prolongation_duality` checks that identity exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import (
    InvalidInput,
    LeafNotInvariant,
    NotASingularPoint,
    UnknownVariable,
    UnresolvedFactor,
    ZeroEigenvalue,
)
from .foliations import prolong
from .ideals import _as_budget, poly_det, rational_points
from .polynomials import MultiPoly, VarSpace, multigrade_decompose
from .scalars import (
    as_fraction,
    common_field,
    is_rational_scalar,
    rref,
    upoly_degree,
    upoly_divmod,
    upoly_rational_roots,
    upoly_str,
    zrank,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# eigendata of the linear part
# ---------------------------------------------------------------------------

class EigenData(namedtuple("EigenData", "point char_poly eigenvalues eigenvectors "
                                      "invertible field")):
    """Exact spectral data of the linear part at a singular point.

    ``char_poly`` is the monic characteristic polynomial det(tI - D), stored
    low-degree first.  ``eigenvalues`` lists roots with multiplicity in a
    canonical order (rationals ascending, then field elements by coordinate
    vector).  ``eigenvectors`` pairs each distinct eigenvalue with an exact
    kernel basis; for defective eigenvalues the basis is shorter than the
    multiplicity.
    """

    __slots__ = ()

    def __str__(self):
        vals = ", ".join(str(v) for v in self.eigenvalues)
        return f"char {upoly_str(self.char_poly)}; eigenvalues {{{vals}}}"


def _char_upoly(mat):
    """det(tI - mat), low-degree first, by :func:`poly_det` over Q[t] or Q(alpha)[t]."""
    n = len(mat)
    space = VarSpace(("t",))
    rows = [[MultiPoly.constant(space, -v) for v in row] for row in mat]
    for i in range(n):
        rows[i][i] = rows[i][i] + MultiPoly.variable(space, 0)
    det = poly_det(rows)
    return tuple(det.terms.get((k,), _ZERO) for k in range(n + 1))


def _ansatz_roots(char, field, budget=None):
    """All roots of ``char`` that lie in Q(alpha), by coordinate ansatz.

    A candidate root z = sum c_k alpha^k is a polynomial in the c_k over
    Q(alpha); each power-basis coordinate of char(z), by Horner's rule, is
    one polynomial equation over Q in the c_k.  The solution variety is
    finite and ``rational_points`` lists every rational point of it, which
    is every root in Q(alpha); roots outside Q(alpha) are irrational points
    and stay in the quotient that the caller reports as unresolved.
    """
    d = field.degree
    space = VarSpace(tuple(f"c{k}" for k in range(d)))
    z = MultiPoly(space, {tuple(int(i == k) for i in range(d)): field.element([0] * k + [1])
                          for k in range(d)})
    acc = MultiPoly.constant(space, field.coerce(char[-1]))
    for coeff in reversed(char[:-1]):
        acc = acc * z + field.coerce(coeff)
    eqs = [MultiPoly(space, {e: c.coords[i] for e, c in acc.terms.items()})
           for i in range(d)]
    points, _ = rational_points([g for g in eqs if not g.is_zero()], space, budget=budget)
    return [field.element([p.get(k, _ZERO) for k in range(d)]) for p in points]


def _quadratic_roots(quad, field):
    """Roots in a quadratic field Q(alpha) of a rational t^2 + b*t + c with no
    rational root, by the quadratic formula.

    With alpha^2 + a1*alpha + a0 = 0, (2*alpha + a1)^2 = a1^2 - 4*a0, and the
    only irrational elements of Q(alpha) with a rational square are the
    rational multiples of 2*alpha + a1.  So the discriminant D has a square
    root in Q(alpha) exactly when D/(a1^2 - 4*a0) = s^2 for a rational s,
    and then sqrt(D) = s*(2*alpha + a1).
    """
    c, b, _ = quad
    a0, a1, _ = field.min_poly
    q = (b * b - 4 * c) / (a1 * a1 - 4 * a0)
    if q < 0:
        return []
    s = Fraction(isqrt(q.numerator), isqrt(q.denominator))
    if s * s != q:
        return []
    return [field.element([(-b + sign * s * a1) / 2, sign * s]) for sign in (1, -1)]


def _deflate(poly, roots, one):
    """Divide each root out of ``poly`` as often as it divides: the roots
    repeated by multiplicity, and the cofactor."""
    found = []
    for lam in roots:
        while upoly_degree(poly) >= 1:
            quo, rem = upoly_divmod(poly, (-lam, one))
            if rem:
                break
            poly = quo
            found.append(lam)
    return found, poly


def _field_roots(char, field, budget=None):
    """The roots of ``char`` in the working field (Q when ``field`` is None),
    repeated by multiplicity, and the cofactor with no root there.

    A rational ``char`` first loses its rational roots
    (:func:`upoly_rational_roots`).  Over a quadratic field a quadratic
    remainder is solved by :func:`_quadratic_roots`; any other remainder,
    and a ``char`` with irrational coefficients, goes to the coordinate
    ansatz :func:`_ansatz_roots`.
    """
    found = []
    if all(map(is_rational_scalar, char)):
        char = tuple(map(as_fraction, char))
        found, char = _deflate(char, upoly_rational_roots(char), _ONE)
        if field is None:
            return found, char
        found = [field.from_rational(r) for r in found]
        if upoly_degree(char) == 2 and field.degree == 2:
            roots = _quadratic_roots(char, field)
            # two simple roots leave nothing
            return found + roots, (_ONE,) if roots else tuple(map(field.coerce, char))
    char = tuple(map(field.coerce, char))
    if upoly_degree(char) < 1:
        return found, char
    more, rest = _deflate(char, _ansatz_roots(char, field, budget), field.one())
    return found + more, rest


def _eig_sort_key(value):
    if is_rational_scalar(value):
        return (0, as_fraction(value), ())
    return (1, _ZERO, value.coords)


def _kernel_basis(mat):
    """Exact right-kernel basis of a square matrix, pivots normalized to 1."""
    n = len(mat)
    rows = [list(r) for r in mat]
    pivots = rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [_ZERO] * n
        vec[fc] = _ONE
        for pr, pc in enumerate(pivots):
            vec[pc] = -rows[pr][fc]
        basis.append(tuple(vec))
    return basis


def point_str(point):
    return "(" + ", ".join(str(v) for v in point) + ")"


def _spectrum(xi, point, field, budget):
    """D(xi) at a singular point (row j the gradient of a_j there, over Q
    when rational) and its :class:`EigenData` without eigenvectors."""
    n = len(xi.components)
    point = tuple(point)
    if len(point) != n:
        raise ValueError(f"point needs {n} coordinates, got {len(point)}")
    at = dict(enumerate(point))
    for a in xi.components:
        if a.evaluate(at):
            raise NotASingularPoint(f"{xi} does not vanish at {point_str(point)}")
    if field is None:
        field = common_field([c for a in xi.components for c in a.terms.values()] + list(point))
    mat = [[a.partial(k).evaluate(at) for k in range(n)] for a in xi.components]
    entries = [v for row in mat for v in row]
    rational = all(map(is_rational_scalar, entries)) and common_field(entries) in (None, field)
    mat = [[(as_fraction if rational else field.coerce)(v) for v in row] for row in mat]
    char = _char_upoly(mat)
    eigenvalues, rest = _field_roots(char, field, budget)
    if upoly_degree(rest) >= 1:
        # with no root in the field, a factor of degree 2 or 3 is irreducible
        kind = "irreducible factor" if upoly_degree(rest) <= 3 else "factor"
        raise UnresolvedFactor(
            f"{kind} {upoly_str(rest)} has no root in the working field; "
            "declare an extension to resolve it",
            rest,
        )
    return mat, EigenData(
        point=point,
        char_poly=tuple(map(Fraction if field is None else field.coerce, char)),
        eigenvalues=tuple(sorted(eigenvalues, key=_eig_sort_key)),
        eigenvectors=(),
        invertible=bool(char[0]),
        field=field,
    )


def jacobian_eigendata(xi, point, field=None, budget=None):
    """Spectral data of D(xi) at a singular point, exact over the field.

    ``field`` lifts a rational problem into a declared extension Q(alpha) so
    that irrational eigenvalues (e.g. of a rotation) become visible.  If the
    characteristic polynomial keeps a factor of degree >= 2 with no root in
    the working field, :class:`UnresolvedFactor` carries that factor.
    """
    mat, data = _spectrum(xi, point, field, budget)
    n, field = len(mat), data.field
    if field is not None:
        mat = [[field.coerce(v) for v in row] for row in mat]
    vectors = []
    for lam in dict.fromkeys(data.eigenvalues):
        shifted = [
            [mat[i][j] - (lam if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        vectors.append((lam, tuple(_kernel_basis(shifted))))
    return data._replace(eigenvectors=tuple(vectors))


# ---------------------------------------------------------------------------
# resonance and linear holonomy
# ---------------------------------------------------------------------------

class ResonanceReport(namedtuple("ResonanceReport",
                                  "nonresonant invertible rank eigenvalues")):
    __slots__ = ()

    def __bool__(self):
        return self.nonresonant

    def __str__(self):
        vals = ", ".join(str(v) for v in self.eigenvalues)
        verdict = "non-resonant" if self.nonresonant else "resonant"
        return f"{verdict}: eigenvalues {{{vals}}}, zrank {self.rank}"


def is_nonresonant(xi, point, field=None, budget=None):
    """Invertible linear part whose eigenvalues span a rank-n Z-module."""
    _, data = _spectrum(xi, point, field, budget)
    rank = zrank(data.eigenvalues)
    n = len(xi.components)
    return ResonanceReport(
        nonresonant=data.invertible and rank == n,
        invertible=data.invertible,
        rank=rank,
        eigenvalues=data.eigenvalues,
    )


# order is the denominator of the ratio when it is rational, else None
class HolonomyEigenvalue(namedtuple("HolonomyEigenvalue",
                                    "ratio symbol root_of_unity order")):
    __slots__ = ()

    def __str__(self):
        tag = f"root of unity (order {self.order})" if self.root_of_unity else \
            "not a root of unity"
        return f"{self.symbol}  [{tag}]"


class HolonomyReport(namedtuple("HolonomyReport", "separatrix_eigenvalue entries "
                                "maximal_torus eigenvalues")):
    __slots__ = ()

    def __str__(self):
        lines = [str(e) for e in self.entries]
        lines.append(f"maximal torus: {'yes' if self.maximal_torus else 'no'}")
        return "\n".join(lines)


def _exp_symbol(ratio):
    s = str(ratio)
    if any(ch in s for ch in "+- /"):
        s = f"({s})"
    return f"exp(2*pi*i*{s})"


def holonomy_spectrum(xi, point, index, field=None, budget=None):
    """Linear holonomy spectrum around the separatrix of the index-th eigenvalue.

    ``index`` is 1-based into the canonical eigenvalue list.  Each transverse
    eigenvalue lambda_j contributes exp(2*pi*i*lambda_j/lambda_i), a root of
    unity exactly when the ratio is rational.  ``maximal_torus`` repeats the
    non-resonance verdict: rank-n eigenvalues force the closure of the
    holonomy group to be the full torus.
    """
    res = is_nonresonant(xi, point, field=field, budget=budget)
    eigs = res.eigenvalues
    if not 1 <= index <= len(eigs):
        raise InvalidInput(f"separatrix index {index} out of range 1..{len(eigs)}")
    lam = eigs[index - 1]
    if not lam:
        raise ZeroEigenvalue("holonomy needs a nonzero separatrix eigenvalue")
    entries = []
    for j, mu in enumerate(eigs):
        if j == index - 1:
            continue
        ratio = mu / lam
        rational = is_rational_scalar(ratio)
        entries.append(
            HolonomyEigenvalue(
                ratio=ratio,
                symbol=_exp_symbol(ratio),
                root_of_unity=rational,
                order=as_fraction(ratio).denominator if rational else None,
            )
        )
    return HolonomyReport(
        separatrix_eigenvalue=lam,
        entries=tuple(entries),
        maximal_torus=res.nonresonant,
        eigenvalues=eigs,
    )


# ---------------------------------------------------------------------------
# connection along an invariant coordinate axis
# ---------------------------------------------------------------------------

# the matrix of the normal-bundle connection along a coordinate axis:
# entries[r][c] is da_{j_c}/dx_{i_r} restricted to the axis, where i_r, j_c
# run over the transverse coordinate indices in ascending order; entries are
# univariate polynomials in the axis variable
ConnectionMatrix = namedtuple("ConnectionMatrix", "axis variable indices entries")


def _axis_index(space, axis):
    idx = space.x_vars.index(axis) if axis in space.x_vars else axis
    if not isinstance(idx, int) or not 0 <= idx < len(space.x_vars):
        raise UnknownVariable(f"axis {axis!r} is not an x-coordinate of {space}")
    return idx


def bott_connection(xi, axis=0):
    """Connection matrix A(t) of the normal bundle along an invariant axis.

    The axis (default the first coordinate axis) must be invariant: every
    transverse component of xi lies in the ideal of the axis.  Fields singular
    along a curved leaf should first be straightened with
    :meth:`PolyVectorField.affine_shift` / :meth:`PolyVectorField.linear_change`.
    """
    space = xi.space
    ax = _axis_index(space, axis)
    transverse = [k for k in range(len(xi.components)) if k != ax]
    wipe = dict.fromkeys(transverse, 0)
    for j in transverse:
        if not xi.components[j].substitute(wipe).is_zero():
            raise LeafNotInvariant(
                f"component d/d{space.x_vars[j]} does not vanish on the "
                f"{space.x_vars[ax]}-axis"
            )
    entries = tuple(
        tuple(xi.components[j].partial(i).substitute(wipe) for j in transverse)
        for i in transverse
    )
    return ConnectionMatrix(
        axis=ax,
        variable=space.x_vars[ax],
        indices=tuple(transverse),
        entries=entries,
    )


class DualityReport(namedtuple("DualityReport", "holds connection restricted")):
    __slots__ = ()

    def __bool__(self):
        return self.holds


def verify_prolongation_duality(xi, axis=0):
    """Check that the prolonged field restricts to the negative transpose.

    Restricting the prolongation to {y_axis = 0, transverse x = 0} leaves a
    field linear in the transverse y's; its matrix B (rows indexed by y_i,
    columns by the d/dy_j component) must equal -A^T for the connection
    matrix A along the axis.
    """
    conn = bott_connection(xi, axis)
    hat = prolong(xi)
    n = len(xi.components)
    wipe = dict.fromkeys(conn.indices, 0)
    wipe[n + conn.axis] = 0
    comps = [hat.y_components[j].substitute(wipe) for j in conn.indices]
    restricted = conn._replace(entries=tuple(
        tuple(comp.partial(n + i).restrict_to(xi.space) for comp in comps)
        for i in conn.indices
    ))
    size = len(conn.indices)
    holds = all(
        restricted.entries[r][c] == -conn.entries[c][r]
        for r in range(size)
        for c in range(size)
    )
    return DualityReport(holds=holds, connection=conn, restricted=restricted)


# ---------------------------------------------------------------------------
# torus-invariant subvarieties of a fiber
# ---------------------------------------------------------------------------

class TorusFiberReport(namedtuple("TorusFiberReport", "torus_invariant offending "
                                  "monomials components dimensions same_dimension",
                                  defaults=(None, (), (), (), True))):
    """Decomposition of a torus-invariant variety into coordinate subspaces.

    A variety invariant under the full torus action is cut out by monomials;
    its components are the subspaces {v = 0 : v in S} for the minimal sets S
    hitting every generator support.
    """

    __slots__ = ()

    def __bool__(self):
        return self.torus_invariant


def coordinate_subspace_decomposition(ideal, budget=None):
    """Split V(I) into coordinate subspaces when I is torus-invariant.

    Torus invariance is tested term by term: every multigraded component of
    every generator must already lie in the ideal.  The components are then
    read off the monomial generators as minimal vertex covers of their
    supports, grown one support at a time and kept inclusion-minimal
    (Berge); supports limited to 10 variables.
    """
    space = ideal.space
    budget = _as_budget(budget)
    exps = {}  # insertion-ordered: the sort below keeps it among degree ties
    for g in ideal.generators:
        parts = multigrade_decompose(g)
        for part in parts:
            if len(parts) > 1 and not ideal.contains(part, budget=budget):
                return TorusFiberReport(torus_invariant=False, offending=part)
            exps[next(iter(part.terms))] = None
    # keep only divisibility-minimal monomials
    minimal_exps = []
    for e in sorted(exps, key=sum):
        if not any(all(a <= b for a, b in zip(m, e)) for m in minimal_exps):
            minimal_exps.append(e)
    gens = tuple(MultiPoly.monomial(space, e) for e in minimal_exps)
    supports = {frozenset(i for i, v in enumerate(e) if v) for e in minimal_exps}
    if len(set().union(*supports)) > 10:
        raise InvalidInput("vertex covers limited to supports in 10 variables")
    covers = {frozenset()}
    for sup in supports:
        grown = {c | {v} for c in covers if not c & sup for v in sup}
        grown |= {c for c in covers if c & sup}
        covers = {c for c in grown if not any(o < c for o in grown)}
    covers = sorted(covers, key=lambda s: (len(s), sorted(s)))
    components = tuple(
        tuple(space.all_vars[i] for i in sorted(s)) for s in covers
    )
    dimensions = tuple(space.nvars - len(s) for s in covers)
    return TorusFiberReport(
        torus_invariant=True,
        monomials=gens,
        components=components,
        dimensions=dimensions,
        same_dimension=len(set(dimensions)) <= 1,
    )
