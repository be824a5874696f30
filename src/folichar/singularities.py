"""Local analysis of a vector field at a singular point.

Eigendata of the linear part is computed exactly: the characteristic
polynomial as the determinant det(tI - D) (:func:`folichar.ideals.poly_det`,
the package's one determinant), eigenvalues as roots in the
working field (rational roots over Q, a coordinate ansatz solved with
``rational_points`` over Q(alpha)), eigenvectors as exact kernel bases.
Irreducible factors of degree >= 2 with no declared extension are reported
through :class:`~folichar.errors.UnresolvedFactor`, never approximated.

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
from itertools import combinations

from .errors import (
    InvalidInput,
    LeafNotInvariant,
    NotASingularPoint,
    UnknownVariable,
    UnresolvedFactor,
    ZeroEigenvalue,
)
from .foliations import prolong
from .ideals import poly_det, rational_points
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
    upoly_trim,
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


def _jacobian_matrix(xi, point, field):
    """D(xi) at the point: row j, column k holds da_j/dx_k evaluated."""
    n = len(xi.components)
    at = {i: point[i] for i in range(n)}
    mat = []
    for a in xi.components:
        row = [a.partial(k).evaluate(at) for k in range(n)]
        if field is not None:
            row = [field.coerce(v) for v in row]
        mat.append(row)
    return mat


def _char_upoly(mat, field):
    """det(tI - mat), low-degree first, by :func:`poly_det` over Q[t]."""
    n = len(mat)
    space = VarSpace(("t",))
    rows = [[MultiPoly.constant(space, -v) for v in row] for row in mat]
    for i in range(n):
        rows[i][i] = rows[i][i] + MultiPoly.variable(space, 0)
    det = poly_det(rows)
    coerce = Fraction if field is None else field.coerce
    return tuple(coerce(det.terms.get((k,), 0)) for k in range(n + 1))


def _field_roots(char, field, budget=None):
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


def jacobian_eigendata(xi, point, field=None, budget=None):
    """Spectral data of D(xi) at a singular point, exact over the field.

    ``field`` lifts a rational problem into a declared extension Q(alpha) so
    that irrational eigenvalues (e.g. of a rotation) become visible.  If the
    characteristic polynomial keeps a factor of degree >= 2 with no root in
    the working field, :class:`UnresolvedFactor` carries that factor.
    """
    n = len(xi.components)
    point = tuple(point)
    if len(point) != n:
        raise ValueError(f"point needs {n} coordinates, got {len(point)}")
    at = {i: point[i] for i in range(n)}
    for a in xi.components:
        if a.evaluate(at):
            raise NotASingularPoint(f"{xi} does not vanish at {point_str(point)}")
    if field is None:
        field = common_field([c for a in xi.components for c in a.terms.values()] + list(point))
    mat = _jacobian_matrix(xi, point, field)
    char = _char_upoly(mat, field)
    if field is None:
        roots = upoly_rational_roots(char)
    else:
        roots = _field_roots(char, field, budget=budget)
    eigenvalues = []
    vectors = []
    remaining = char
    one = _ONE if field is None else field.one()
    for lam in sorted(roots, key=_eig_sort_key):
        count = 0
        while upoly_degree(remaining) >= 1:
            quo, rem = upoly_divmod(remaining, (-lam, one))
            if upoly_trim(rem):
                break
            remaining = quo
            count += 1
        eigenvalues.extend([lam] * count)
        shifted = [
            [mat[i][j] - (lam if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        vectors.append((lam, tuple(_kernel_basis(shifted))))
    if upoly_degree(remaining) >= 1:
        raise UnresolvedFactor(
            f"irreducible factor {upoly_str(upoly_trim(remaining))} has no root "
            "in the working field; declare an extension to resolve it",
            upoly_trim(remaining),
        )
    return EigenData(
        point=point,
        char_poly=char,
        eigenvalues=tuple(eigenvalues),
        eigenvectors=tuple(vectors),
        invertible=bool(char[0]),
        field=field,
    )


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
    data = jacobian_eigendata(xi, point, field=field, budget=budget)
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


def _check_axis_invariant(xi, ax):
    space = xi.space
    transverse = [k for k in range(len(xi.components)) if k != ax]
    wipe = {k: 0 for k in transverse}
    for j in transverse:
        if not xi.components[j].substitute(wipe).is_zero():
            raise LeafNotInvariant(
                f"component d/d{space.x_vars[j]} does not vanish on the "
                f"{space.x_vars[ax]}-axis"
            )
    return transverse, wipe


def bott_connection(xi, axis=0):
    """Connection matrix A(t) of the normal bundle along an invariant axis.

    The axis (default the first coordinate axis) must be invariant: every
    transverse component of xi lies in the ideal of the axis.  Fields singular
    along a curved leaf should first be straightened with
    :meth:`PolyVectorField.affine_shift` / :meth:`PolyVectorField.linear_change`.
    """
    ax = _axis_index(xi.space, axis)
    transverse, wipe = _check_axis_invariant(xi, ax)
    entries = tuple(
        tuple(xi.components[j].partial(i).substitute(wipe) for j in transverse)
        for i in transverse
    )
    return ConnectionMatrix(
        axis=ax,
        variable=xi.space.x_vars[ax],
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
    ax = conn.axis
    hat = prolong(xi)
    dspace = hat.space
    n = len(xi.components)
    wipe = {k: 0 for k in conn.indices}
    wipe[n + ax] = 0
    rows = []
    for i in conn.indices:
        row = []
        for j in conn.indices:
            comp = hat.y_components[j].substitute(wipe)
            row.append(comp.partial(n + i).restrict_to(xi.space))
        rows.append(tuple(row))
    restricted = ConnectionMatrix(
        axis=ax,
        variable=conn.variable,
        indices=conn.indices,
        entries=tuple(rows),
    )
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
    supports (exhaustive subset enumeration; supports limited to 10
    variables).
    """
    space = ideal.space
    monomials = {}
    for g in ideal.generators:
        if g.is_zero():
            continue
        parts = multigrade_decompose(g)
        for part in parts:
            if len(parts) > 1 and not ideal.contains(part, budget=budget):
                return TorusFiberReport(torus_invariant=False, offending=part)
            exp = next(iter(part.terms))
            monomials[exp] = MultiPoly.monomial(space, exp)
    # keep only divisibility-minimal monomials
    exps = sorted(monomials, key=sum)
    minimal_exps = []
    for e in exps:
        if not any(all(a <= b for a, b in zip(m, e)) for m in minimal_exps):
            minimal_exps.append(e)
    gens = tuple(monomials[e] for e in minimal_exps)
    supports = {frozenset(i for i, v in enumerate(e) if v) for e in minimal_exps}
    involved = sorted(set().union(*supports))
    if len(involved) > 10:
        raise InvalidInput("subset enumeration limited to supports in 10 variables")
    covers = []
    for size in range(len(involved) + 1):
        for combo in combinations(involved, size):
            s = set(combo)
            if any(kept <= s for kept in covers):
                continue
            if all(s & sup for sup in supports):
                covers.append(frozenset(s))
    covers.sort(key=lambda s: (len(s), sorted(s)))
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
