"""Local analysis at singular points: Jacobian eigendata, resonance lattices,
holonomy spectra, the partial connection along an invariant leaf, and the
coordinate-subspace decomposition of torus-stable fiber ideals."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from folichar.errors import (
    LeafNotInvariant,
    NotASingularPoint,
    UnresolvedFactor,
)
from folichar.foliations import PolyVectorField, _matrix_inverse
from folichar.ideals import Ideal
from folichar.polynomials import MultiPoly, VarSpace
from folichar.scalars import make_number_field
from folichar.singularities import (
    _kernel_basis,
    bott_connection,
    coordinate_subspace_decomposition,
    holonomy_spectrum,
    is_nonresonant,
    jacobian_eigendata,
    verify_prolongation_duality,
)

S = VarSpace(("x1", "x2"))
X1, X2 = (MultiPoly.variable(S, v) for v in S.all_vars)
DIAG = PolyVectorField(S, [X1, 2 * X2])
ROT = PolyVectorField(S, [X2, -X1])


# ---------------------------------------------------------------------------
# eigendata


def test_eigendata_rational_diagonal():
    d = jacobian_eigendata(DIAG, (0, 0))
    assert d.char_poly == (F(2), F(-3), F(1))
    assert d.eigenvalues == (F(1), F(2))
    assert d.invertible
    assert d.eigenvectors[0][1] == ((F(1), F(0)),)
    assert d.eigenvectors[1][1] == ((F(0), F(1)),)


def test_eigendata_requires_singular_point():
    with pytest.raises(NotASingularPoint):
        jacobian_eigendata(DIAG, (1, 0))


def test_eigendata_over_sqrt2():
    K = make_number_field("r", [-2, 0, 1])
    r = K.gen()
    xi = PolyVectorField(S, [X1, X2 * r])
    d = jacobian_eigendata(xi, (0, 0))
    assert [str(v) for v in d.eigenvalues] == ["1", "r"]


def test_eigendata_unresolved_factor_reports_residual():
    # x^2 + 1 has no rational root; the residual factor is surfaced
    with pytest.raises(UnresolvedFactor) as exc:
        jacobian_eigendata(ROT, (0, 0))
    assert exc.value.residual == (F(1), F(0), F(1))


def test_eigendata_rotation_over_gaussian_field():
    Ki = make_number_field("i", [1, 0, 1])
    d = jacobian_eigendata(ROT, (0, 0), field=Ki)
    assert [str(v) for v in d.eigenvalues] == ["-i", "i"]


# ---------------------------------------------------------------------------
# resonance


def test_resonance_ranks():
    rep = is_nonresonant(DIAG, (0, 0))
    assert not rep and rep.rank == 1  # 2 = 2*1 is a resonance

    K = make_number_field("r", [-2, 0, 1])
    xi = PolyVectorField(S, [X1, X2 * K.gen()])
    rep2 = is_nonresonant(xi, (0, 0))
    assert rep2 and rep2.rank == 2  # 1, sqrt(2) are Z-independent

    Ki = make_number_field("i", [1, 0, 1])
    rep3 = is_nonresonant(ROT, (0, 0), field=Ki)
    assert not rep3 and rep3.rank == 1  # i, -i sum to zero


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_irrational_ratio_gives_maximal_torus():
    K = make_number_field("r", [-2, 0, 1])
    xi = PolyVectorField(S, [X1, X2 * K.gen()])
    h = holonomy_spectrum(xi, (0, 0), 1)
    assert len(h.entries) == 1
    entry = h.entries[0]
    assert str(entry.ratio) == "r"
    assert entry.symbol == "exp(2*pi*i*r)"
    assert not entry.root_of_unity
    assert h.maximal_torus


def test_holonomy_integer_ratio_is_trivial():
    h = holonomy_spectrum(DIAG, (0, 0), 1)
    entry = h.entries[0]
    assert entry.ratio == 2 and entry.root_of_unity and entry.order == 1
    assert not h.maximal_torus


def test_holonomy_rotation_ratio_minus_one():
    Ki = make_number_field("i", [1, 0, 1])
    h = holonomy_spectrum(ROT, (0, 0), 1, field=Ki)
    entry = h.entries[0]
    assert str(entry.ratio) == "-1"
    assert entry.symbol == "exp(2*pi*i*(-1))"
    assert entry.root_of_unity and entry.order == 1
    assert not h.maximal_torus


def test_holonomy_half_ratio_has_order_two():
    half = PolyVectorField(S, [2 * X1, X2])
    h = holonomy_spectrum(half, (0, 0), 2)
    entry = h.entries[0]
    assert entry.ratio == F(1, 2) and entry.order == 2


# ---------------------------------------------------------------------------
# partial connection along an axis leaf


def test_bott_connection_diagonal_three_vars():
    S3 = VarSpace(("x1", "x2", "x3"))
    u1, u2, u3 = (MultiPoly.variable(S3, v) for v in S3.all_vars)
    A = bott_connection(PolyVectorField(S3, [u1, 2 * u2, 3 * u3]))
    assert [[str(e) for e in row] for row in A.entries] == [["2", "0"], ["0", "3"]]


def test_bott_connection_worked_example():
    worked = PolyVectorField(S, [X1, 2 * X2 + X1 * X2])
    A = bott_connection(worked)
    assert [[str(e) for e in row] for row in A.entries] == [["x1 + 2"]]


def test_bott_connection_needs_invariant_axis():
    with pytest.raises(LeafNotInvariant):
        bott_connection(ROT)


def test_prolongation_duality():
    worked = PolyVectorField(S, [X1, 2 * X2 + X1 * X2])
    rep = verify_prolongation_duality(worked)
    assert rep
    assert str(rep.restricted.entries[0][0]) == "-x1 - 2"

    S3 = VarSpace(("x1", "x2", "x3"))
    u1, u2, u3 = (MultiPoly.variable(S3, v) for v in S3.all_vars)
    diag3 = PolyVectorField(S3, [u1, 2 * u2, 3 * u3])
    assert verify_prolongation_duality(diag3)
    assert verify_prolongation_duality(diag3, axis="x2")


# ---------------------------------------------------------------------------
# coordinate-subspace decomposition of fiber ideals


Y3 = VarSpace(("y1", "y2", "y3"))
Y2 = VarSpace(("y1", "y2"))


def _vars(space):
    return tuple(MultiPoly.variable(space, v) for v in space.all_vars)


def test_decomposition_three_pairwise_products():
    y1, y2, y3 = _vars(Y3)
    rep = coordinate_subspace_decomposition(Ideal(Y3, [y1 * y2, y1 * y3, y2 * y3]))
    assert rep.torus_invariant
    assert rep.components == (("y1", "y2"), ("y1", "y3"), ("y2", "y3"))
    assert rep.dimensions == (1, 1, 1) and rep.same_dimension


def test_decomposition_union_of_axes():
    w1, w2 = _vars(Y2)
    rep = coordinate_subspace_decomposition(Ideal(Y2, [w1 * w2]))
    assert rep.components == (("y1",), ("y2",)) and rep.same_dimension


def test_decomposition_rejects_non_monomial_variety():
    w1, w2 = _vars(Y2)
    rep = coordinate_subspace_decomposition(Ideal(Y2, [w1 + w2]))
    assert not rep.torus_invariant
    assert str(rep.offending) in ("y1", "y2")


def test_decomposition_unit_ideal_is_empty():
    rep = coordinate_subspace_decomposition(
        Ideal(Y2, [MultiPoly.constant(Y2, 1)])
    )
    assert rep.torus_invariant and rep.components == ()


def test_decomposition_mixed_generators():
    y1, y2, y3 = _vars(Y3)
    rep = coordinate_subspace_decomposition(Ideal(Y3, [y1, y2 * y3]))
    assert rep.components == (("y1", "y2"), ("y1", "y3")) and rep.same_dimension

    rep2 = coordinate_subspace_decomposition(Ideal(Y3, [y1 * y2, y3]))
    assert rep2.components == (("y1", "y3"), ("y2", "y3"))

    # redundant generator dropped by minimality
    rep3 = coordinate_subspace_decomposition(Ideal(Y3, [y1, y1 * y2]))
    assert rep3.components == (("y1",),) and rep3.dimensions == (2,)


# ---------------------------------------------------------------------------
# exact linear algebra: kernels, inverses and linear coordinate changes


SQRT2 = make_number_field("r", [F(-2), F(0), F(1)])


def _random_matrices(seed, count=60):
    """Seeded square matrices over Q and Q(sqrt2), about 40% rank-deficient."""
    rng = random.Random(seed)

    def entry(field):
        q = F(rng.randint(-3, 3), rng.randint(1, 2))
        return q if field is None else field.element([q, F(rng.randint(-2, 2))])

    for k in range(count):
        field = SQRT2 if k % 2 else None
        n = rng.randint(1, 4)
        m = [[entry(field) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            i, j = rng.sample(range(n), 2)
            c = entry(field)
            m[i] = [c * v for v in m[j]]
        yield m


def _det(m):
    """Laplace expansion along the first row; independent of the RREF kernel."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _rank(m):
    n = len(m)
    for k in range(n, 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                if _det([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_kernel_basis_annihilated_and_rank_nullity():
    for m in _random_matrices(1):
        n = len(m)
        basis = _kernel_basis(m)
        for v in basis:
            assert len(v) == n and any(v)
            assert all(not sum((m[i][j] * v[j] for j in range(n)), F(0))
                       for i in range(n))
        assert _rank(m) + len(basis) == n


def test_matrix_inverse_exact_or_singular():
    singular = 0
    for m in _random_matrices(2):
        n = len(m)
        if not _det(m):
            singular += 1
            with pytest.raises(ValueError):
                _matrix_inverse(m)
            continue
        prod = _matmul(_matrix_inverse(m), m)
        assert all(prod[i][j] == (i == j) for i in range(n) for j in range(n))
    assert singular


def test_linear_change_round_trip():
    rng = random.Random(3)
    for m in _random_matrices(4, count=12):
        n = len(m)
        if not _det(m):
            continue
        space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
        xs = [MultiPoly.variable(space, i) for i in range(n)]
        comps = [sum((F(rng.randint(-2, 2)) * xs[rng.randrange(n)] * xs[j]
                      for j in range(n)), MultiPoly.zero(space)) + xs[i]
                 for i in range(n)]
        xi = PolyVectorField(space, comps)
        assert xi.linear_change(m).linear_change(_matrix_inverse(m)) == xi
