"""Local analysis at singular points: Jacobian eigendata, resonance lattices,
holonomy spectra, the partial connection along an invariant leaf, and the
coordinate-subspace decomposition of torus-stable fiber ideals."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from conftest import rng_for
from oracles import enumerated_covers

from folichar.errors import (
    BudgetExceeded,
    FieldMismatch,
    LeafNotInvariant,
    NotASingularPoint,
    UnknownVariable,
    UnresolvedFactor,
)
from folichar.foliations import PolyVectorField, _matrix_inverse
from folichar.ideals import Ideal, StepBudget
from folichar.polynomials import MultiPoly, VarSpace
from folichar import ideals, singularities
from folichar.scalars import make_number_field, zrank
from folichar.singularities import (
    _ansatz_roots,
    _field_roots,
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
    # the field and the point print as everywhere else, not as Python reprs
    with pytest.raises(NotASingularPoint,
                       match=r"^x1\*d1 \+ 2\*x2\*d2 does not vanish at \(1, 0\)$"):
        jacobian_eigendata(DIAG, (F(1), F(0)))


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


S3 = VarSpace(("x1", "x2", "x3"))
Y1, Y2, Y3 = (MultiPoly.variable(S3, v) for v in S3.all_vars)


@pytest.mark.parametrize("xi, origin, min_poly, eigenvalues, steps", [
    # the companion matrix of a^3 - 3a + 1: all three roots lie in Q(a)
    (PolyVectorField(S3, [Y2, Y3, -Y1 + 3 * Y2]), (0, 0, 0), [1, -3, 0, 1],
     ["-2 + a^2", "a", "2 - a - a^2"], 321),
    # [[0, 1/2], [1, 0]] over Q(a), a^2 = 1/2, a minimal polynomial that is not integral
    # (the quadratic formula charges no step)
    (PolyVectorField(S, [F(1, 2) * X2, X1]), (0, 0), [F(-1, 2), 0, 1], ["-a", "a"], 0),
], ids=["cubic", "half"])
def test_eigendata_in_a_declared_field(xi, origin, min_poly, eigenvalues, steps):
    K = make_number_field("a", min_poly)
    budget = StepBudget(10 ** 6)
    d = jacobian_eigendata(xi, origin, field=K, budget=budget)
    assert d.char_poly == tuple(K.from_rational(c) for c in min_poly)
    assert [str(v) for v in d.eigenvalues] == eigenvalues
    assert budget.used == steps
    assert all(type(x) is F for v in d.eigenvalues for x in v.coords)


S4 = VarSpace(("x1", "x2", "x3", "x4"))
Z1, Z2, Z3, Z4 = (MultiPoly.variable(S4, v) for v in S4.all_vars)
# two rotations: det(tI - D) = (t^2 + 1)(t^2 + 4), with no rational root
TWO_ROT = PolyVectorField(S4, [Z2, -Z1, 2 * Z4, -2 * Z3])


def test_unresolved_factor_is_called_irreducible_only_when_it_is():
    """A factor with no root in the working field is irreducible when its
    degree is 2 or 3; a quartic such as (t^2 + 1)(t^2 + 4) is only a factor."""
    tail = " has no root in the working field; declare an extension to resolve it"
    for field in (None, make_number_field("r", [-2, 0, 1])):
        with pytest.raises(UnresolvedFactor) as exc:
            jacobian_eigendata(TWO_ROT, (0, 0, 0, 0), field=field)
        assert str(exc.value) == "factor t^4 + 5*t^2 + 4" + tail
        assert exc.value.residual == (4, 0, 5, 0, 1)
    with pytest.raises(UnresolvedFactor) as exc:
        jacobian_eigendata(ROT, (0, 0))
    assert str(exc.value) == "irreducible factor t^2 + 1" + tail
    d = jacobian_eigendata(TWO_ROT, (0, 0, 0, 0), field=make_number_field("i", [1, 0, 1]))
    assert [str(v) for v in d.eigenvalues] == ["-2*i", "-i", "i", "2*i"]


# the last, g^2 = g + 1, has a1 != 0 in alpha^2 + a1*alpha + a0 = 0
QUADRATIC_FIELDS = [("r", [-2, 0, 1]), ("r", [-3, 0, 1]), ("r", [-5, 0, 1]),
                    ("i", [1, 0, 1]), ("a", [F(-1, 2), 0, 1]), ("g", [-1, -1, 1])]
CUBIC = ("a", [1, -3, 0, 1])


def _upoly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _check_roots(char, field):
    """``_field_roots`` finds the roots the ansatz finds on all of ``char``, with
    char = prod(t - root) * cofactor and no root left in the cofactor; returns
    its steps and the cofactor's degree."""
    budget = StepBudget(10 ** 6)
    roots, rest = _field_roots(char, field, budget=budget)
    key = singularities._eig_sort_key
    assert sorted(set(roots), key=key) == sorted(_ansatz_roots(char, field), key=key), char
    prod = rest
    for lam in roots:
        prod = _upoly_mul(prod, (-lam, field.one()))
    assert prod == tuple(field.coerce(c) for c in char), char
    assert len(rest) < 2 or not _ansatz_roots(rest, field)
    return budget.used, len(rest) - 1


def test_closed_form_roots_agree_with_the_ansatz(monkeypatch):
    """On seeded rational quadratics over Q(sqrt2), Q(sqrt3), Q(sqrt5), Q(i),
    Q(a), a^2 = 1/2, and Q(g), g^2 = g + 1, some times a rational linear
    factor, the quadratic formula
    finds what the coordinate ansatz finds, whether the discriminant has a
    square root in the field or not, and charges no step.  Over the cubic
    field, rational roots leave no remainder and charge nothing; the
    companion matrix's irreducible cubic still goes to the ansatz.  Spies on
    ``_field_roots``: the quadratic formula's roots skip the ansatz and a
    second deflation, rational roots skip the ansatz, and the companion
    cubic and an irrational char each make one ansatz call."""
    calls = []

    def spy(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_ansatz_roots", "_deflate"):
        monkeypatch.setattr(singularities, name, spy(name, getattr(singularities, name)))
    rng = rng_for("closed-form-roots")

    def rational():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    for name, min_poly in QUADRATIC_FIELDS:
        K = make_number_field(name, min_poly)
        a0, a1 = K.min_poly[0], K.min_poly[1]
        delta = a1 * a1 - 4 * a0
        cofactor_degrees = set()
        for trial in range(12):
            if trial % 2:  # roots u -+ v*(2a + a1), whose discriminant is 4*v^2*delta
                u, v = rational(), rational() or F(1)
                quad = (u * u - v * v * delta, -2 * u, F(1))
            else:
                quad = (rational(), rational(), F(1))
            # a rational root at most: the ansatz runs for seconds on some quartics
            char = _upoly_mul(quad, (rational(), F(1))) if trial % 3 else quad
            calls.clear()
            steps, degree = _check_roots(char, K)
            assert steps == 0 and calls == ["_deflate"], char
            cofactor_degrees.add(degree)
        assert cofactor_degrees == {0, 2}, name

    K = make_number_field(*CUBIC)
    for _ in range(6):
        r = rational()
        char = (-r, F(1))
        for _ in range(rng.randint(0, 2)):
            char = _upoly_mul(char, (rng.choice((-r, rational())), F(1)))
        calls.clear()
        assert _check_roots(char, K) == (0, 0) and "_ansatz_roots" not in calls
    calls.clear()
    assert _check_roots((F(1), F(-3), F(0), F(1)), K) == (321, 0)
    assert calls.count("_ansatz_roots") == 1
    K = make_number_field(*QUADRATIC_FIELDS[0])
    r = K.gen()
    calls.clear()
    assert _check_roots((-2 * r, 2 - r, K.one()), K)[1] == 0  # (t - r)(t + 2)
    assert calls.count("_ansatz_roots") == 1


def test_field_is_detected_from_components_and_point():
    K = make_number_field("r", [-2, 0, 1])
    L = make_number_field("s", [-3, 0, 1])
    r, s = K.gen(), L.gen()
    cases = [
        (PolyVectorField(S, [r * X1, X2 * X2 - 3]), (0, s)),  # point over another field
        (PolyVectorField(S, [r * X1, s * X2]), (0, 0)),       # components over two fields
    ]
    for xi, point in cases:
        with pytest.raises(FieldMismatch, match=r"^cannot mix Q\(r\) and Q\(s\)$"):
            jacobian_eigendata(xi, point)
    # D over L in a problem declared over K, from a rational entry or not
    for entry in (L.from_rational(2), s):
        xi = PolyVectorField(S, [entry * X1, X2])
        for query in (jacobian_eigendata, is_nonresonant):
            with pytest.raises(FieldMismatch, match=r"^element of Q\(s\) used in Q\(r\)$"):
                query(xi, (0, 0), field=K)


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


def test_nonres_and_holonomy_build_no_eigenvectors(monkeypatch):
    """is_nonresonant and holonomy_spectrum read the eigenvalues alone: on
    seeded planar fields over quadratic fields and the cubic field they call
    no kernel, and their reports agree with the eigendata."""
    calls = []
    kernel = singularities._kernel_basis
    monkeypatch.setattr(singularities, "_kernel_basis",
                        lambda mat: calls.append(mat) or kernel(mat))
    rng = rng_for("spectra-without-kernels")
    for name, min_poly in QUADRATIC_FIELDS[:4] + [CUBIC]:
        K = make_number_field(name, min_poly)
        for trial in range(4):
            p, q = F(rng.choice((0, 1, -2))), F(rng.choice((1, -1, 2)))
            if K.degree == 2:  # eigenvalues p -+ q*sqrt(d), d = a1^2 - 4*a0
                d = K.min_poly[1] ** 2 - 4 * K.min_poly[0]
                lin, want = [[p, q * d], [q, p]], [K.element([p + q * K.min_poly[1], 2 * q]),
                                                   K.element([p - q * K.min_poly[1], -2 * q])]
            else:  # a rational spectrum in the cubic field
                lin, want = [[q, F(trial)], [F(0), 3 * q]], [K.from_rational(q),
                                                              K.from_rational(3 * q)]
            k = rng.randint(-2, 2)  # conjugate by [[1, k], [0, 1]]
            lin = [[lin[0][0] + k * lin[1][0], lin[0][1] + k * (lin[1][1] - lin[0][0])
                    - k * k * lin[1][0]],
                   [lin[1][0], lin[1][1] - k * lin[1][0]]]
            xi = PolyVectorField(S, [
                row[0] * X1 + row[1] * X2
                + sum((rng.randint(-2, 2) * m for m in (X1 * X1, X1 * X2, X2 * X2)),
                      MultiPoly.zero(S))
                for row in lin])
            data = jacobian_eigendata(xi, (0, 0), field=K)
            assert sorted(e.coords for e in data.eigenvalues) == sorted(e.coords for e in want)
            assert len(calls) == len(set(data.eigenvalues))
            calls.clear()
            rep = is_nonresonant(xi, (0, 0), field=K)
            hol = holonomy_spectrum(xi, (0, 0), 1, field=K)
            assert not calls
            rank = zrank(data.eigenvalues)
            assert rep == (data.invertible and rank == 2, data.invertible, rank,
                           data.eigenvalues)
            lam = data.eigenvalues[0]
            assert hol.eigenvalues == data.eigenvalues and hol.separatrix_eigenvalue == lam
            assert [e.ratio for e in hol.entries] == [data.eigenvalues[1] / lam]
            assert hol.maximal_torus == rep.nonresonant


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


@pytest.mark.parametrize("axis", ["y1", "x3", -1, 2])
def test_bad_axis_is_an_unknown_variable(axis):
    with pytest.raises(UnknownVariable,
                       match=rf"^axis {axis!r} is not an x-coordinate of \(x1,x2\)$"):
        bott_connection(DIAG, axis)


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


def test_decomposition_ignores_zero_generators_and_reads_as_its_verdict():
    """A zero generator has no multigraded parts, so it changes nothing; a
    report is true exactly when the ideal is torus-invariant."""
    w1, w2 = _vars(Y2)
    zero = MultiPoly.zero(Y2)
    rep = coordinate_subspace_decomposition(Ideal(Y2, [zero, w1 * w2, zero]))
    assert rep == coordinate_subspace_decomposition(Ideal(Y2, [w1 * w2])) and rep
    whole = coordinate_subspace_decomposition(Ideal(Y2, [zero]))
    assert whole.components == ((),) and whole.dimensions == (2,)
    assert not coordinate_subspace_decomposition(Ideal(Y2, [w1 + w2, zero]))


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


def test_decomposition_without_a_budget_bounds_the_whole_computation(monkeypatch):
    """With no budget given, the membership tests of the multigraded parts
    share one default budget instead of a fresh one each."""
    y1, y2, y3, y4 = _vars(VarSpace(("y1", "y2", "y3", "y4")))
    gens = [y1 * y2 + y3 * y4, y1 * y2 - y3 * y4, y1 * y3 + y2 * y4, y1 * y3 - 2 * y2 * y4]
    budget = StepBudget(10 ** 6)
    rep = coordinate_subspace_decomposition(Ideal(y1.space, gens), budget=budget)
    assert rep.components == (("y1", "y4"), ("y2", "y3")) and budget.used == 16
    monkeypatch.setattr(ideals, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="exceeded 10 reduction steps"):
        coordinate_subspace_decomposition(Ideal(y1.space, gens))


def test_decomposition_matches_the_subset_enumeration():
    """Covers grown one support at a time are the minimal covers that trying
    every subset finds, in the same order, on seeded monomial ideals in up
    to 8 variables; an ideal with a unit generator has no components."""
    rng = rng_for("cover-growth")
    sizes = set()
    for trial in range(300):
        n = rng.randint(1, 8)
        space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
        exps = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                for _ in range(rng.randint(1, 6))]
        if trial % 50 == 0:
            exps.append((0,) * n)
        rep = coordinate_subspace_decomposition(
            Ideal(space, [MultiPoly.monomial(space, e) for e in exps]))
        covers = enumerated_covers({frozenset(i for i, v in enumerate(e) if v) for e in exps})
        assert rep.torus_invariant
        assert rep.components == tuple(tuple(space.all_vars[i] for i in sorted(c))
                                       for c in covers), exps
        assert rep.dimensions == tuple(n - len(c) for c in covers)
        if trial % 50 == 0:
            assert rep.components == ()
        sizes.add(len(covers))
    assert {0, 1} < sizes and max(sizes) >= 5


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
