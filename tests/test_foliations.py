"""Vector fields as foliation data: characteristic polynomial, prolongation,
singular schemes, invariance classification, Darboux search, degree bookkeeping."""

from fractions import Fraction as F

import pytest

from folichar import foliations
from folichar.errors import InvalidInput
from folichar.foliations import (
    ConstantFunction,
    EmptyVariety,
    PolyVectorField,
    ch_singular_locus,
    characteristic_polynomial,
    classify_ch_subvariety,
    darboux_search,
    hamiltonian,
    hyperplane_at_infinity,
    is_invariant,
    prolong,
    singular_scheme,
)
from folichar.ideals import Ideal, eliminate, radical_membership
from folichar.polynomials import LEX, MultiPoly, VarSpace

from conftest import SQRT2, rand_coeff, rand_field, rand_poly, rng_for
from oracles import (direct_prolongation, expanded_darboux_equations, rerun_rational_points,
                     seidenberg_count)

S2 = VarSpace(("x1", "x2"))
X1, X2 = (MultiPoly.variable(S2, v) for v in S2.all_vars)
D2 = S2.doubled()
DX1, DX2, DY1, DY2 = (MultiPoly.variable(D2, v) for v in D2.all_vars)

ROT = PolyVectorField(S2, [X2, -X1])            # x2 d1 - x1 d2
DIAG = PolyVectorField(S2, [X1, 2 * X2])        # x1 d1 + 2 x2 d2
CUSP = PolyVectorField(S2, [X1 * X1, X2])       # x1^2 d1 + x2 d2
D1 = PolyVectorField(S2, [MultiPoly.constant(S2, 1), MultiPoly.zero(S2)])


def random_field(rng, n=2, max_deg=2):
    space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
    return rand_field(rng, n, max_deg)


# ---------------------------------------------------------------------------
# characteristic polynomial


@pytest.mark.parametrize("point, expected", [
    ((1, -2), "x1^2*d1 + x1*x2*d2 + 2*x1*d1 - x2*d1 - 2*x1*d2 + x2*d2 + 3*d1 - 2*d2"),
    ((F(1, 2), F(-3, 4)),
     "x1^2*d1 + x1*x2*d2 + x1*d1 - x2*d1 - 3/4*x1*d2 + 1/2*x2*d2 + d1 - 3/8*d2"),
    ((SQRT2.gen(), 1 - SQRT2.gen()), "x1^2*d1 + x1*x2*d2 + (2*r)*x1*d1 - x2*d1"
     " + (1 - r)*x1*d2 + (r)*x2*d2 + (1 + r)*d1 + (-2 + r)*d2"),
], ids=["int", "fraction", "sqrt2"])
def test_affine_shift(point, expected):
    xi = PolyVectorField(S2, [X1 * X1 - X2, X1 * X2])
    moved = xi.affine_shift(point)
    assert str(moved) == expected
    assert all(type(c) is not int for comp in moved.components for c in comp.terms.values())
    assert moved.affine_shift([-c for c in point]) == xi


def test_affine_shift_rejects_a_float():
    with pytest.raises(TypeError):
        DIAG.affine_shift((0.5, 0))


def test_characteristic_polynomial_examples():
    assert str(characteristic_polynomial(ROT)) == "x2*y1 - x1*y2"
    assert str(characteristic_polynomial(DIAG)) == "x1*y1 + 2*x2*y2"
    assert str(characteristic_polynomial(D1)) == "y1"


def test_characteristic_polynomial_is_sum_ai_yi():
    rng = rng_for("ch-structure")
    for _ in range(25):
        n = rng.choice([2, 3])
        xi = rand_field(rng, n, 3)
        P = characteristic_polynomial(xi)
        dspace = xi.space.doubled()
        expected = MultiPoly.zero(dspace)
        for a, yidx in zip(xi.components, dspace.y_indices):
            expected = expected + a.lift_to(dspace) * MultiPoly.variable(
                dspace, dspace.all_vars[yidx]
            )
        assert P == expected
        # linear-homogeneous in the y-block
        yset = set(dspace.y_indices)
        assert set(P.homogeneous_parts(yset)) == {1}


# ---------------------------------------------------------------------------
# hamiltonian fields


def test_hamiltonian_examples():
    h = hamiltonian(DY1)
    assert [str(c) for c in h.x_components] == ["1", "0"]
    assert all(c.is_zero() for c in h.y_components)

    h = hamiltonian(DX1)
    assert all(c.is_zero() for c in h.x_components)
    assert [str(c) for c in h.y_components] == ["-1", "0"]

    h = hamiltonian(DX1 * DY1)
    assert [str(c) for c in h.x_components] == ["x1", "0"]
    assert [str(c) for c in h.y_components] == ["-y1", "0"]
    assert isinstance(h, PolyVectorField)
    assert h.components == h.x_components + h.y_components
    assert str(h) == "x1*d1 - y1*d3"


def test_hamiltonian_rejects_constants():
    with pytest.raises(ConstantFunction):
        hamiltonian(MultiPoly.constant(D2, 3))
    with pytest.raises(ConstantFunction):
        hamiltonian(MultiPoly.zero(D2))


def test_hamiltonian_annihilates_its_function():
    rng = rng_for("ham-annihilate")
    for _ in range(30):
        f = rand_poly(rng, D2, 3, max_terms=5, nonzero=True)
        if f.degree() == 0:
            continue
        assert hamiltonian(f).apply(f).is_zero()


def test_hamiltonian_leibniz_rule():
    # ham(u*f) = u*ham(f) + f*ham(u), componentwise
    rng = rng_for("ham-leibniz")
    checked = 0
    while checked < 25:
        u = rand_poly(rng, D2, 2, max_terms=4, nonzero=True)
        f = rand_poly(rng, D2, 2, max_terms=4, nonzero=True)
        if u.degree() == 0 or f.degree() == 0:
            continue
        lhs = hamiltonian(u * f)
        hu, hf = hamiltonian(u), hamiltonian(f)
        for L, a, b in zip(
            lhs.x_components + lhs.y_components,
            hu.x_components + hu.y_components,
            hf.x_components + hf.y_components,
        ):
            assert L == f * a + u * b
        checked += 1


# ---------------------------------------------------------------------------
# prolongation


def test_prolong_examples():
    pr = prolong(ROT)
    assert [str(c) for c in pr.x_components] == ["x2", "-x1"]
    assert [str(c) for c in pr.y_components] == ["y2", "-y1"]
    assert isinstance(pr, PolyVectorField)
    assert pr.components == pr.x_components + pr.y_components
    assert str(ROT) == "x2*d1 - x1*d2"
    assert str(pr) == "x2*d1 - x1*d2 + y2*d3 - y1*d4"

    pr = prolong(D1)
    assert [str(c) for c in pr.x_components] == ["1", "0"]
    assert all(c.is_zero() for c in pr.y_components)

    pr = prolong(CUSP)
    assert [str(c) for c in pr.x_components] == ["x1^2", "x2"]
    assert [str(c) for c in pr.y_components] == ["-2*x1*y1", "-y2"]


def _typed_components(field):
    return [{e: type(c) for e, c in comp.terms.items()} for comp in field.components]


def test_prolong_is_hamiltonian_of_characteristic_polynomial():
    """The prolongation matches its coordinate formula (tests/oracles.py)
    and the Hamiltonian field of P, coefficient types included."""
    rng = rng_for("prolong-ham")
    for _ in range(25):
        n = rng.choice([2, 3])
        base = rand_field(rng, n, 3)
        for xi in (base, PolyVectorField(base.space, [(SQRT2.gen() + 1) * c
                                                      for c in base.components])):
            pr, ref = prolong(xi), direct_prolongation(xi)
            assert pr == ref and _typed_components(pr) == _typed_components(ref)
            assert pr == hamiltonian(characteristic_polynomial(xi))


def test_prolong_tangency():
    # the prolonged field annihilates the characteristic polynomial
    rng = rng_for("prolong-tangency")
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        xi = rand_field(rng, n, 3)
        P = characteristic_polynomial(xi)
        assert prolong(xi).apply(P).is_zero()


def test_prolong_zero_section_restriction():
    rng = rng_for("prolong-restrict")
    for _ in range(20):
        n = rng.choice([2, 3])
        xi = rand_field(rng, n, 3)
        pr = prolong(xi)
        dspace = pr.space
        yset = set(dspace.y_indices)
        # x-components never involve y and restrict to the original components
        for comp, a in zip(pr.x_components, xi.components):
            assert not comp.involves(yset)
            assert comp.restrict_to(xi.space) == a
        # y-components are y-linear, hence vanish on the zero section
        zero_at = {idx: F(0) for idx in dspace.y_indices}
        for comp in pr.y_components:
            assert comp.substitute(zero_at).is_zero()
            if not comp.is_zero():
                assert set(comp.homogeneous_parts(yset)) == {1}


def test_prolong_zero_section_always_invariant():
    rng = rng_for("prolong-zero-section")
    for _ in range(15):
        n = rng.choice([2, 3])
        xi = rand_field(rng, n, 2)
        pr = prolong(xi)
        dspace = pr.space
        ygens = [
            MultiPoly.variable(dspace, dspace.all_vars[i]) for i in dspace.y_indices
        ]
        report = is_invariant(pr, Ideal(dspace, ygens))
        assert report.invariant


# ---------------------------------------------------------------------------
# singular schemes


def test_singular_scheme_isolated_reduced():
    ss = singular_scheme(ROT)
    assert ss.isolated and ss.reduced
    assert ss.vecdim == 1 and ss.distinct_points == 1
    assert ss.divisorial_part is None


def test_singular_scheme_nonreduced():
    ss = singular_scheme(CUSP)
    assert ss.isolated and not ss.reduced
    assert ss.vecdim == 2 and ss.distinct_points == 1
    assert ss.divisorial_part is None


def test_singular_scheme_divisorial():
    ss = singular_scheme(PolyVectorField(S2, [X1, X1]))
    assert str(ss.divisorial_part) == "x1"
    assert not ss.isolated


def _affine(rng, space, field):
    out = MultiPoly.constant(space, rand_coeff(rng, field))
    for v in space.all_vars:
        out = out + MultiPoly.variable(space, v) * rand_coeff(rng, field)
    return out


def _squared_field(rng, n, field, split):
    """Components l^e for random affine l and e in {1, 2}, the first ``split``
    of them times another affine factor: isolated zeros where some points
    are simple and some are not."""
    space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
    comps = [_affine(rng, space, field) ** rng.choice([1, 2])
             * (_affine(rng, space, field) if i < split else 1) for i in range(n)]
    if all(c.is_zero() for c in comps):
        comps[0] = MultiPoly.variable(space, 0)
    return PolyVectorField(space, comps)


# in three variables only the first component gets a second factor: the
# reference's eliminations then stay under a second, while with all three
# one of the fields took a minute
@pytest.mark.parametrize("n, field, split, count", [
    (1, None, 1, 12), (2, None, 2, 12), (3, None, 1, 8), (2, SQRT2, 2, 6),
])
def test_point_count_matches_seidenberg(n, field, split, count):
    """distinct_points and reduced agree with the radical taken through
    squarefree univariate eliminants."""
    rng = rng_for(f"squared-scheme:{n}:{field}")
    isolated = nonreduced = 0
    for _ in range(count):
        ss = singular_scheme(_squared_field(rng, n, field, split))
        if not ss.isolated:
            assert ss.distinct_points is None and ss.reduced is None
            continue
        isolated += 1
        distinct = seidenberg_count(ss.ideal)
        assert ss.distinct_points == distinct
        assert ss.reduced == (distinct == ss.vecdim)
        nonreduced += not ss.reduced
    assert isolated >= count // 2 and nonreduced >= 1


def test_isolated_scheme_skips_the_gcd(monkeypatch):
    """For n >= 2 a common factor of the components would cut a hypersurface
    out of V(I), so an isolated scheme has no divisorial part and no gcd is
    computed; a planted common line and n = 1 still report one."""
    calls = []
    real = foliations.poly_gcd
    monkeypatch.setattr(foliations, "poly_gcd",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    rng = rng_for("isolated-gcd")
    isolated = 0
    for n in (2, 3):
        for _ in range(6):
            before = len(calls)
            ss = singular_scheme(_squared_field(rng, n, None, 1))
            if ss.isolated:
                isolated += 1
                assert len(calls) == before and ss.divisorial_part is None
    assert isolated >= 8

    line = X1 - 2 * X2 + 1
    planted = singular_scheme(PolyVectorField(S2, [line * X1, line * (X2 - 3)]))
    assert not planted.isolated and str(planted.divisorial_part) == "x1 - 2*x2 + 1"
    s1 = VarSpace(("x1",))
    x = MultiPoly.variable(s1, "x1")
    single = singular_scheme(PolyVectorField(s1, [2 * x * x - 2 * x]))
    assert single.isolated and str(single.divisorial_part) == "x1^2 - x1"
    assert len(calls) == 2


def test_ch_singular_locus_trio():
    rep = ch_singular_locus(DIAG)
    assert rep.smooth_away_from_zero_section and rep.consistent
    gens = {str(g) for g in rep.jacobian_ideal.generators}
    assert gens == {"x1*y1 + 2*x2*y2", "y1", "2*y2", "x1", "2*x2"}

    assert not ch_singular_locus(CUSP).smooth_away_from_zero_section
    assert ch_singular_locus(D1).smooth_away_from_zero_section


def test_ch_singular_verdict_matches_rabinowitsch():
    """The verdict read from I + (det D(xi)) is the definition: every y_i in
    the radical of the Jacobian ideal, isolated or not."""
    rng = rng_for("ch-sing-rabinowitsch")
    fields = [DIAG, ROT, CUSP, D1, PolyVectorField(S2, [X1, X1]),
              PolyVectorField(S2, [X1 * X2, X1 * (X1 + 1)])]
    fields += [rand_field(rng, 2, 2) for _ in range(12)]
    fields += [_squared_field(rng, 2, None, 1) for _ in range(4)]
    seen = set()
    for xi in fields:
        rep = ch_singular_locus(xi)
        jac = rep.jacobian_ideal
        expected = all(radical_membership(MultiPoly.variable(jac.space, y), jac)
                       for y in jac.space.y_vars)
        assert rep.smooth_away_from_zero_section == expected and rep.consistent
        seen.add((rep.scheme.isolated, expected))
    assert seen == {(True, True), (True, False), (False, False)}


# ---------------------------------------------------------------------------
# invariance and classification


def test_is_invariant_examples():
    assert is_invariant(DIAG, Ideal(S2, [X2])).invariant
    rep = is_invariant(ROT, Ideal(S2, [X2]))
    assert not rep.invariant
    # certificate shows the failing generator and its nonzero remainder
    bad = [c for c in rep.certificates if not c.remainder.is_zero()]
    assert bad and str(bad[0].image) == "-x1"

    pr = prolong(DIAG)
    assert is_invariant(pr, Ideal(D2, [DX2, DY1])).invariant


def test_is_invariant_skips_zero_generators():
    rep = is_invariant(DIAG, Ideal(S2, [MultiPoly.zero(S2), X2]))
    assert rep.invariant and [str(c.generator) for c in rep.certificates] == ["x2"]


def test_is_invariant_rejects_unit_ideal():
    with pytest.raises(EmptyVariety):
        is_invariant(DIAG, Ideal(S2, [MultiPoly.constant(S2, 1)]))


def test_classify_trichotomy_table():
    P = characteristic_polynomial(DIAG)
    cases = [
        (Ideal(D2, [DY1, DY2]), "ZeroSection"),
        (Ideal(D2, [DX1, DX2]), "FiberOverSingularPoint"),
        (Ideal(D2, [DX2, DY1]), "QuasiMinimalityViolation"),
        (Ideal(D2, [P]), "WholeCharVariety"),
    ]
    for J, tag in cases:
        c = classify_ch_subvariety(DIAG, J)
        assert c.tag == tag, f"{tag}: got {c.tag}"
        assert c.certificate is not None
    fiber = classify_ch_subvariety(DIAG, Ideal(D2, [DX1, DX2]))
    assert fiber.point == (F(0), F(0))


def test_classify_builds_rabinowitsch_bases_only_for_a_first_no(w_bases):
    """Members of J, linear J and principal J are answered from J's own
    basis, so the linear shapes, the violation (x2 against (P)) and (P)
    build no Rabinowitsch basis.  The nonlinear, non-principal
    (x1, x2)*(y1, y2) builds one for the first y_i and one for the first
    a_i: each the first "no" of its test."""

    def built(xi, gens):
        before = len(w_bases)
        tag = classify_ch_subvariety(xi, Ideal(xi.space.doubled(), gens)).tag
        return tag, len(w_bases) - before

    for xi in (DIAG, ROT):
        assert built(xi, [DY1, DY2]) == ("ZeroSection", 0)
        assert built(xi, [DX1, DX2]) == ("FiberOverSingularPoint", 0)
    assert built(DIAG, [DX2, DY1]) == ("QuasiMinimalityViolation", 0)
    rng = rng_for("classify-rabinowitsch")
    for xi in (DIAG, ROT, rand_field(rng, 2, 2), rand_field(rng, 3, 2)):
        assert built(xi, [characteristic_polynomial(xi)]) == ("WholeCharVariety", 0)
    xi = PolyVectorField(S2, [X1, X1 * X1 - 3 * X2])
    crossed = [DX1 * DY1, DX1 * DY2, DX2 * DY1, DX2 * DY2]
    assert built(xi, crossed) == ("QuasiMinimalityViolation", 2)


def test_classify_fiber_over_a_line_of_zeros_reports_the_residual():
    """x1*d1 + x1*d2 vanishes on the whole line x1 = 0, so V(x1) lies over
    no single point: the fiber tag carries the residual ideal in x instead."""
    xi = PolyVectorField(S2, [X1, X1])
    c = classify_ch_subvariety(xi, Ideal(D2, [DX1]))
    assert c.tag == "FiberOverSingularPoint" and c.point is None
    assert c.residual.space == S2 and c.residual.generators == (X1,)


def test_classify_negative_tags():
    assert classify_ch_subvariety(DIAG, Ideal(D2, [DX1 - 1])).tag == "NotContained"
    assert (
        classify_ch_subvariety(DIAG, Ideal(D2, [DX1, DX2, DY1 + DY2 * DY2])).tag
        == "NotYHomogeneous"
    )
    assert (
        classify_ch_subvariety(DIAG, Ideal(D2, [DY1, DY2, DX1 - DX2])).tag
        == "NotInvariant"
    )
    unit = classify_ch_subvariety(DIAG, Ideal(D2, [MultiPoly.constant(D2, 1)]))
    assert unit.tag == "EmptyVariety"


def test_projection_of_invariant_subvariety_is_invariant():
    # eliminating the y-block from a prolongation-invariant ideal leaves an
    # ideal stable under the base field
    fixtures = [
        (DIAG, Ideal(D2, [DX1, DY2])),
        (DIAG, Ideal(D2, [DX2, DY1])),
        (DIAG, Ideal(D2, [DX1, DX2])),
        (ROT, Ideal(D2, [DX1 * DX1 + DX2 * DX2, DY1 * DY1 + DY2 * DY2])),
    ]
    for xi, J in fixtures:
        pr = prolong(xi)
        assert is_invariant(pr, J).invariant
        projected = eliminate(J, [D2.all_vars[i] for i in D2.x_indices])
        restricted = Ideal(S2, [g.restrict_to(S2) for g in projected.generators])
        if restricted.generators:
            assert is_invariant(xi, restricted).invariant


# ---------------------------------------------------------------------------
# Darboux search


def test_darboux_diagonal_field():
    rep = darboux_search(DIAG, 1, 0)
    got = sorted((str(p.polynomial), str(p.cofactor)) for p in rep.pairs)
    assert got == [("x1", "1"), ("x2", "2")]
    assert rep.complete


def test_darboux_rotation_first_integral():
    rep = darboux_search(ROT, 2, 1)
    got = sorted((str(p.polynomial), str(p.cofactor)) for p in rep.pairs)
    assert got == [("x1^2 + x2^2", "0")]


@pytest.mark.parametrize("xi", [ROT, PolyVectorField(S2, [X2, 2 * X1])],
                         ids=["x2 +- i*x1", "x2 +- sqrt2*x1"])
def test_darboux_irrational_lines_leave_the_search_incomplete(xi):
    """Both fields have two invariant lines with irrational slopes, so the
    empty rational answer must not claim completeness."""
    rep = darboux_search(xi, 1, 0)
    assert rep.pairs == [] and not rep.complete


def test_darboux_bound_zero_is_empty():
    rep = darboux_search(DIAG, 0, 0)
    assert rep.pairs == [] and rep.complete


@pytest.mark.parametrize("max_deg, max_cofactor_deg", [(-1, 0), (1, -3)])
def test_darboux_rejects_negative_bounds(max_deg, max_cofactor_deg):
    with pytest.raises(InvalidInput, match="nonnegative"):
        darboux_search(ROT, max_deg, max_cofactor_deg)


def test_darboux_point_that_misses_its_branch_is_a_defect(monkeypatch):
    """Every point that rational_points lists solves its branch's equations,
    the x-coefficients of xi(g) - c*g, so a pair failing xi(g) = c*g is a
    defect to raise, not a pair to drop from a complete answer."""
    def all_sevens(gens, space, budget=None):
        return [dict.fromkeys(range(space.nvars), F(7))], True

    monkeypatch.setattr(foliations, "rational_points", all_sevens)
    with pytest.raises(RuntimeError, match="does not solve its Darboux branch"):
        darboux_search(ROT, 1, 0)


def _planted_line_field(rng, n):
    """x1 + a*x2 is invariant with a cofactor of degree <= 1."""
    space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
    xs = [MultiPoly.variable(space, v) for v in space.x_vars]
    a = rand_coeff(rng)
    rest = [xs[0] * rand_poly(rng, space, 1) + rand_poly(rng, space, 2) for _ in range(n - 1)]
    first = rand_poly(rng, space, 1, nonzero=True) * (xs[0] + a * xs[1]) - a * rest[0]
    return PolyVectorField(space, [first] + rest)


def _planted_conic_field(rng):
    """x2^2 - q*x1^2 is invariant: A * (dQ/dx2, -dQ/dx1) + Q * (w1, w2)."""
    conic = X2 * X2 - rng.choice((2, 3, 5)) * X1 * X1
    amp = rand_poly(rng, S2, 1, nonzero=True)
    return PolyVectorField(S2, [amp * conic.partial(1) + rand_coeff(rng) * conic,
                                -amp * conic.partial(0) + rand_coeff(rng) * conic])


def test_darboux_branches_match_the_expanded_equations(monkeypatch):
    """Each branch's system, read off xi(g) - c*g with the unknowns as
    auxiliary variables, is the equation set the term-by-term expansion
    gives, on seeded planar and 3-D fields and planted line and conic fields."""
    rng = rng_for("darboux-equations")
    fields = [DIAG, ROT, CUSP, _planted_conic_field(rng), _planted_conic_field(rng),
              _planted_line_field(rng, 2), _planted_line_field(rng, 3)]
    fields += [rand_field(rng, n, 2) for n in (2, 2, 3)]
    systems = []

    def record(gens, space, **kwargs):  # the equations only: solve nothing
        systems.append((gens, space))
        return [], True

    monkeypatch.setattr(foliations, "rational_points", record)
    for xi in fields:
        max_deg, cap = 2, max(xi.degree() - 1, 0)
        systems.clear()
        darboux_search(xi, max_deg, 1)
        monos = foliations._monomials_up_to(xi.space, max_deg)
        c_monos = foliations._monomials_up_to(xi.space, min(1, cap))
        leads = sorted((m for m in monos if any(m)), key=LEX.key, reverse=True)
        assert len(systems) == len(leads)
        for lead, (gens, uspace) in zip(leads, systems):
            unknowns = [m for m in monos if LEX.key(m) < LEX.key(lead)]
            want = expanded_darboux_equations(xi, lead, unknowns, c_monos, uspace)
            assert len(gens) == len(want) and set(gens) == set(want), (xi, lead)


def test_darboux_search_matches_the_rerun_walk(monkeypatch):
    """With rational_points replaced by the reference walk, which computes a
    reduced lex basis at every node, the search reports the same pairs and
    the same complete flag, on seeded planar and 3-D fields and planted line
    and conic fields."""
    rng = rng_for("darboux-rerun-walk")
    fields = [DIAG, ROT, CUSP, PolyVectorField(S2, [X2, 2 * X1])]
    fields += [_planted_conic_field(rng) for _ in range(2)]
    fields += [_planted_line_field(rng, n) for n in (2, 2, 3)]
    fields += [rand_field(rng, 2, 2) for _ in range(4)] + [rand_field(rng, 3, 1) for _ in range(2)]
    runs = []
    for walk in (foliations.rational_points, rerun_rational_points):
        monkeypatch.setattr(foliations, "rational_points", walk)
        runs.append([darboux_search(xi, 2, 1) for xi in fields])
    assert runs[0] == runs[1]
    assert any(r.pairs for r in runs[0]) and any(r.complete for r in runs[0])
    assert not all(r.complete for r in runs[0])


def test_darboux_pairs_reverify():
    rng = rng_for("darboux-reverify")
    fields = [DIAG, ROT, CUSP]
    for _ in range(5):
        fields.append(rand_field(rng, 2, 1))
    for xi in fields:
        rep = darboux_search(xi, 2, max(xi.degree() - 1, 0))
        for pair in rep.pairs:
            g, c = pair.polynomial, pair.cofactor
            assert g.degree() >= 1
            assert (xi.apply(g) - c * g).is_zero()
            # monic normalization in the leading coefficient
            assert g.leading(LEX)[1] == 1


# ---------------------------------------------------------------------------
# hyperplane at infinity


def test_hyperplane_at_infinity_table():
    radial = hyperplane_at_infinity(PolyVectorField(S2, [X1, X2]))
    assert (radial.invariant, radial.projective_degree) == (False, 0)
    assert radial.affine_degree == 1

    rot = hyperplane_at_infinity(ROT)
    assert (rot.invariant, rot.projective_degree) == (True, 1)
    assert rot.radial_factor is None

    mixed = hyperplane_at_infinity(
        PolyVectorField(S2, [1 + X1 * X1, X1 * X2])
    )
    assert (mixed.invariant, mixed.projective_degree) == (False, 1)
    assert str(mixed.radial_factor) == "x1"

    diag = hyperplane_at_infinity(DIAG)
    assert (diag.invariant, diag.projective_degree) == (True, 1)


def test_hyperplane_at_infinity_in_one_variable():
    """Radial means a top part h*x1 with h a polynomial: x1^2*d1 is radial
    (h = x1), the constant field d1 is not."""
    s1 = VarSpace(("x1",))
    x1 = MultiPoly.variable(s1, "x1")
    rep = hyperplane_at_infinity(PolyVectorField(s1, [x1 * x1]))
    assert (rep.invariant, rep.projective_degree, str(rep.radial_factor)) == (False, 1, "x1")
    rep = hyperplane_at_infinity(PolyVectorField(s1, [MultiPoly.constant(s1, 1)]))
    assert rep == (True, 0, 0, None)
