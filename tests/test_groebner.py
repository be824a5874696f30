"""Groebner bases, membership, elimination, and the linear-algebra oracle."""

import os
import subprocess
import sys
from fractions import Fraction as F
from hashlib import sha256
from itertools import cycle, product
from pathlib import Path

import oracles
import pytest
from conftest import QA, QI, SQRT2, cyclic, katsura, rand_poly, rng_for
from oracles import membership_oracle, scan_reduce_poly

from folichar import ideals
from folichar.errors import BudgetExceeded, FieldMismatch, SpaceMismatch
from folichar.ideals import (
    Ideal,
    StepBudget,
    buchberger,
    eliminate,
    exact_divide,
    krull_dim_zero_check,
    normal_form,
    poly_gcd,
    radical_membership,
    rational_points,
)
from folichar.polynomials import GREVLEX, LEX, MonomialOrder, MultiPoly, VarSpace, elimination_order
from folichar.scalars import IntegerRule, NFElement, ZBetaRule, common_field, make_number_field

SXY = VarSpace(("x", "y"))
X, Y = (MultiPoly.variable(SXY, v) for v in SXY.all_vars)
SXYZ = VarSpace(("x", "y", "z"))
# b = r/2: its minimal polynomial t^2 - 1/2 is not integral
BETA = make_number_field("b", [F(-1, 2), 0, 1])
# nor is c^3 - c/3 + 1/2: its integral model is Q(6c)
CUBIC = make_number_field("c", [F(1, 2), F(-1, 3), 0, 1])


def _dense_quadrics(field):
    """Three quadrics in x, y, z whose every coefficient is c0 + c1*alpha + ...
    with all ci nonzero."""
    rng = rng_for(f"dense-{field.name}")
    monos = [e for e in product(range(3), repeat=3) if sum(e) <= 2]
    return [MultiPoly(SXYZ, {e: field.element([rng.choice([-2, -1, 1, 2, 3])
                                               for _ in range(field.degree)])
                             for e in monos}) for _ in range(3)]


def _fraction_coords(c):
    return all(type(x) is F for x in (c.coords if isinstance(c, NFElement) else (c,)))


def standard_monomials(ideal, order=GREVLEX):
    return sorted(ideals._standard_monomials(ideal, order, None), key=order.key)


@pytest.fixture
def content_calls(monkeypatch):
    """Calls of the Z[alpha] rule's content, which only that path makes."""
    calls = []
    real = ZBetaRule.content
    monkeypatch.setattr(ZBetaRule, "content",
                        staticmethod(lambda *cs: calls.append(cs) or real(*cs)))
    return calls


def test_reduced_basis_examples():
    # (x^2, xy) is already reduced under lex x > y
    I = Ideal(SXY, [X * X, X * Y])
    assert sorted(str(g) for g in I.basis(LEX)) == ["x*y", "x^2"]
    J = Ideal(SXY, [X - 1])
    assert [str(g) for g in J.basis()] == ["x - 1"]


def test_twisted_cubic():
    x, y, z = (MultiPoly.variable(SXYZ, v) for v in SXYZ.all_vars)
    I = Ideal(SXYZ, [y - x * x, z - x * x * x])
    basis = I.basis(LEX)
    assert any(g == y * y * y - z * z for g in basis)
    elim = eliminate(I, {"y", "z"})
    assert len(elim.generators) == 1
    g = elim.generators[0]
    sub = g.space
    ys, zs = MultiPoly.variable(sub, "y"), MultiPoly.variable(sub, "z")
    assert g.monic() == (ys * ys * ys - zs * zs).monic()


def test_normal_form_membership():
    I = Ideal(SXY, [X * X, X * Y])
    assert normal_form(X, I) == X            # not a member
    assert normal_form(X * X * Y, I).is_zero()
    assert normal_form(MultiPoly.zero(SXY), I).is_zero()
    assert not I.contains(X)
    assert I.contains(X * X * Y)


def test_unit_and_zero_ideals():
    assert Ideal(SXY, [X, X + 1]).is_unit()
    assert [str(g) for g in Ideal(SXY, [X, X + 1]).basis()] == ["1"]
    assert Ideal(SXY, []).is_zero()
    assert Ideal(SXY, []).contains(MultiPoly.zero(SXY))
    assert not Ideal(SXY, []).contains(X)
    # scalar generators may come from a number field
    r = SQRT2.gen()
    assert Ideal(SXY, [r]).is_unit()
    I = Ideal(SXY, [r * X, 3])
    assert I.generators[1] == MultiPoly.constant(SXY, 3) and I.is_unit()


def test_basis_is_canonical():
    rng = rng_for("canon")
    for _ in range(10):
        gens = [rand_poly(rng, SXY, 2, nonzero=True) for _ in range(3)]
        a = Ideal(SXY, gens).basis()
        rng.shuffle(gens)
        b = Ideal(SXY, gens).basis()
        assert a == b


def test_buchberger_criterion_random():
    # every product f*g with g a generator reduces to zero
    rng = rng_for("member")
    for _ in range(15):
        gens = [rand_poly(rng, SXY, 2, nonzero=True) for _ in range(2)]
        I = Ideal(SXY, gens)
        f = rand_poly(rng, SXY, 2)
        for g in gens:
            assert I.contains(f * g)


def test_radical_membership():
    I = Ideal(SXY, [X * X])
    assert radical_membership(X, I)
    assert not radical_membership(Y, I)
    J = Ideal(SXY, [X * X, Y * Y])
    assert radical_membership(X + Y, J)      # (x+y)^3 in (x^2, y^2)
    assert not J.contains(X + Y)
    for k in (1, 2, 3):
        f = (X + Y) ** k if k > 1 else X + Y
        assert radical_membership(f, J)


def test_radical_membership_answers_members_from_the_ideal_basis(w_bases):
    J = Ideal(SXY, [X * X - Y, X * Y])
    assert radical_membership(X * X * Y - Y * Y, J) and radical_membership(Y * Y, J)
    assert radical_membership(X * Y + 3 * (X * X - Y), J)
    assert not w_bases


@pytest.mark.parametrize("r", [1, SQRT2.gen()], ids=["Q", "Q(sqrt2)"])
def test_radical_membership_of_a_linear_ideal_is_membership(w_bases, r):
    # a proper ideal of linear forms is prime over Q and over Q(alpha)
    x, y, z = (MultiPoly.variable(SXYZ, v) for v in SXYZ.all_vars)
    J = Ideal(SXYZ, [x - 2 * r * y, z])
    got = [radical_membership(f, J)
           for f in (x - 2 * r * y, (x - 2 * r * y) ** 2 + y * z, y, x * y + 1, y ** 3)]
    assert got == [True, True, False, False, False] and not w_bases


def test_radical_membership_of_the_zero_and_unit_ideals(w_bases):
    zero = Ideal(SXY, [])
    assert not radical_membership(X, zero) and not radical_membership(X * Y - 1, zero)
    assert radical_membership(MultiPoly.zero(SXY), zero)
    unit = Ideal(SXY, [X, X - 1])
    assert radical_membership(Y, unit) and radical_membership(X * Y - 1, unit)
    assert not w_bases


@pytest.mark.parametrize("r", [1, SQRT2.gen()], ids=["Q", "Q(sqrt2)"])
def test_radical_membership_of_a_principal_ideal_is_division(w_bases, r):
    """(P) with repeated factors: f is in the radical iff P divides f^N, N the
    largest exponent of one variable in P, and an f that misses a variable
    of P is not.  Each answer matches Rabinowitsch's, and none builds a
    basis over (P, 1 - w*f)."""
    x, y, z = (MultiPoly.variable(SXYZ, v) for v in SXYZ.all_vars)
    d2 = VarSpace(("x1", "x2")).doubled()
    x1, x2, y1, y2 = (MultiPoly.variable(d2, v) for v in d2.all_vars)
    ptilde = x1 * y1 + r * x2 * y2  # P = sum a_i*y_i = c*ptilde, c = x1^2
    cases = [
        (x * x * (y - r), [x * (y - r), x * (y - r) * (x + 1), x + y - r, x * x, y - r],
         [True, True, False, False, False]),
        ((x + r * y) ** 3 * z, [(x + r * y) * z, x * y * z, (x + r * y) ** 2],
         [True, False, False]),
        (x1 * x1 * ptilde, [x1 * ptilde, ptilde, x1 * x1, y1],
         [True, False, False, False]),
    ]
    for P, fs, expected in cases:
        J = Ideal(P.space, [P])
        got = [radical_membership(f, J) for f in fs]
        assert got == expected == [oracles.rabinowitsch_membership(f, J) for f in fs], P
        # the "yes" answers need N > 1: f alone is not in (P)
        assert not any(J.contains(f) for f in fs)
    assert not w_bases


def test_radical_membership_still_reaches_rabinowitsch(w_bases):
    # neither linear nor principal
    J = Ideal(SXY, [X * X, X * Y])
    assert radical_membership(X, J) and w_bases == [("_w",)]
    assert not radical_membership(Y, J) and len(w_bases) == 2
    assert oracles.rabinowitsch_membership(X, J) and not oracles.rabinowitsch_membership(Y, J)


def test_radical_membership_matches_rabinowitsch_on_random_ideals(w_bases):
    rng = rng_for("radical-vs-rabinowitsch")
    seen = set()
    for _ in range(30):
        roots = [rand_poly(rng, SXYZ, rng.choice((1, 1, 2)), max_terms=3, nonzero=True)
                 for _ in range(rng.randint(0, 3))]
        J = Ideal(SXYZ, [g ** rng.randint(1, 2) for g in roots])
        candidates = [rand_poly(rng, SXYZ, 2, max_terms=3)] + roots[:1]
        candidates += [sum((rand_poly(rng, SXYZ, 1) * g for g in J.generators),
                           MultiPoly.zero(SXYZ))]
        for f in candidates:
            before = len(w_bases)
            got = radical_membership(f, J)
            assert got == oracles.rabinowitsch_membership(f, J), (J, f)
            seen.add((got, len(w_bases) > before))
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def test_elimination_keep_x_block():
    d = VarSpace(("x1", "x2")).doubled()
    x2 = MultiPoly.variable(d, "x2")
    y1 = MultiPoly.variable(d, "y1")
    elim = eliminate(Ideal(d, [x2, y1]), {"x1", "x2"})
    assert [str(g) for g in elim.generators] == ["x2"]
    consistent = eliminate(Ideal(SXY, [X - 1]), set())
    assert consistent.is_zero()


def test_krull_dim_zero():
    assert krull_dim_zero_check(Ideal(SXY, [X, Y])) == (True, 1)
    ok, dim = krull_dim_zero_check(Ideal(SXY, [X]))
    assert not ok and dim is None
    assert krull_dim_zero_check(Ideal(SXY, [X * X, Y])) == (True, 2)
    # standard monomials {1, x} as exponent tuples
    assert set(standard_monomials(Ideal(SXY, [X * X, Y]))) == {(0, 0), (1, 0)}


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_standard_monomials_of_the_zero_and_unit_ideals(order):
    # over no variables the zero ideal's quotient is the field itself
    point = Ideal(VarSpace(()), [])
    assert krull_dim_zero_check(point, order) == (True, 1)
    assert standard_monomials(point, order) == [()]
    assert krull_dim_zero_check(Ideal(SXY, []), order) == (False, None)
    unit = Ideal(SXY, [X, X + 1])
    assert krull_dim_zero_check(unit, order) == (True, 0)
    assert standard_monomials(unit, order) == []


def test_rational_points_finite():
    pts, exhaustive = rational_points([X * X - 1, Y - X], SXY)
    assert exhaustive
    got = sorted((p[0], p[1]) for p in pts)
    assert got == [(F(-1), F(-1)), (F(1), F(1))]
    # x^2 + 1 has two complex roots and no rational one
    none, sure = rational_points([X * X + 1, Y], SXY)
    assert not sure and none == []


def test_rational_points_of_degenerate_systems():
    """The empty system, an unconstrained variable and the 0-variable space:
    a variable with no eliminant is pinned to 0, and the answer is not
    exhaustive."""
    assert rational_points([], SXY) == ([{0: 0, 1: 0}], False)
    pts, exhaustive = rational_points([X - 1], SXY)
    assert (pts, exhaustive) == ([{1: 0, 0: 1}], False)
    assert list(pts[0]) == [1, 0] and all(type(v) is F for v in pts[0].values())
    assert rational_points([], VarSpace(())) == ([{}], True)


def _point_system(rng, space, npoints):
    """Generators vanishing on npoints random rational points: each is a sum
    of products, over the points, of one coordinate's difference from it."""
    n = space.nvars
    xs = [MultiPoly.variable(space, i) for i in range(n)]
    pts = [[F(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(n)] for _ in range(npoints)]
    gens = []
    for _ in range(rng.randint(max(n - 1, 1), n + 1)):
        g = MultiPoly.zero(space)
        for _ in range(rng.randint(1, 2)):
            term = MultiPoly.constant(space, rng.choice((1, -1, 2, F(1, 3))))
            for pt in pts:
                i = rng.randrange(n)
                term = term * (xs[i] - pt[i])
            g = g + term
        gens.append(g)
    return gens


def _fat_point_system(rng, space):
    """Generators in the square of the maximal ideal of a random integer
    point, some with a multiple of one coordinate's difference added: a
    point of higher multiplicity, where the kept elements of a specialized
    basis can miss one."""
    n = space.nvars
    ms = [MultiPoly.variable(space, i) - rng.randint(-1, 1) for i in range(n)]
    gens = []
    for _ in range(rng.randint(n - 1, n + 1)):
        g = ms[rng.randrange(n)] * ms[rng.randrange(n)] * rng.choice((1, 2, -1))
        if rng.random() < 0.6:
            g = g + ms[rng.randrange(n)] * rand_poly(rng, space, 1, 2)
        gens.append(g)
    return gens


def _walk_systems(rng):
    """Seeded systems in 1-4 variables, (kind, generators, space): planted
    rational points, simple or not, dense random ones (mostly unit or
    irrational), triangular ones with rational and irrational roots, and
    fewer generators than variables (positive-dimensional)."""
    for n in (1, 2, 3, 4):
        space = VarSpace(tuple(f"z{i}" for i in range(n)))
        xs = [MultiPoly.variable(space, i) for i in range(n)]
        for _ in range(30 if n < 4 else 15):
            yield "points", _point_system(rng, space, rng.randint(1, 3 if n < 4 else 2)), space
            yield "fat", _fat_point_system(rng, space), space
            yield "random", [rand_poly(rng, space, 2 if n < 4 else 1, 3) for _ in range(n)], space
            last = xs[-1]
            roots = (last - rng.randint(-2, 2)) * (last * last - rng.choice((2, 3, 5)))
            rest = [xs[i] - rand_poly(rng, space, 1, 2) * xs[i + 1] - rand_poly(rng, space, 1, 2)
                    for i in range(n - 1)]
            yield "triangular", [roots * rng.choice((1, 2))] + rest, space
            if n > 1:
                yield "under", [rand_poly(rng, space, 2, 3) for _ in range(n - 1)], space


def test_rational_points_match_the_rerun_walk():
    """The walk that specializes one lex basis lists the points, in order,
    and the exhaustive flag of the walk that computes a reduced lex basis at
    every node, on seeded systems of every kind."""
    shapes = {}
    for kind, gens, space in _walk_systems(rng_for("rational-points-walk")):
        want = oracles.rerun_rational_points(gens, space, StepBudget(10 ** 5))
        assert rational_points(gens, space, StepBudget(10 ** 5)) == want, [str(g) for g in gens]
        shapes.setdefault(kind, set()).update(
            {"unit" if want == ([], True) else "points" if want[0] else "none",
             "exhaustive" if want[1] else "partial"})  # partial: irrational or free
    assert all({"points", "partial"} <= found for found in shapes.values()), shapes
    assert "unit" in shapes["random"] and "unit" in shapes["under"]


def test_a_specialization_that_loses_the_basis_runs_buchberger_again():
    """Two walks where keeping the elements whose leading coefficient does
    not vanish is not enough.  At z1 = 0, which is no root of an eliminant
    (there is none), -z0^2*z1^2 - z0*z1 + 1 is 1, keeps nothing and would
    give the false point (0, 0).  At the root 0 of y^2 the kept elements of
    (y*x0 + x1, y^2, x0^2) miss x1, which the dropped y*x0 + x1 becomes,
    so the walk goes back to buchberger."""
    z0, z1 = (MultiPoly.variable(SXY, i) for i in range(2))
    assert rational_points([-z0 ** 2 * z1 ** 2 - z0 * z1 + 1], SXY) == ([], False)
    x0, x1, y = (MultiPoly.variable(SXYZ, i) for i in range(3))
    gens = [y * x0 + x1, y * y, x0 * x0]
    basis = buchberger(gens, LEX, None)
    assert ideals._specialize(basis, [g.substitute({2: F(0)}) for g in basis], 2) is None
    assert rational_points(gens, SXYZ) == ([{2: 0, 1: 0, 0: 0}], True)
    # without x0^2 the kept x1^2 still misses x1; x0 is then free
    assert rational_points(gens[:2], SXYZ) == ([{2: 0, 1: 0, 0: 0}], False)


def test_the_next_eliminant_is_the_univariate_element_of_least_degree():
    """At y = 1 the basis (y^2 - y, x^2*y - y, x^4 - 3*x^2 + 2*x*y - 2*x + 2*y)
    keeps two elements in x alone: x^2 - 1 and its multiple
    (x^2 - 1)*(x^2 - 2).  The first generates the eliminant; the second's
    irrational roots +-sqrt(2) solve nothing, so every point is listed."""
    gens = [Y * Y - Y, Y * X * X - Y, X ** 4 - 3 * X ** 2 - 2 * X + 2 * X * Y + 2 * Y]
    points = [{1: F(y), 0: F(x)} for y, x in ((0, -1), (0, 0), (0, 2), (1, -1), (1, 1))]
    assert rational_points(gens, SXY) == (points, True)


def test_rational_points_rejects_a_system_over_another_space():
    """(x - 1, y - 2) has the point (1, 2); over the space of x alone the
    walk runs out of variables and must not answer "no points"."""
    with pytest.raises(SpaceMismatch):
        rational_points([X - 1, Y - 2], VarSpace(("x",)))


# Step counts are deterministic, so they gate the engine's work exactly:
# a change in pair selection or reduction order shows up here.
@pytest.mark.parametrize("gens, order, length, steps", [
    (cyclic(5), GREVLEX, 20, 299),
    (katsura(4), GREVLEX, 13, 172),
    (katsura(5), GREVLEX, 22, 690),
    (katsura(3), LEX, 4, 71),
], ids=["cyclic-5", "katsura-4", "katsura-5", "katsura-3-lex"])
def test_anchor_systems_steps_and_size(gens, order, length, steps):
    runs = []
    for _ in range(2):
        I, budget = Ideal(gens[0].space, gens), StepBudget(10 ** 6)
        runs.append((I.basis(order, budget=budget), budget.used))
    assert (len(runs[0][0]), runs[0][1]) == (length, steps)
    assert runs[1] == runs[0]
    # large enough for the choice among regular divisors to change the steps
    reference = StepBudget(10 ** 6)
    assert (oracles.signature_buchberger(gens, order, reference), reference.used) == runs[0]
    assert all(normal_form(g, I, order=order).is_zero() for g in gens)


def _four_dense_quadrics():
    """Four quadrics in four variables, every monomial with a nonzero
    coefficient: a regular sequence for this seed."""
    rng = rng_for("dense-system-quadrics")
    space = VarSpace(("x1", "x2", "x3", "x4"))
    monos = [e for e in product(range(3), repeat=4) if sum(e) <= 2]
    return [MultiPoly(space, {e: F(rng.choice([-3, -2, -1, 1, 2, 3])) for e in monos})
            for _ in range(4)]


# F5's criterion, which the syzygy criterion extends, discards every J-pair
# that would reduce to 0 when the generators form a regular sequence.
@pytest.mark.parametrize("gens", [katsura(5), _four_dense_quadrics()],
                         ids=["katsura-5", "dense-4-quadrics"])
def test_regular_sequences_reduce_nothing_to_zero(gens, monkeypatch):
    results = []
    real = ideals.reduce_poly

    def counted(*args):
        r = real(*args)
        if len(args) > 6:  # a J-pair: the signature loop passes its signature
            results.append(r.is_zero())
        return r

    monkeypatch.setattr(ideals, "reduce_poly", counted)
    basis = buchberger(gens, GREVLEX, StepBudget(10 ** 6))
    assert basis == oracles.buchberger(gens, GREVLEX, None)
    assert results and not any(results)


def test_budget_boundary_on_the_integer_path():
    gens = katsura(4)
    with pytest.raises(BudgetExceeded):
        Ideal(gens[0].space, gens).basis(budget=StepBudget(171))
    assert len(Ideal(gens[0].space, gens).basis(budget=StepBudget(172))) == 13


# Over Q the engine reduces fraction-free in Z and over every Q(alpha) in
# Z[beta], beta = scale*alpha: Q(sqrt 2), Q(i) and the cubic a are their own
# integral models, while b^2 = 1/2 and the cubic c, whose minimal polynomials
# are not integral, are scaled by 2 and 6.  The divisors do not depend on the
# coefficient ring, so the same system gives the same basis in the same
# number of steps whether it is given as is, rescaled or lifted.
@pytest.mark.parametrize("gens, order, steps", [
    (cyclic(4), GREVLEX, 21),
    (cyclic(4), LEX, 44),
    (katsura(3), GREVLEX, 37),
    (katsura(3), LEX, 71),
], ids=["cyclic-4", "cyclic-4-lex", "katsura-3", "katsura-3-lex"])
def test_integer_and_field_rules_agree(gens, order, steps):
    forms = [
        gens,
        [g * c for g, c in zip(gens, cycle([F(-5, 2), F(3, 7)]))],
        *([MultiPoly(g.space, {e: K.element([c]) for e, c in g.terms.items()})
           for g in gens] for K in (SQRT2, QI, QA, BETA, CUBIC)),
    ]
    runs = []
    for form in forms:
        budget = StepBudget(10 ** 6)
        runs.append(([str(g) for g in buchberger(form, order, budget)], budget.used))
    assert runs[0][1] == steps
    assert runs[1:] == [runs[0]] * (len(forms) - 1)


# Pinned before Z[alpha] got the fraction-free rule: the digest is of the
# printed basis; every coordinate comes back a Fraction.
@pytest.mark.parametrize("field, length, steps, digest", [
    (SQRT2, 6, 32, "266240e2628369c0"),
    (QI, 6, 32, "cc0e5d72b3f3d4b7"),
    (QA, 6, 32, "b60b6d9546b8de91"),
], ids=["sqrt2", "i", "cubic"])
def test_dense_irrational_systems(field, length, steps, digest, content_calls):
    budget = StepBudget(10 ** 6)
    basis = buchberger(_dense_quadrics(field), GREVLEX, budget)
    text = "\n".join(str(g) for g in basis)
    assert (len(basis), budget.used) == (length, steps)
    assert sha256(text.encode()).hexdigest()[:16] == digest
    assert all(_fraction_coords(c) for g in basis for c in g.terms.values())
    assert content_calls


def test_budget_boundary_on_the_integral_field_path():
    gens = _dense_quadrics(SQRT2)
    with pytest.raises(BudgetExceeded):
        buchberger(gens, GREVLEX, StepBudget(31))
    assert len(buchberger(gens, GREVLEX, StepBudget(32))) == 6


def test_non_integral_minimal_polynomial_takes_the_integral_model(content_calls):
    gens = _dense_quadrics(SQRT2)
    lifted = [MultiPoly(SXYZ, {e: BETA.element([c.coords[0], 2 * c.coords[1]])
                               for e, c in g.terms.items()}) for g in gens]
    budget = StepBudget(10 ** 6)
    basis = buchberger(lifted, GREVLEX, budget)
    assert content_calls
    back = [MultiPoly(SXYZ, {e: SQRT2.element([c.coords[0], c.coords[1] / 2])
                             for e, c in g.terms.items()}) for g in basis]
    expected = StepBudget(10 ** 6)
    assert back == buchberger(gens, GREVLEX, expected)
    assert budget.used == expected.used == 32


def test_generators_from_two_fields_raise():
    with pytest.raises(FieldMismatch):
        buchberger([X - SQRT2.gen(), X - QI.gen()], GREVLEX, None)


def test_int_coefficients_beside_field_elements():
    # an int coefficient next to Q(sqrt 2) ones must not select the integer rule
    g = MultiPoly(SXY, {(1, 0): 1, (0, 1): SQRT2.gen()})
    h = MultiPoly(SXY, {(0, 2): 3, (0, 0): -1})
    assert [str(b) for b in buchberger([g, h], GREVLEX, None)] == ["x + (r)*y", "y^2 - 1/3"]


def test_radical_membership_over_an_integral_field(content_calls):
    # 1 - w*f puts rationals beside Q(sqrt 2) elements; answers and steps
    # are those of the field rule.  J's basis is built and charged in the
    # first call, and x^2 - 6 takes one reduction step against it
    r = SQRT2.gen()
    J = Ideal(SXY, [(X - r * Y) ** 2, Y * Y - 3])
    got = []
    for f in (X - r * Y, X + r * Y, X * X - 6, X * Y - 3 * r, Y - 1):
        budget = StepBudget(10 ** 6)
        got.append((radical_membership(f, J, budget=budget), budget.used))
    assert got == [(True, 6), (False, 7), (True, 9), (True, 7), (False, 5)]
    assert content_calls


@pytest.mark.parametrize("f, g, lcm, gcd, steps", [
    (X * X - Y * Y, X + Y, "x^2 - y^2", "x + y", 5),
    (X * X + 1, Y - X, "x^3 - x^2*y + x - y", "1", 5),
    (X * X * Y + X * Y * Y, 3 * X * Y - X,
     "x^2*y^2 + x*y^3 - 1/3*x^2*y - 1/3*x*y^2", "x", 9),
    (X * X - 2 * Y * Y, X * X + SQRT2.gen() * X * Y, "x^3 - 2*x*y^2", "x + (r)*y", 5),
])
def test_lcm_and_gcd(f, g, lcm, gcd, steps):
    budget = StepBudget(10 ** 6)
    got = poly_gcd([f, g], budget=budget)
    assert str(got) == gcd and budget.used == steps
    assert str(exact_divide(f * g, got).monic()) == lcm


def test_gcd_of_a_list():
    # zeros are skipped, one nonzero input is its own (monic) gcd, all zero is None
    assert poly_gcd([X - X, MultiPoly.zero(SXY)]) is None
    budget = StepBudget(10 ** 6)
    assert str(poly_gcd([MultiPoly.zero(SXY), 2 * X * Y - 4 * Y], budget=budget)) == "x*y - 2*y"
    assert budget.used == 0
    assert str(poly_gcd([X * X * Y, X * Y * Y, 3 * X * Y + X, Y])) == "1"
    assert str(poly_gcd([X * X * Y - X * Y, X * Y * Y - X * Y, 3 * X * X - 3 * X])) == "x"


def test_equal_ideals_hash_equal():
    a, b = Ideal(SXY, [X, Y]), Ideal(SXY, [X + Y, Y])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_step_budget():
    s = VarSpace(("x", "y", "z"))
    x, y, z = (MultiPoly.variable(s, v) for v in s.all_vars)
    gens = [x ** 3 * y - z * z, y ** 2 * z - x, x * y * z - y - 1]
    with pytest.raises(BudgetExceeded):
        Ideal(s, gens).basis(budget=StepBudget(4))


def test_membership_matches_oracle_sample():
    """Quick slice of the acceptance-scale oracle comparison."""
    rng = rng_for("oracle-sample")
    space = SXYZ
    for _ in range(40):
        gens = [rand_poly(rng, space, 2, nonzero=True)
                for _ in range(rng.randint(1, 3))]
        I = Ideal(space, gens)
        probes = [
            gens[0] * gens[-1],
            rand_poly(rng, space, 2),
            gens[0] + 1,
        ]
        for f in probes:
            assert I.contains(f) == membership_oracle(f, gens)


def _exact(polys):
    """Terms with coefficient types and coordinates, in dict order."""
    return [[(e, type(c), c.coords if isinstance(c, NFElement) else c)
             for e, c in g.terms.items()] for g in polys]


def _seeded_generators(rng, field):
    """Two or three random polynomials and a combination of them, so that the
    start-of-run interreduction has leads to divide; over ``field`` every
    coefficient is scaled by a random element of it."""
    gens = [rand_poly(rng, SXYZ, 2, 4, nonzero=True) for _ in range(rng.randint(2, 3))]
    gens.append(gens[0] * rand_poly(rng, SXYZ, 1, 2, nonzero=True) + gens[-1])
    if field is not None:
        gens = [MultiPoly(SXYZ, {e: c * field.element([rng.randint(-2, 2) or 1, rng.randint(-2, 2)])
                                 for e, c in g.terms.items()}) for g in gens]
    return gens


# The engine keeps each element's lead, sends back only kept elements of
# larger lead in the start-of-run worklist and shares a divisor memo across
# one run's J-pair reductions, all on packed monomials; the plain loops of
# tests/oracles.py recompute all of it on exponent tuples.  The engine must
# give the bases of the pair loop and charge the steps of the signature loop.
@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "sqrt2"])
@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order(SXYZ, [0])],
                         ids=["grevlex", "lex", "block"])
def test_cached_engine_matches_the_plain_loop(order, field, monkeypatch):
    rng = rng_for(f"plain-loop:{order.name}:{field}")
    monkeypatch.setattr(oracles, "reduce_poly", scan_reduce_poly)
    pack = ideals._packing(SXYZ, order, 8)
    interreduction_steps = 0
    for _ in range(12):
        gens = _seeded_generators(rng, field)
        ring = common_field(c for g in gens for c in g.terms.values())
        rule = IntegerRule() if ring is None else ZBetaRule(ring)
        packed = [rule.primitive(t, max(t)) for t in
                  (pack.encode(g, rule.clear(g.terms.values())) for g in gens)]
        start = [pack.decode(g) for g in packed]
        fast, slow = StepBudget(10 ** 6), StepBudget(10 ** 6)
        assert _exact(pack.decode(g) for g in ideals._interreduce(packed, pack, fast, rule)) == \
            _exact(oracles._interreduce(start, order, slow, rule))
        assert fast.used == slow.used
        interreduction_steps += fast.used

        fast, slow = StepBudget(10 ** 6), StepBudget(10 ** 6)
        ideal = Ideal(SXYZ, gens)
        basis = ideal.basis(order, budget=fast)
        plain = oracles.buchberger(gens, order, None)
        signed = oracles.signature_buchberger(gens, order, slow)
        assert _exact(basis) == _exact(plain) == _exact(signed) and fast.used == slow.used

        probe = gens[0] * gens[-1] + rand_poly(rng, SXYZ, 3)
        fast, slow = StepBudget(10 ** 6), StepBudget(10 ** 6)
        data = [(*g.leading(order), g) for g in basis]
        assert _exact([normal_form(probe, ideal, order, fast)]) == _exact(
            [scan_reduce_poly(probe, data, order, slow)])
        assert fast.used == slow.used
    assert interreduction_steps > 0


# The start-of-run worklist on its own.  x*y + y and x*y + x share a lead:
# the later one is kept first and the earlier reduces to x - y, whose lead
# divides x*y, so the kept x*y + x goes back on the worklist.
@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "sqrt2"])
def test_interreduce_returns_an_autoreduced_set(field):
    f, g = X * Y + Y, X * Y + X
    unit = F(1) if field is None else field.element([1, 1])
    rule = IntegerRule() if field is None else ZBetaRule(field)
    pack = ideals._packing(SXY, GREVLEX, 8)
    systems = [[f, g], [f, g, f], [f, g, F(-3, 2) * g], [f, g, X * f + 2 * g],
               [f, MultiPoly.constant(SXY, 5)]]
    for gens in systems:
        gens = [h * unit for h in gens]
        packed = [rule.primitive(t, max(t)) for t in
                  (pack.encode(h, rule.clear(h.terms.values())) for h in gens)]
        out = [pack.decode(h) for h in ideals._interreduce(packed, pack, StepBudget(), rule)]
        leads = [h.leading(GREVLEX)[0] for h in out]
        keys = [GREVLEX.key(e) for e in leads]
        assert keys == sorted(set(keys))
        for h, le in zip(out, leads):
            assert rule.primitive(h.terms, le) == h.terms and rule.lead(h.terms[le]) > 0
            assert not any(all(a <= b for a, b in zip(ke, e))
                           for ke in leads if ke != le for e in h.terms)
        restored = [MultiPoly(SXY, {e: rule.restore(c, 1) for e, c in h.terms.items()})
                    for h in out]
        basis = buchberger(gens, GREVLEX, StepBudget())
        assert buchberger(restored, GREVLEX, StepBudget()) == basis
        if gens[-1].is_constant():
            assert leads == [(0, 0)] and basis == [MultiPoly.constant(SXY, 1)]
        else:
            assert [str(h) for h in basis] == ["x - y", "y^2 + y"] and len(out) == 2


def _overflow_systems():
    """Systems whose exponents or degrees leave 8-bit fields: on entry, in an
    lcm or in a reduction, depending on the order."""
    s2, s6 = VarSpace(("x1", "x2")), VarSpace(tuple(f"x{i}" for i in range(1, 7)))
    s3 = VarSpace(("x1", "x2", "x3"))
    x1, x2 = (MultiPoly.variable(s2, v) for v in s2.all_vars)
    xs = [MultiPoly.variable(s6, v) for v in s6.all_vars]
    y1, y2, y3 = (MultiPoly.variable(s3, v) for v in s3.all_vars)
    return [
        [x1 ** 300 - x2],
        [xs[i] - xs[i + 1] ** 3 for i in range(5)],
        [y1 ** 200 * y2 - 1, y2 ** 255 + y3],
        [x1 - x2 ** 200, x1 ** 2 - x2],
    ]


# The tuple-keyed pair loop of tests/oracles.py is the engine before
# monomials were packed and signatures came in, and its signature loop is
# the engine's loop on exponent tuples; the packed engine must return the
# bases of both, term for term, and charge the steps of the signature loop,
# also when it has to start over wider.
@pytest.mark.parametrize("field", [None, SQRT2, QA], ids=["Q", "sqrt2", "cubic"])
@pytest.mark.parametrize("order", ["grevlex", "lex", "block"])
def test_packed_engine_matches_the_tuple_engine(order, field, monkeypatch):
    rng = rng_for(f"tuple-engine:{order}:{field}")
    widths = []
    real = ideals._packing
    monkeypatch.setattr(ideals, "_packing", lambda *a: widths.append(a[2]) or real(*a))
    systems = [_seeded_generators(rng, field) for _ in range(6)]
    for gens in _overflow_systems():
        scale = [field.element([rng.randint(1, 3), rng.randint(-2, 2)]) if field else F(1, 3),
                 F(-7, 2)]
        systems.append([g * c for g, c in zip(gens, cycle(scale))])
    for gens in systems:
        space = gens[0].space
        mono = {"grevlex": GREVLEX, "lex": LEX}.get(order) or elimination_order(space, [0])
        fast, slow = StepBudget(10 ** 6), StepBudget(10 ** 6)
        basis = _exact(buchberger(gens, mono, fast))
        assert basis == _exact(oracles.buchberger(gens, mono, None))
        assert basis == _exact(oracles.signature_buchberger(gens, mono, slow))
        assert fast.used == slow.used
    assert max(widths) > 8


def test_generators_over_two_spaces_raise():
    s2, s3 = VarSpace(("x1", "x2")), VarSpace(("x1", "x2", "x3"))
    x1, x2 = (MultiPoly.variable(s2, v) for v in s2.all_vars)
    y1, _, y3 = (MultiPoly.variable(s3, v) for v in s3.all_vars)
    with pytest.raises(SpaceMismatch):
        buchberger([x1 ** 2 + x2, y1 * y3 - 1], GREVLEX, StepBudget())
    for f, g in ((x1 ** 2, y1), (y1 * y3, x1)):
        with pytest.raises(SpaceMismatch):
            exact_divide(f, g)
    # a block order must split the variables of the space it orders
    for order in (elimination_order(s3, [0]), MonomialOrder("block", ((0,),))):
        with pytest.raises(SpaceMismatch, match="do not split the variables of"):
            buchberger([x1 ** 2 + x2], order, StepBudget())


def test_normal_form_division_and_standard_monomials_past_8_bits():
    """Normal forms, exact quotients and standard monomials whose exponents
    or degrees leave 8-bit fields match the tuple-keyed references."""
    for gens, probe in (([X ** 2 - Y], X ** 301 + Y), ([X ** 300 - Y], X ** 601 - 3 * Y)):
        ideal = Ideal(SXY, gens)
        for order in (GREVLEX, LEX):
            fast, slow = StepBudget(10 ** 6), StepBudget(10 ** 6)
            basis = ideal.basis(order)
            data = [(*g.leading(order), g) for g in basis]
            assert _exact([normal_form(probe, ideal, order, fast)]) == _exact(
                [scan_reduce_poly(probe, data, order, slow)])
            assert fast.used == slow.used
    f, g = X ** 300 - Y, X ** 200 * Y + 2
    assert exact_divide(f * g, g) == f and exact_divide(f * g, f) == g
    with pytest.raises(ValueError, match="not exact"):
        exact_divide(f * g + 1, f)
    # grevlex leads x^150 and y^130; the lex basis is x + y^130, y^19500
    big = Ideal(SXY, [X ** 150, Y ** 130 + X])
    assert krull_dim_zero_check(big) == (True, 150 * 130)
    assert standard_monomials(big)[-1] == (149, 129)
    assert standard_monomials(big, LEX) == [(0, k) for k in range(150 * 130)]


def test_has_cached_basis_reports_each_order():
    I = Ideal(SXY, [X * X - Y, X * Y])
    assert not I.has_cached_basis(LEX)
    I.basis(LEX)
    assert I.has_cached_basis(LEX)
    assert not I.has_cached_basis(GREVLEX)


# perfbench's traced run wraps every name in tracing.TARGETS and asks
# Ideal.has_cached_basis on each Ideal.basis call; it patches the package, so
# it runs in a child process
_TRACED_QUERIES = """\
from perfbench import tracing, workloads
from folichar.ideals import StepBudget
tracer = tracing.Tracer()
tracing.install(tracer)
queries = workloads.groebner_queries(0)[:3] + [
    q for q in workloads.pipeline_queries(0)
    if q.label.startswith(("classify-whole/", "eigen/"))][:6]
for q in queries:
    assert q.check(q.run(StepBudget(10 ** 6))) == [], q.label
print(tracer.counts["basis_calls"], tracer.counts["spair_reductions"])
"""


def test_traced_benchmark_queries_run():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_QUERIES], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    basis_calls, spair_reductions = map(int, proc.stdout.split())
    assert basis_calls > 0 and spair_reductions > 0
