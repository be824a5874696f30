"""Exterior algebra, de Medeiros criteria, torus forms, discriminants."""

import itertools
from fractions import Fraction as F

import pytest
from conftest import SQRT2, rand_coeff, rand_field, rand_poly, rng_for
from oracles import merge_exterior_derivative, pullback_torus_invariant

from folichar.errors import (
    DegeneratePencil,
    InvalidInput,
    NotADistribution,
    NotTorusInvariant,
    SpaceMismatch,
    ZeroForm,
)
from folichar.foliations import PolyVectorField
from folichar.forms import (
    PolyForm,
    binary_discriminant,
    contract_field,
    contract_index,
    exterior_derivative,
    is_distribution,
    is_infinitesimal_automorphism,
    is_integrable,
    is_torus_invariant_form,
    lie_derivative,
    logarithmic_normal_form,
    proportional_forms,
    wedge,
)
from folichar.polynomials import MultiPoly, VarSpace
from folichar.scalars import NFElement

S3 = VarSpace(("x1", "x2", "x3"))
S4 = VarSpace(("x1", "x2", "x3", "x4"))
U1, U2, U3 = (MultiPoly.variable(S3, v) for v in S3.all_vars)


def dx(space, i):
    return PolyForm.basis_form(space, i)


def test_exterior_primitives():
    # d(x1 dx2) = dx1 ^ dx2
    w = dx(S3, 1) * U1
    assert exterior_derivative(w) == wedge(dx(S3, 0), dx(S3, 1))
    assert wedge(dx(S3, 0), dx(S3, 0)).is_zero()
    assert contract_index(wedge(dx(S3, 0), dx(S3, 1)), 0) == dx(S3, 1)


def test_wedge_past_top_degree_is_zero():
    s = VarSpace(("x1", "x2"))
    top = wedge(dx(s, 0), dx(s, 1))
    assert wedge(top, top).is_zero()


def test_wedge_sign_rules():
    a, b = dx(S3, 0), dx(S3, 1)
    assert wedge(a, b) == wedge(b, a) * F(-1)
    rng = rng_for("assoc-wedge")
    for _ in range(10):
        fa = dx(S3, 0) * rand_poly(rng, S3, 2)
        fb = dx(S3, 1) * rand_poly(rng, S3, 2)
        fc = dx(S3, 2) * rand_poly(rng, S3, 2)
        assert wedge(wedge(fa, fb), fc) == wedge(fa, wedge(fb, fc))


def test_exterior_derivative_matches_the_merge_loop():
    """d through wedge equals the term-by-term merge on seeded forms of every
    degree, past the top one too, in 2-4 directions (an aux variable is a
    constant to d, a doubled space differentiates its y-block)."""
    rng = rng_for("d-vs-merge")
    spaces = [VarSpace(("x1", "x2")), VarSpace(("x1", "x2")).with_aux(("t",)), S3, S4,
              VarSpace(("x1", "x2")).doubled()]
    for space in spaces:
        ndir = len(space.directions)
        for q in range(ndir + 2):
            for _ in range(4):
                terms = {idx: rand_poly(rng, space, 3) * rng.choice([1, SQRT2.gen()])
                         for idx in itertools.combinations(range(ndir), q)
                         if rng.random() < 0.7}
                w = PolyForm(space, q, terms)
                got = exterior_derivative(w)
                assert got == merge_exterior_derivative(w), (space, w)
                assert got.degree == q + 1


def test_d_squared_zero_random():
    rng = rng_for("ddzero")
    for _ in range(20):
        w = PolyForm(S3, 1)
        for i in range(3):
            w = w + dx(S3, i) * rand_poly(rng, S3, 3)
        assert exterior_derivative(exterior_derivative(w)).is_zero()
    f = rand_poly(rng, S3, 4)
    assert exterior_derivative(exterior_derivative(PolyForm.from_poly(f))).is_zero()


def test_lie_derivative_examples():
    xi = PolyVectorField(S3, [U1, MultiPoly.zero(S3), MultiPoly.zero(S3)])
    assert lie_derivative(xi, dx(S3, 0)) == dx(S3, 0)
    d1 = PolyVectorField(S3, [MultiPoly.constant(S3, 1),
                              MultiPoly.zero(S3), MultiPoly.zero(S3)])
    assert lie_derivative(d1, dx(S3, 1) * U1) == dx(S3, 1)
    assert lie_derivative(xi, PolyForm(S3, 1)).is_zero()


def test_lie_derivative_leibniz_random():
    rng = rng_for("lie-leibniz")
    for _ in range(12):
        xi = PolyVectorField(S3, [rand_poly(rng, S3, 2) for _ in range(3)])
        a = dx(S3, 0) * rand_poly(rng, S3, 2) + dx(S3, 1) * rand_poly(rng, S3, 2)
        b = dx(S3, 2) * rand_poly(rng, S3, 2)
        lhs = lie_derivative(xi, wedge(a, b))
        rhs = wedge(lie_derivative(xi, a), b) + wedge(a, lie_derivative(xi, b))
        assert lhs == rhs


def test_lie_derivative_of_a_function_is_the_field_applied():
    """L_xi f = xi(f) is a 0-form, and d commutes with L_xi on functions."""
    rng = rng_for("lie-functions")
    for n in (2, 3, 2, 3, 2, 3):
        xi = rand_field(rng, n, 2)
        g = rand_poly(rng, xi.space, 3)
        f = PolyForm.from_poly(g)
        lf = lie_derivative(xi, f)
        assert lf.degree == 0
        assert lf == PolyForm.from_poly(xi.apply(g))
        assert exterior_derivative(lf) == lie_derivative(xi, exterior_derivative(f))


def test_contract_field_is_evaluation():
    xi = PolyVectorField(S3, [U2, -U1, MultiPoly.zero(S3)])
    w = dx(S3, 0) * U1 + dx(S3, 1) * U2
    assert contract_field(w, xi).is_zero()      # x1*x2 - x2*x1
    d1 = PolyVectorField(S3, [MultiPoly.constant(S3, 1),
                              MultiPoly.zero(S3), MultiPoly.zero(S3)])
    assert contract_field(w, d1) == PolyForm.from_poly(U1)


def test_distribution_examples():
    w = dx(S3, 0) * U2 + dx(S3, 1) * U1
    assert is_distribution(w)
    s = S4
    bad = wedge(dx(s, 0), dx(s, 1)) + wedge(dx(s, 2), dx(s, 3))
    assert not is_distribution(bad)
    assert is_distribution(wedge(dx(s, 0), dx(s, 1)))
    with pytest.raises(ZeroForm):
        is_distribution(PolyForm(S3, 1))


def test_integrability_examples():
    closed = dx(S3, 0) * U1 + dx(S3, 1) * U2
    assert is_integrable(closed)
    contact = dx(S3, 2) - dx(S3, 0) * U2
    assert not is_integrable(contact)
    assert is_integrable(dx(S3, 0) + dx(S3, 1) * U1)
    s = S4
    bad = wedge(dx(s, 0), dx(s, 1)) + wedge(dx(s, 2), dx(s, 3))
    with pytest.raises(NotADistribution):
        is_integrable(bad)


def test_proportional_forms():
    w = dx(S3, 0) * U2 + dx(S3, 1) * U1
    assert proportional_forms(w * U1, w)
    assert not proportional_forms(dx(S3, 0), dx(S3, 1))
    a = dx(S3, 0) * U2 + dx(S3, 1) * U1
    b = dx(S3, 0) * (U1 * U2) + dx(S3, 1) * (U1 * U1)
    assert proportional_forms(a, b)
    with pytest.raises(ZeroForm):
        proportional_forms(a, PolyForm(S3, 1))


def test_infinitesimal_automorphism():
    d1 = PolyVectorField(S3, [MultiPoly.constant(S3, 1),
                              MultiPoly.zero(S3), MultiPoly.zero(S3)])
    assert is_infinitesimal_automorphism(d1, dx(S3, 1))
    euler1 = PolyVectorField(S3, [U1, MultiPoly.zero(S3), MultiPoly.zero(S3)])
    assert is_infinitesimal_automorphism(euler1, dx(S3, 0) * U2)
    radial = PolyVectorField(S3, [U1, U2, U3])
    contact = dx(S3, 2) - dx(S3, 0) * U2
    assert not is_infinitesimal_automorphism(radial, contact)


def test_torus_invariance():
    assert is_torus_invariant_form(dx(S3, 0) * U2 + dx(S3, 1) * U1)
    assert not is_torus_invariant_form(dx(S3, 0) + dx(S3, 1))
    assert is_torus_invariant_form(dx(S3, 0))
    # stability under monomial scaling
    w = dx(S3, 0) * U2 + dx(S3, 1) * U1
    assert is_torus_invariant_form(w * (U1 * U3 * U3))
    # invariant, though its coefficient scales by no monomial character
    sum_slot = dx(S3, 0) * (U1 + U2)
    assert is_torus_invariant_form(sum_slot)
    assert logarithmic_normal_form(sum_slot)[0].h == U1 * U1 + U1 * U2


def _x(space, idx):
    """The monomial x_I of the directions in the index tuple I."""
    return MultiPoly.monomial(space, tuple(int(i in idx) for i in range(space.nvars)))


def _rand_torus_form(rng, space, q, field):
    """A seeded q-form: h * sum lambda_I dx_I / x_I (invariant), the same
    with one slot moved by a variable, or random coefficients."""
    slots = [idx for idx in itertools.combinations(range(len(space.directions)), q)
             if rng.random() < 0.6] or [tuple(range(q))]
    kind = rng.choice(["log", "moved", "random"])
    if kind == "random":
        return PolyForm(space, q, {idx: rand_poly(rng, space, 2) * rand_coeff(rng, field)
                                   for idx in slots})
    union = tuple(sorted({i for idx in slots for i in idx}))
    h = (rand_poly(rng, space, 2, nonzero=True) * rand_coeff(rng, field)
         + rand_poly(rng, space, 1) * rand_coeff(rng, field))
    terms = {idx: h * _x(space, tuple(i for i in union if i not in idx)) * rand_coeff(rng, field)
             for idx in slots}
    if kind == "moved":
        idx = rng.choice(slots)
        terms[idx] = terms[idx] * MultiPoly.variable(space, rng.randrange(space.nvars))
    return PolyForm(space, q, terms)


def test_torus_rule_matches_the_pullback_criterion():
    """is_torus_invariant_form agrees with the pullback-and-minors criterion
    on seeded forms of degree 0-2 over a base and a doubled space, over Q and
    Q(sqrt 2), 40 draws for each.  For an invariant form of degree >= 1 the normal form gives
    lambda_I * h = c_I * x_I in every slot; otherwise it raises."""
    rng = rng_for("torus-rule")
    answers = []
    for space in (S3, VarSpace(("x1", "x2")).doubled()):
        for field in (None, SQRT2):
            for q in range(3):
                for _ in range(40):
                    w = _rand_torus_form(rng, space, q, field)
                    if w.is_zero():
                        continue
                    invariant = is_torus_invariant_form(w)
                    assert invariant == pullback_torus_invariant(w), w
                    answers.append((invariant, len(w.terms) > 1))
                    if q == 0:
                        continue
                    if not invariant:
                        with pytest.raises(NotTorusInvariant):
                            logarithmic_normal_form(w)
                        continue
                    nf, _ = logarithmic_normal_form(w)
                    assert set(nf.lambdas) == set(w.terms)
                    for idx, c in w.terms.items():
                        assert nf.h * nf.lambdas[idx] == c * _x(space, idx)
    # both answers occur, and invariance with two or more slots is not rare
    assert answers.count((True, True)) >= 30 and answers.count((False, True)) >= 30


def test_log_normal_form_examples():
    w = dx(S3, 0) * (2 * U2) + dx(S3, 1) * (3 * U1)
    nf, rep = logarithmic_normal_form(w)
    assert str(nf.h) == "x1*x2"
    assert {k: v for k, v in nf.lambdas.items()} == {(0,): F(2), (1,): F(3)}

    single = dx(S3, 0) * U2
    nf2, _ = logarithmic_normal_form(single)
    assert str(nf2.h) == "x1*x2" and nf2.lambdas == {(0,): F(1)}

    worked = dx(S3, 0) * (U2 * U3) + dx(S3, 1) * (U1 * U3)
    nf3, rep3 = logarithmic_normal_form(worked)
    assert nf3.lambdas == {(0,): F(1), (1,): F(1)}
    assert rep3.support == (0, 1) and rep3.k == 2 and rep3.q == 1
    assert rep3.hyperplanes == ("x1", "x2")
    assert rep3.witness_subspace == (0, 1) and rep3.witness_dimension == 1

    with pytest.raises(NotTorusInvariant):
        logarithmic_normal_form(dx(S3, 0) + dx(S3, 1))
    # unequal scaling weights: x2^2 dx1 + x1^2 dx2 fails the torus test
    with pytest.raises(NotTorusInvariant):
        logarithmic_normal_form(dx(S3, 0) * (U2 * U2) + dx(S3, 1) * (U1 * U1))


def test_log_normal_accepted_forms_integrable():
    """Accepted q <= n-2 forms pass the de Medeiros integrability test."""
    rng = rng_for("lognf-int")
    for _ in range(10):
        lam = [F(rng.randint(1, 4)), F(rng.randint(1, 4))]
        w = dx(S3, 0) * (lam[0] * U2 * U3) + dx(S3, 1) * (lam[1] * U1 * U3)
        nf, rep = logarithmic_normal_form(w)
        if rep.q <= 3 - 2:
            assert is_integrable(w)


def test_log_normal_form_of_the_zero_form_is_an_input_error():
    with pytest.raises(ZeroForm, match="normal form needs a nonzero form"):
        logarithmic_normal_form(dx(S3, 0) * 0)


def test_binary_discriminant():
    sabc = VarSpace(("a", "b", "c"))
    a, b, c = (MultiPoly.variable(sabc, v) for v in sabc.all_vars)
    assert binary_discriminant([a, b, c]) == b * b - 4 * a * c

    s1 = VarSpace(("x1",))
    x1 = MultiPoly.variable(s1, "x1")
    one = MultiPoly.constant(s1, 1)
    zero = MultiPoly.zero(s1)
    assert binary_discriminant([one, zero, -x1 * x1]) == 4 * x1 * x1

    spq = VarSpace(("p", "q"))
    p, q = (MultiPoly.variable(spq, v) for v in spq.all_vars)
    o = MultiPoly.constant(spq, 1)
    z = MultiPoly.zero(spq)
    assert binary_discriminant([o, z, p, q]) == -4 * p ** 3 - 27 * q * q

    with pytest.raises(DegeneratePencil):
        binary_discriminant([zero, zero, zero])


def test_binary_discriminant_of_a_linear_form_is_an_input_error():
    with pytest.raises(InvalidInput, match=r"^discriminants need degree >= 2$"):
        binary_discriminant([1, 2])


@pytest.mark.parametrize("coeff_deg", [0, 1])
def test_binary_discriminant_of_a_product_of_lines(coeff_deg):
    """prod_i (p_i u + q_i v) has discriminant prod_{i<j} (p_i q_j - p_j q_i)^2,
    also when a_0 = prod p_i vanishes and when p_i, q_i are polynomials."""
    rng = rng_for(f"disc-lines:{coeff_deg}")
    space = VarSpace(("x1", "x2"))
    one = MultiPoly.constant(space, 1)
    lead_zero = 0
    for trial in range(16):
        k = rng.randint(2, 4)
        lines = [(rand_poly(rng, space, coeff_deg, 2), rand_poly(rng, space, coeff_deg, 2,
                                                                nonzero=True))
                 for _ in range(k)]
        if trial % 2:
            lines[0] = (MultiPoly.zero(space), lines[0][1])
        coeffs = [one]
        for p, q in lines:
            coeffs = [(coeffs[j] * p if j < len(coeffs) else 0)
                      + (coeffs[j - 1] * q if j else 0) for j in range(len(coeffs) + 1)]
        expected = one
        for (p1, q1), (p2, q2) in itertools.combinations(lines, 2):
            expected = expected * (p1 * q2 - p2 * q1) ** 2
        assert binary_discriminant(coeffs) == expected
        lead_zero += coeffs[0].is_zero()
    assert lead_zero >= 8


# ---------------------------------------------------------------------------
# printing and the shared sparse-sum arithmetic


def reference_str(w):
    """The form printer as it was before forms printed coefficients through
    the polynomials' rule, kept as the reference the shared rule must match."""
    if not w.terms:
        return "0"
    names = w.space.x_vars + w.space.y_vars
    chunks = []
    for idx in sorted(w.terms):
        p = w.terms[idx]
        mono = "^".join("d" + names[i] for i in idx)
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
            lead = f"({c})" if isinstance(c, NFElement) and not c.is_rational() else str(c)
            chunks.append(f"{lead}*{mono}")
            continue
        if len(p.terms) == 1:
            chunks.append(f"{p.to_str()}*{mono}")
        else:
            chunks.append(f"({p.to_str()})*{mono}")
    return " + ".join(chunks).replace("+ -", "- ")


def rand_coeff_poly(rng, space, field, max_terms=3):
    """Often a constant (so the form prints its coefficient rule), else sparse."""
    terms = {}
    for _ in range(rng.choice([1, 1, 1, rng.randint(0, max_terms)])):
        e = [0] * space.nvars
        for _ in range(rng.choice([0, 0, rng.randint(0, 2)])):
            e[rng.randrange(space.nvars)] += 1
        terms[tuple(e)] = rand_coeff(rng, field)
    return MultiPoly(space, terms)


def rand_form(rng, space, degree, field=None):
    ndir = len(space.x_vars) + len(space.y_vars)
    slots = list(itertools.combinations(range(ndir), degree))
    return PolyForm(space, degree, {rng.choice(slots): rand_coeff_poly(rng, space, field)
                                    for _ in range(rng.randint(0, 3))})


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "Q(sqrt2)"])
def test_str_matches_reference_printer(field):
    rng = rng_for(f"form-print-{field is not None}")
    for _ in range(300):
        space = rng.choice([S3, S4, VarSpace(("x1", "x2")).doubled()])
        w = rand_form(rng, space, rng.randint(0, 3), field)
        assert str(w) == reference_str(w)
        assert repr(w) == f"<{reference_str(w)}>"


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "Q(sqrt2)"])
def test_sparse_sum_properties(field):
    rng = rng_for(f"form-sparse-sum-{field is not None}")
    for _ in range(60):
        q = rng.randint(0, 3)
        a, b = rand_form(rng, S3, q, field), rand_form(rng, S3, q, field)
        c = rand_coeff(rng, field)
        assert (a + b) - b == a
        assert not (a - a) and str(a - a) == "0"
        assert c * a == a * c
    w = dx(S3, 0)
    with pytest.raises(SpaceMismatch):
        w + dx(S4, 0)
    with pytest.raises(SpaceMismatch):
        w - dx(S4, 0)
    for op in (lambda: w + wedge(w, dx(S3, 1)), lambda: w - PolyForm.from_poly(U1)):
        with pytest.raises(ValueError, match="^cannot add forms of degree"):
            op()
    # forms take no powers and no sums with scalars
    for op in (lambda: w ** 2, lambda: w + 1, lambda: 1 - w):
        with pytest.raises(TypeError):
            op()
