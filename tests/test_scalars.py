"""Rational univariate helpers and simple number-field arithmetic."""

import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folichar.errors import (
    FieldMismatch,
    IrreducibilityUnattested,
    NotSquarefree,
    RationalRootFound,
    ReducibleDetected,
)
from folichar.scalars import (
    IntegerRule,
    NFElement,
    NumberField,
    ZBetaRule,
    _quadratic_factor,
    make_number_field,
    upoly_divmod,
    upoly_gcd,
    upoly_rational_roots,
    upoly_squarefree_part,
    upoly_trim,
    zrank,
)

from oracles import enumerated_rational_roots, shift_reduce_powers, upoly_eval, upoly_mul

coeff = st.fractions(min_value=-30, max_value=30, max_denominator=6)
upoly = st.lists(coeff, min_size=1, max_size=6).map(lambda c: upoly_trim(c))


@settings(max_examples=120, deadline=None)
@given(upoly, upoly)
def test_divmod_reconstructs(f, g):
    if not g:
        return
    q, r = upoly_divmod(f, g)
    qg_r = list(upoly_mul(q, g)) + [0] * len(r)
    for i, c in enumerate(r):
        qg_r[i] += c
    assert upoly_trim(qg_r) == f
    assert len(r) < len(g) or not r


@settings(max_examples=80, deadline=None)
@given(upoly, upoly)
def test_gcd_divides_both(f, g):
    d = upoly_gcd(f, g)
    if not d:
        assert not f and not g
        return
    for p in (f, g):
        _, r = upoly_divmod(p, d)
        assert not r


def test_rational_roots_cubic():
    # (t - 1)(t - 2)(t + 3) = t^3 - 7t + 6
    roots = upoly_rational_roots((F(6), F(-7), F(0), F(1)))
    assert sorted(roots) == [F(-3), F(1), F(2)]
    assert not upoly_rational_roots((F(1), F(0), F(1)))


def test_rational_roots_match_the_enumeration_of_every_candidate():
    """Seeded products of rational linear factors, some repeated, some at 0,
    times a factor with no rational root: the roots and their order are
    those of trying every candidate as a Fraction."""
    rng = random.Random("rational-roots")
    for _ in range(60):
        p = (F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 3, 7])),)
        for _ in range(rng.randint(1, 5)):
            root = F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))
            for _ in range(rng.choice([1, 1, 2, 3])):
                p = upoly_mul(p, (-root, F(1)))
        if rng.random() < 0.5:
            p = upoly_mul(p, (F(rng.choice([2, 3, 5])), F(0), F(1)))
        assert upoly_rational_roots(p) == enumerated_rational_roots(p)
    assert upoly_rational_roots((F(0), F(0), F(-1, 2), F(1, 4))) == [F(0), F(2)]


def test_squarefree_part():
    # (t + 1)^2 -> t + 1 up to scalar
    part = upoly_squarefree_part((F(1), F(2), F(1)))
    assert upoly_eval(part, F(-1)) == 0 and len(part) == 2


def test_field_construction_screens():
    K = make_number_field("r", [F(-2), F(0), F(1)])
    assert K.degree == 2
    with pytest.raises(RationalRootFound):
        make_number_field("s", [F(-1), F(0), F(1)])
    with pytest.raises(NotSquarefree):
        make_number_field("u", [F(1), F(2), F(1)])
    # t^4 + 4 = (t^2 - 2t + 2)(t^2 + 2t + 2): caught by the quartic screen
    with pytest.raises(ReducibleDetected):
        make_number_field("q", [F(4), F(0), F(0), F(0), F(1)])
    # irreducible quartic passes the same screen
    assert make_number_field("w", [F(-2), F(0), F(0), F(0), F(1)]).degree == 4
    with pytest.raises(IrreducibilityUnattested):
        make_number_field("v", [F(-2), F(0), F(0), F(0), F(0), F(1)])
    assert make_number_field(
        "v", [F(-2), F(0), F(0), F(0), F(0), F(1)], assume_irreducible=True
    ).degree == 5


@pytest.mark.parametrize("name, min_poly, factors, scale", [
    ("a", [4, 0, 0, 0, 1], "(a^2 - 2*a + 2) * (a^2 + 2*a + 2)", 1),
    ("b", upoly_mul((F(3), F(1), F(1)), (F(5), F(-2), F(1))),
     "(b^2 - 2*b + 5) * (b^2 + b + 3)", 1),
    ("c", [F(1, 4), 0, 0, 0, 1], "(c^2 - 4*c + 8) * (c^2 + 4*c + 8)", 4),
], ids=["t^4+4", "planted", "t^4+1/4"])
def test_quartic_screen_names_factor_and_cofactor(name, min_poly, factors, scale):
    with pytest.raises(ReducibleDetected) as exc:
        make_number_field(name, min_poly)
    assert str(exc.value) == (f"min_poly factors as {factors} after clearing "
                              f"denominators (scale {scale})")


@pytest.mark.parametrize("min_poly", [
    (-2, 0, 1), (1, 0, 1), (1, -3, 0, 1),
    (F(1, 3), F(1, 2), 0, 1), (F(-2, 7), F(1, 5), F(-3, 4), 0, 1),
], ids=["sqrt2", "i", "cubic", "cubic-sixths", "quartic-non-integral"])
def test_reduction_table_matches_the_shift_loop(min_poly):
    """alpha^d..alpha^(2d-2) as remainders of t^k equal the shift-and-subtract
    table, held as ints exactly when the minimal polynomial is integral."""
    field = NumberField("a", min_poly)
    for field in {field, field.model}:
        assert field._red == tuple(shift_reduce_powers(field.min_poly))
        kind = int if field.integral else F
        assert {type(x) for row in field._red for x in row} == {kind}
        assert all(len(row) == field.degree for row in field._red)


def test_quartic_screen_over_constant_term_divisors():
    # the norm bound of a^4 - 1009 is about 1,000: a walk over every
    # constant term up to the bound took seconds, its divisors take none
    assert make_number_field("a", [F(-1009), F(0), F(0), F(0), F(1)]).degree == 4
    rng = random.Random(5)
    planted = 0
    while planted < 40:
        p, q, r, s = (rng.randint(-12, 12) for _ in range(4))
        # two distinct monic quadratics without rational roots
        if (p, q) == (r, s) or any(
            isqrt(max(b * b - 4 * c, 0)) ** 2 == b * b - 4 * c
            for b, c in ((p, q), (r, s))
        ):
            continue
        planted += 1
        quartic = upoly_mul((F(q), F(p), F(1)), (F(s), F(r), F(1)))
        with pytest.raises(ReducibleDetected):
            make_number_field("a", quartic)


def _quadratic_factor_by_walk(ints):
    """Reference screen: every pp in [-2B, 2B] against every divisor qq <= B."""
    bound = isqrt(sum(c * c for c in ints)) + 1
    qqs = [q for q in range(-bound, bound + 1) if q and ints[0] % q == 0]
    for pp in range(-2 * bound, 2 * bound + 1):
        for qq in qqs:
            quot = [0, 0, ints[4]]
            quot[1] = ints[3] - pp * quot[2]
            quot[0] = ints[2] - pp * quot[1] - qq * quot[2]
            if (ints[1] == pp * quot[0] + qq * quot[1]
                    and ints[0] == qq * quot[0]):
                return (qq, pp, 1), tuple(quot)
    return None


def test_quartic_screen_solves_for_the_linear_coefficient():
    # the norm bound of a^4 - 100003 is about 100,000: walking pp over
    # [-2B, 2B] took seconds, solving for pp from each divisor takes none
    assert make_number_field("a", [F(-100003), F(0), F(0), F(0), F(1)]).degree == 4
    rng = random.Random(17)
    for k in range(300):
        if k % 3 == 2:
            ints = tuple(rng.randint(-9, 9) for _ in range(4)) + (1,)
        else:
            p, q, r = (rng.randint(-6, 6) for _ in range(3))
            # half the planted products share their constant term (s == qq)
            s = q if k % 3 == 1 else rng.randint(-6, 6)
            ints = (q * s, p * s + q * r, q + s + p * r, p + r, 1)
        if ints[0]:
            hit = _quadratic_factor(ints)
            assert hit == _quadratic_factor_by_walk(ints), ints
            if hit:  # an integer factorisation, as the walk gives
                assert {type(c) for part in hit for c in part} == {int}, ints


@pytest.fixture(scope="module")
def sqrt2():
    return make_number_field("r", [F(-2), F(0), F(1)])


def test_nf_arithmetic(sqrt2):
    r = sqrt2.gen()
    assert r * r == 2
    assert (1 + r).inverse() == r - 1          # (1+r)(r-1) = r^2 - 1 = 1
    assert (1 + r) * (r - 1) == sqrt2.one()
    assert r + 0 == r and r * 1 == r
    assert (r / r) == 1
    with pytest.raises(ZeroDivisionError):
        sqrt2.zero().inverse()


@pytest.mark.parametrize("name, min_poly, coords, text", [
    ("r", (-2, 0, 1), (0, 0), "0"),
    ("r", (-2, 0, 1), (1, 0), "1"),
    ("r", (-2, 0, 1), (-1, 0), "-1"),
    ("r", (-2, 0, 1), (0, 1), "r"),
    ("r", (-2, 0, 1), (0, -1), "-r"),
    ("r", (-2, 0, 1), (F(1, 2), F(-3, 4)), "1/2 - 3/4*r"),
    ("r", (-2, 0, 1), (-2, 1), "-2 + r"),
    ("r", (-2, 0, 1), (0, F(5, 3)), "5/3*r"),
    ("r", (-2, 0, 1), (F(-7, 3), -1), "-7/3 - r"),
    ("i", (1, 0, 1), (0, 1), "i"),
    ("i", (1, 0, 1), (0, -1), "-i"),
    ("i", (1, 0, 1), (3, -1), "3 - i"),
    ("i", (1, 0, 1), (-1, F(1, 2)), "-1 + 1/2*i"),
    ("a", (1, -3, 0, 1), (0, 0, 0), "0"),
    ("a", (1, -3, 0, 1), (0, 0, 1), "a^2"),
    ("a", (1, -3, 0, 1), (0, 0, -1), "-a^2"),
    ("a", (1, -3, 0, 1), (1, 1, 1), "1 + a + a^2"),
    ("a", (1, -3, 0, 1), (1, -1, -1), "1 - a - a^2"),
    ("a", (1, -3, 0, 1), (0, 2, F(-1, 3)), "2*a - 1/3*a^2"),
    ("a", (1, -3, 0, 1), (F(-5, 2), 0, 1), "-5/2 + a^2"),
])
def test_nf_element_printing(name, min_poly, coords, text):
    field = make_number_field(name, [F(c) for c in min_poly])
    assert str(field.element(coords)) == text
    # Z[alpha] elements carry int coordinates and print the same
    if all(F(c).denominator == 1 for c in coords):
        assert str(NFElement(field, tuple(map(int, coords)))) == text


def test_nf_field_axioms_random(sqrt2):
    import random
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (
            sqrt2.element([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)])
            for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a != sqrt2.zero():
            assert a * a.inverse() == sqrt2.one()


@pytest.mark.parametrize("min_poly", [
    (-2, 0, 1), (1, 0, 1), (1, -3, 0, 1), (F(-2, 7), F(1, 5), F(-3, 4), 0, 1),
], ids=["sqrt2", "i", "cubic", "quartic-non-integral"])
def test_inverse_round_trip(min_poly):
    """a * a^-1 = 1, for Fraction coordinates and for the int coordinates of
    Z[beta] that ZBetaRule.primitive inverts; a rational element's inverse
    has Fraction coordinates either way."""
    K = make_number_field("a", min_poly)
    rng = random.Random(str(min_poly))
    for field, draw in ((K, lambda: F(rng.randint(-6, 6), rng.randint(1, 4))),
                        (K.model, lambda: rng.randint(-9, 9))):
        for _ in range(20):
            a = NFElement(field, tuple(draw() for _ in range(field.degree)))
            if a:
                assert a * a.inverse() == field.one()
        for q in (3, -2, F(-5, 4)):  # a rational element inverts as a Fraction
            inv = NFElement(field, (q,) + (0,) * (field.degree - 1)).inverse()
            assert inv == field.from_rational(1 / F(q))
            assert all(type(c) is F for c in inv.coords)


@pytest.mark.parametrize("min_poly", [(-2, 0, 1), (F(-2, 7), F(1, 5), F(-3, 4), 0, 1)],
                         ids=["sqrt2", "quartic-non-integral"])
def test_division_by_an_element_and_negative_powers_use_its_inverse(min_poly):
    """q / r for a Fraction or int q, and r ** -k, are products with r^-1."""
    K = make_number_field("a", min_poly)
    rng = random.Random(str(min_poly))
    elements = [K.gen(), K.gen() + 1] + [
        K.element([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(K.degree)])
        for _ in range(10)]
    for r in filter(None, elements):
        inv = r.inverse()
        assert F(2, 3) / r == inv * F(2, 3) and 3 / r == inv * 3
        for k in (1, 2, 3):
            assert r ** -k == inv ** k
        assert r ** -2 * r ** 2 == K.one()


def test_inversion_finds_a_factor_of_the_minimal_polynomial():
    # (t^2 + 1)(t^3 - 2) has no rational root, so it passes the screens
    K = make_number_field("a", (-2, 0, -2, 1, 0, 1), assume_irreducible=True)
    a = K.gen()
    with pytest.raises(ReducibleDetected) as exc:
        (a ** 2 + 1).inverse()
    assert str(exc.value) == ("minimal polynomial of a is reducible: "
                              "gcd a^2 + 1 found during inversion")
    assert str((a ** 3 + a - 2).inverse()) == "1/2*a^2"


def test_int_coordinates_beside_fraction_coordinates(sqrt2):
    for coords in [(3, 0), (1, -2), (0, 5)]:
        a, b = NFElement(sqrt2, coords), sqrt2.element(coords)
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
    # the public constructors give Fraction coordinates
    for x in (sqrt2.element([1, 2]), sqrt2.from_rational(3), sqrt2.coerce(3),
              sqrt2.coerce(F(1, 2)), sqrt2.gen(), sqrt2.one()):
        assert all(type(c) is F for c in x.coords)
    # Z[r] arithmetic keeps int coordinates, with the values of field arithmetic
    u, v = NFElement(sqrt2, (1, 2)), NFElement(sqrt2, (3, -1))
    fu, fv = sqrt2.element(u.coords), sqrt2.element(v.coords)
    for w, expected in ((u + v, fu + fv), (u - v, fu - fv), (u * v, fu * fv),
                        (-u, -fu), (u * 3, fu * 3), (3 * u, 3 * fu), ((u * 6) // 3, fu * 2)):
        assert w == expected and all(type(c) is int for c in w.coords)
    assert u / 3 == fu / 3 == sqrt2.element([F(1, 3), F(2, 3)])
    assert all(type(c) is F for c in (u / 3).coords + (fu * fv).coords + (fu * 3).coords)
    # a minimal polynomial that is not integral: products leave Z[b]
    beta = make_number_field("b", [F(-1, 2), 0, 1])
    assert not beta.integral and sqrt2.integral
    p = NFElement(beta, (0, 1)) * NFElement(beta, (0, 1))
    assert p == F(1, 2) and all(type(c) is F for c in p.coords)


@pytest.mark.parametrize("min_poly", [[-2, 0, 1], [1, 0, 1], [1, -3, 0, 1]],
                         ids=["sqrt2", "i", "cubic"])
def test_norm_cofactor_makes_a_positive_rational_integer(min_poly):
    K = make_number_field("a", min_poly)
    rule = ZBetaRule(K)
    rng = random.Random(str(min_poly))
    for _ in range(30):
        c, tail = rule.clear([K.element([F(rng.randint(-6, 6), rng.randint(1, 4))
                                         for _ in range(K.degree)]), K.gen() + 2])
        if not c:
            continue
        # the norm cofactor of the lead c, then division by the content
        prim = rule.primitive({1: c, 0: tail}, 1)
        lead = prim[1]
        assert type(rule.lead(lead)) is int and rule.lead(lead) > 0 and lead.is_rational()
        assert all(type(x) is int for x in c.coords + lead.coords + prim[0].coords)
        assert prim[0] * c == lead * tail and rule.content(*prim.values()) == 1
        assert rule.content(c // rule.content(c)) == 1
        assert rule.content(c * 6) == 6 * rule.content(c)
    # Fraction coordinates and rationals reach the rule only through clear
    half, three = rule.clear([K.element([F(1, 2)]), F(3)])
    assert (half, three) == (1, 6) and all(type(x) is int for x in half.coords + three.coords)
    assert IntegerRule.clear([F(3)]) == [3] and IntegerRule.lead(3) == 3


@pytest.mark.parametrize("min_poly, scale, model", [
    ([-2, 0, 1], 1, None),
    ([1, -3, 0, 1], 1, None),
    ([F(-1, 2), 0, 1], 2, (-2, 0, 1)),
    ([F(1, 2), F(-1, 3), 0, 1], 6, (108, -12, 0, 1)),
], ids=["sqrt2", "cubic", "half", "cubic-c"])
def test_integral_model(min_poly, scale, model):
    K = make_number_field("a", min_poly)
    assert K.scale == scale and (K.model is K) == (model is None)
    assert all(c.denominator == 1 for c in K.model.min_poly)
    if model is not None:
        assert K.model.min_poly == model
    # beta = scale*alpha is a root of the model's minimal polynomial
    assert not upoly_eval(K.model.min_poly, K.gen() * scale)
    rng = random.Random(str(min_poly))
    values = [K.element([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(K.degree)])
              for _ in range(5)] + [F(1, 3), 2]
    rule = ZBetaRule(K)
    out = rule.clear(values)
    assert all(c.field is K.model and all(type(x) is int for x in c.coords) for c in out)
    back = [rule.restore(c, 1) for c in out]
    assert all(b.field is K and all(type(x) is F for x in b.coords) for b in back)
    ratio = back[0] / values[0]
    assert ratio.is_rational() and ratio != 0
    assert back == [v * ratio for v in values]


def test_nf_mismatch(sqrt2):
    other = make_number_field("s", [F(-3), F(0), F(1)])
    with pytest.raises(FieldMismatch):
        sqrt2.gen() + other.gen()


def test_zrank_examples(sqrt2):
    r = sqrt2.gen()
    assert zrank([F(1), F(2)]) == 1
    assert zrank([sqrt2.one(), r]) == 2
    assert zrank([r, 2 * r]) == 1
    assert zrank([]) == 0
    # i and -i generate a rank-1 module
    Ki = make_number_field("i", [F(1), F(0), F(1)])
    i = Ki.gen()
    assert zrank([i, -i]) == 1


def test_zrank_invariances(sqrt2):
    import random
    rng = random.Random(3)
    r = sqrt2.gen()
    base = [sqrt2.one() + r, 2 * r, sqrt2.element([F(1, 2), F(-1)])]
    want = zrank(base)
    perm = list(base)
    rng.shuffle(perm)
    assert zrank(perm) == want
    assert zrank([F(7, 3) * v for v in base]) == want
    assert zrank(base + [sqrt2.zero()]) == want
