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
    make_number_field,
    upoly_divmod,
    upoly_eval,
    upoly_gcd,
    upoly_mul,
    upoly_rational_roots,
    upoly_squarefree_part,
    upoly_sub,
    upoly_trim,
    zrank,
)

coeff = st.fractions(min_value=-30, max_value=30, max_denominator=6)
upoly = st.lists(coeff, min_size=1, max_size=6).map(lambda c: upoly_trim(c))


@settings(max_examples=120, deadline=None)
@given(upoly, upoly)
def test_divmod_reconstructs(f, g):
    if not g:
        return
    q, r = upoly_divmod(f, g)
    assert upoly_trim(upoly_sub(f, upoly_mul(q, g))) == tuple(r)
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
