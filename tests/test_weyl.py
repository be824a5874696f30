"""Weyl algebra arithmetic, Bernstein/order symbols, and the identification of
the principal symbol of an order-one operator with the characteristic
polynomial of its vector-field part."""

from fractions import Fraction as F

import pytest

from folichar.errors import SpaceMismatch
from folichar.foliations import PolyVectorField, characteristic_polynomial
from folichar.parser import parse_input
from folichar.polynomials import MultiPoly, VarSpace
from folichar.scalars import NFElement
from folichar.weyl import (
    SizeMismatch,
    WeylOperator,
    ZeroOperator,
    bernstein_symbol,
    charvariety_of_principal_ideal,
    order_one_field,
    principal_symbol,
    weyl_mul,
)

from conftest import SQRT2, rand_coeff, rand_poly, rng_for


def op_space(n):
    """(x1..xn | d1..dn): an operator's term x^xe d^de is keyed xe + de."""
    return VarSpace(tuple(f"x{i + 1}" for i in range(n)),
                    tuple(f"d{i + 1}" for i in range(n)))


def x_op(n, i):
    return WeylOperator.variable(op_space(n), i)


def d_op(n, i):
    return WeylOperator.variable(op_space(n), n + i)


def field_op(xi):
    """sum a_i d_i, read as an operator from the field's session text."""
    return parse_input(f"vars: {' '.join(xi.space.x_vars)}\nxi: {xi}\n").get("xi", "op")


D1 = d_op(1, 0)
X1 = x_op(1, 0)


def rand_weyl(rng, n, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        xe = tuple(rng.randint(0, max_deg) for _ in range(n))
        de = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[xe + de] = F(rng.randint(-5, 5))
    return WeylOperator(op_space(n), terms)


# ---------------------------------------------------------------------------
# multiplication


def test_weyl_mul_examples():
    p = weyl_mul(D1, X1)  # d x = x d + 1
    assert p.terms == {(1, 1): F(1), (0, 0): F(1)}

    q = weyl_mul(weyl_mul(D1, D1), X1)  # d^2 x = x d^2 + 2 d
    assert q.terms == {(1, 2): F(1), (0, 1): F(2)}

    r = weyl_mul(X1, D1)  # already normally ordered
    assert r.terms == {(1, 1): F(1)}


def test_weyl_commutation_relations():
    n = 3
    one = WeylOperator.constant(n, 1)
    for i in range(n):
        for j in range(n):
            d = d_op(n, i)
            x = x_op(n, j)
            bracket = weyl_mul(d, x) - weyl_mul(x, d)
            if i == j:
                assert bracket == one
            else:
                assert bracket.is_zero()


def test_weyl_mul_associative():
    rng = rng_for("weyl-assoc")
    for _ in range(40):
        n = rng.choice([1, 2])
        a, b, c = (rand_weyl(rng, n) for _ in range(3))
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


def test_weyl_mul_size_mismatch():
    with pytest.raises(SizeMismatch):
        weyl_mul(D1, d_op(2, 0))


# ---------------------------------------------------------------------------
# Bernstein symbol


def test_bernstein_symbol_examples():
    k, s = bernstein_symbol(weyl_mul(X1, D1) + WeylOperator.constant(1, 1))
    assert k == 2 and str(s) == "x1*y1"

    x1cubed = weyl_mul(X1, weyl_mul(X1, X1))
    k, s = bernstein_symbol(weyl_mul(D1, D1) + x1cubed)
    assert k == 3 and str(s) == "x1^3"

    k, s = bernstein_symbol(D1 + X1)
    assert k == 1 and str(s) == "x1 + y1"


def test_symbols_reject_zero_operator():
    with pytest.raises(ZeroOperator):
        bernstein_symbol(WeylOperator.zero(1))
    with pytest.raises(ZeroOperator):
        principal_symbol(WeylOperator.zero(2))


def test_bernstein_symbol_multiplicative():
    # sigma(ab) = sigma(a) sigma(b) when the top parts do not cancel;
    # cancellation shows up as a degree drop instead
    rng = rng_for("weyl-sigma-mult")
    for _ in range(60):
        n = rng.choice([1, 2])
        a, b = rand_weyl(rng, n), rand_weyl(rng, n)
        if a.is_zero() or b.is_zero():
            continue
        ka, sa = bernstein_symbol(a)
        kb, sb = bernstein_symbol(b)
        ab = weyl_mul(a, b)
        if sa * sb != MultiPoly.zero(sa.space):
            kab, sab = bernstein_symbol(ab)
            assert kab == ka + kb
            assert sab == sa * sb
        else:
            assert ab.is_zero() or ab.total_degree() < ka + kb


# ---------------------------------------------------------------------------
# order filtration / principal symbol


def test_principal_symbol_examples():
    S = VarSpace(("x1", "x2"))
    x1, x2 = (MultiPoly.variable(S, v) for v in S.all_vars)
    rot = PolyVectorField(S, [x2, -x1])
    op = field_op(rot) + WeylOperator.from_poly(x1)
    m, sym = principal_symbol(op, space=S.doubled())
    assert m == 1 and str(sym) == "x2*y1 - x1*y2"

    da, db = d_op(2, 0), d_op(2, 1)
    m, sym = principal_symbol(weyl_mul(da, db) + da)
    assert m == 2 and str(sym) == "y1*y2"

    m, sym = principal_symbol(X1)
    assert m == 0 and str(sym) == "x1"


def test_principal_symbol_of_field_plus_function_is_char_poly():
    rng = rng_for("weyl-bridge")
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
        comps = [rand_poly(rng, space, 2, max_terms=3) for _ in range(n)]
        if all(c.is_zero() for c in comps):
            comps[0] = MultiPoly.variable(space, "x1")
        xi = PolyVectorField(space, comps)
        f = rand_poly(rng, space, 2, max_terms=3)
        op = field_op(xi) + WeylOperator.from_poly(f)
        m, sym = principal_symbol(op, space=space.doubled())
        assert m == 1
        assert sym == characteristic_polynomial(xi)
        assert order_one_field(op, space.doubled()) == xi


def test_charvariety_of_principal_ideal():
    S = VarSpace(("x1", "x2"))
    x1, x2 = (MultiPoly.variable(S, v) for v in S.all_vars)
    diag = PolyVectorField(S, [x1, 2 * x2])
    op = field_op(diag) + WeylOperator.constant(2, 7)
    ideal = charvariety_of_principal_ideal(op, space=S.doubled())
    assert [str(g) for g in ideal.generators] == ["x1*y1 + 2*x2*y2"]
    assert ideal.generators[0] == characteristic_polynomial(diag)

    ideal = charvariety_of_principal_ideal(d_op(1, 0))
    assert [str(g) for g in ideal.generators] == ["y1"]

    dsq = weyl_mul(d_op(1, 0), d_op(1, 0))
    ideal = charvariety_of_principal_ideal(dsq)
    assert [str(g) for g in ideal.generators] == ["y1^2"]


# ---------------------------------------------------------------------------
# printing and the shared sparse-sum arithmetic


def reference_str(op):
    """The operator printer as it was before operators printed through
    MultiPoly, kept as the reference the shared printer must match."""
    if not op.terms:
        return "0"
    n = op.n

    def key(item):
        merged, _ = item
        return (sum(merged), tuple(-e for e in reversed(merged)))
    chunks = []
    for e, c in sorted(op.terms.items(), key=key, reverse=True):
        xe, de = e[:n], e[n:]
        factors = []
        for i, k in enumerate(xe):
            if k == 1:
                factors.append(f"x{i + 1}")
            elif k > 1:
                factors.append(f"x{i + 1}^{k}")
        for i, k in enumerate(de):
            if k == 1:
                factors.append(f"d{i + 1}")
            elif k > 1:
                factors.append(f"d{i + 1}^{k}")
        mono = "*".join(factors)
        if not mono:
            chunks.append(f"({c})" if isinstance(c, NFElement)
                          and not c.is_rational() else str(c))
        elif isinstance(c, NFElement) and not c.is_rational():
            chunks.append(f"({c})*{mono}")
        elif c == 1:
            chunks.append(mono)
        elif c == -1:
            chunks.append(f"-{mono}")
        else:
            chunks.append(f"{c}*{mono}")
    return " + ".join(chunks).replace("+ -", "- ")


def rand_op(rng, n, field=None, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        xe = tuple(rng.randint(0, 2) for _ in range(n))
        de = tuple(rng.randint(0, 2) for _ in range(n))
        terms[xe + de] = rand_coeff(rng, field)
    return WeylOperator(op_space(n), terms)


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "Q(sqrt2)"])
def test_str_matches_reference_printer(field):
    rng = rng_for(f"weyl-print-{field is not None}")
    for _ in range(300):
        op = rand_op(rng, rng.choice([1, 2, 3]), field)
        assert str(op) == reference_str(op)
        assert repr(op) == f"<{reference_str(op)}>"


@pytest.mark.parametrize("field", [None, SQRT2], ids=["Q", "Q(sqrt2)"])
def test_sparse_sum_properties(field):
    rng = rng_for(f"weyl-sparse-sum-{field is not None}")
    for _ in range(40):
        n = rng.choice([1, 2])
        a, b = rand_op(rng, n, field, 3), rand_op(rng, n, field, 3)
        c = rand_coeff(rng, field)
        assert (a + b) - b == a
        assert not (a - a) and str(a - a) == "0"
        assert c * a == a * c
        assert a ** 3 == a * a * a
        assert a ** 0 == WeylOperator.constant(n, 1)
    other = x_op(3, 0)
    for op in (lambda: X1 + other, lambda: X1 - other, lambda: X1 * other):
        with pytest.raises(SizeMismatch, match="operators on 1 and 3 variables"):
            op()
    with pytest.raises(ValueError, match="^operator powers take nonnegative"):
        X1 ** -1


def test_symbol_maps_reject_a_target_of_the_wrong_size():
    """A symbol target needs x- and y-blocks as long as the operator's n;
    aux variables after them are padded with zero exponents."""
    d1 = d_op(1, 0)
    d2 = d_op(2, 0) + x_op(2, 1)
    bad = [(d1, VarSpace(("x1", "x2")).doubled()),
           (d2, VarSpace(("x1",)).doubled()),
           (d2, VarSpace(("x1", "x2")))]
    for op, space in bad:
        for symbol_map in (bernstein_symbol, principal_symbol, order_one_field,
                           charvariety_of_principal_ideal):
            with pytest.raises(SizeMismatch, match="has no symbol in"):
                symbol_map(op, space)
    aux = VarSpace(("x1", "x2")).doubled().with_aux(("t",))
    m, sym = principal_symbol(d2, aux)
    assert (m, str(sym), sym.space) == (1, "y1", aux)
    assert str(bernstein_symbol(d2, aux)[1]) == "x2 + y1"
    assert order_one_field(d2, aux).components[0] == MultiPoly.constant(aux.x_only(), 1)


def test_operators_and_polynomials_do_not_mix():
    """An operator lives on (x | d), so sums and products with a polynomial
    on another space raise SpaceMismatch, as for two polynomials."""
    S = VarSpace(("x1",))
    x1 = MultiPoly.variable(S, "x1")
    for op in (lambda: X1 + x1, lambda: x1 + X1, lambda: X1 - x1,
               lambda: X1 * x1, lambda: x1 * X1):
        with pytest.raises(SpaceMismatch):
            op()
    assert str(WeylOperator.from_poly(x1) * D1) == "x1*d1"
