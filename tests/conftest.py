"""Seeded random generators, standard Groebner systems and a Groebner-call spy
shared across the tests."""

import random
from fractions import Fraction
from math import prod

import pytest

from folichar import ideals
from folichar.foliations import PolyVectorField
from folichar.polynomials import MultiPoly, VarSpace
from folichar.scalars import make_number_field

SQRT2 = make_number_field("r", [-2, 0, 1])
QI = make_number_field("i", [1, 0, 1])
QA = make_number_field("a", [1, -3, 0, 1])  # a^3 - 3a + 1 = 0, a cubic field


def rng_for(name, seed=20250814):
    return random.Random(f"{name}:{seed}")


def rand_poly(rng, space, max_deg, max_terms=4, nonzero=False):
    n = space.nvars
    p = MultiPoly.zero(space)
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + MultiPoly.monomial(space, tuple(e), c)
    if nonzero and p.is_zero():
        p = p + MultiPoly.constant(space, 1)
    return p


def rand_coeff(rng, field=None):
    """1, -1 or a small rational; over ``field`` often an element of it,
    rational (r = 0) or not."""
    c = rng.choice([Fraction(1), Fraction(-1),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))])
    if field is None or rng.random() < 0.3:
        return c
    if rng.random() < 0.4:
        return field.element([c])
    return field.element([c, Fraction(rng.randint(-3, 3), rng.randint(1, 2))])


def rand_field(rng, n, max_deg, max_terms=3):
    space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
    while True:
        comps = [rand_poly(rng, space, max_deg, max_terms) for _ in range(n)]
        if any(not c.is_zero() for c in comps):
            return PolyVectorField(space, comps)


def axis_invariant_field(rng, n, max_deg):
    """Random field leaving the x1-axis invariant: a_i in (x2..xn) for i >= 2."""
    space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
    xs = [MultiPoly.variable(space, v) for v in space.all_vars]
    comps = [rand_poly(rng, space, max_deg)]
    for i in range(1, n):
        acc = MultiPoly.zero(space)
        for j in range(1, n):
            acc = acc + xs[j] * rand_poly(rng, space, max_deg - 1, 2)
        comps.append(acc)
    if all(c.is_zero() for c in comps):
        comps[0] = xs[0]
    return PolyVectorField(space, comps)


def cyclic(n):
    """cyclic-n (Bjoerck-Froeberg 1991) in x1..xn."""
    space = VarSpace(tuple(f"x{i + 1}" for i in range(n)))
    xs = [MultiPoly.variable(space, i) for i in range(n)]
    one, zero = MultiPoly.constant(space, 1), MultiPoly.zero(space)
    gens = [sum((prod((xs[(i + j) % n] for j in range(k)), start=one) for i in range(n)), zero)
            for k in range(1, n)]
    return gens + [prod(xs, start=one) - 1]


def katsura(n):
    """katsura-n in the n + 1 variables u0..un."""
    space = VarSpace(tuple(f"u{i}" for i in range(n + 1)))

    def u(i):
        i = abs(i)
        return MultiPoly.variable(space, i) if i <= n else MultiPoly.zero(space)

    gens = []
    for k in range(n):
        acc = sum((u(l) * u(k - l) for l in range(-n, n + 1)), MultiPoly.zero(space))
        gens.append(acc - u(k))
    gens.append(sum((u(l) for l in range(-n, n + 1)), MultiPoly.zero(space)) - 1)
    return gens


@pytest.fixture
def w_bases(monkeypatch):
    """Rabinowitsch bases: the ``buchberger`` calls over a space with a fresh
    auxiliary variable."""
    calls = []
    real = ideals.buchberger

    def spy(gens, order, budget):
        if gens and gens[0].space.aux_vars:
            calls.append(gens[0].space.aux_vars)
        return real(gens, order, budget)

    monkeypatch.setattr(ideals, "buchberger", spy)
    return calls
