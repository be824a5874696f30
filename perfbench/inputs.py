"""Seeded inputs as plain data.

A polynomial is a dict from exponent tuples to ``Fraction`` coefficients, so
the ``cli`` workload can write its session files without importing folichar.
Every generator draws from a ``random.Random`` seeded by the workload name
and the ``--seed`` argument, so one seed always gives the same inputs.

Random polynomials are dense (every monomial in the degree range, every
coefficient nonzero).  Dense inputs keep the shape of each Groebner
computation the same from seed to seed, so a run's cost depends on the code
measured and hardly on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# dict polynomials
# ---------------------------------------------------------------------------

def exponents(n, total):
    """Exponent tuples of n variables with the given total degree."""
    if n == 1:
        return [(total,)]
    return [(k,) + rest for k in range(total, -1, -1)
            for rest in exponents(n - 1, total - k)]


def monomials(n, lo, hi):
    return [e for d in range(lo, hi + 1) for e in exponents(n, d)]


def nonzero(rng, bound=4, den=1):
    return Fraction(rng.randint(1, bound) * rng.choice((1, -1)), rng.randint(1, den))


def dense(rng, n, lo, hi, bound=4, den=1):
    return {e: nonzero(rng, bound, den) for e in monomials(n, lo, hi)}


def const(n, c):
    return {(0,) * n: Fraction(c)} if c else {}


def var(n, i):
    return {tuple(int(k == i) for k in range(n)): Fraction(1)}


def add(*ps):
    out = {}
    for p in ps:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def scale(p, c):
    return {e: c * v for e, v in p.items()} if c else {}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def deriv(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + e[i] * c
    return {e: c for e, c in out.items() if c}


def text(p, names):
    """Session-file text of a dict polynomial."""
    if not p:
        return "0"
    chunks = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = p[e]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        coeff = str(abs(c)) if abs(c).denominator == 1 else f"({abs(c)})"
        body = (coeff if not mono else mono if abs(c) == 1 else f"{coeff}*{mono}")
        chunks.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(chunks)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


# ---------------------------------------------------------------------------
# standard Groebner systems
# ---------------------------------------------------------------------------

def cyclic(n):
    """cyclic-n (Bjoerck-Froeberg 1991)."""
    gens = []
    for k in range(1, n):
        acc = {}
        for i in range(n):
            e = [0] * n
            for j in range(k):
                e[(i + j) % n] += 1
            acc = add(acc, {tuple(e): Fraction(1)})
        gens.append(acc)
    gens.append(add({(1,) * n: Fraction(1)}, const(n, -1)))
    return gens


def katsura(n):
    """katsura-n in the n + 1 variables u0..un."""
    m = n + 1

    def u(i):
        i = abs(i)
        return var(m, i) if i <= n else {}

    gens = []
    for k in range(n):
        acc = {}
        for l in range(-n, n + 1):
            acc = add(acc, mul(u(l), u(k - l)))
        gens.append(add(acc, scale(var(m, k), -1)))
    acc = {}
    for l in range(-n, n + 1):
        acc = add(acc, u(l))
    gens.append(add(acc, const(m, -1)))
    return gens


def dense_nf(rng, n, lo, hi, bound=3):
    """Dense polynomial whose coefficients are a + b*alpha, as (a, b) pairs."""
    return {e: (nonzero(rng, bound), nonzero(rng, bound)) for e in monomials(n, lo, hi)}


def groebner_systems(seed):
    """(label, variables, generators, order name) for the groebner workload.

    Order names: ``grevlex``, ``lex`` and ``elim`` (the first variable in
    its own leading block).  Generators of the ``sqrt2`` slice carry
    coefficient pairs (a, b) meaning a + b*r with r^2 = 2.
    """
    out = [
        ("cyclic-4", 4, cyclic(4), "grevlex"),
        ("cyclic-5", 5, cyclic(5), "grevlex"),
        ("katsura-3", 4, katsura(3), "grevlex"),
        ("katsura-4", 5, katsura(4), "grevlex"),
        ("katsura-3/lex", 4, katsura(3), "lex"),
    ]
    rng = rng_for("groebner", seed)
    # (label, variables, generators, degree, order, systems); the twelve
    # systems of equal cost put the tail percentile inside one cluster
    families = [
        ("quadrics-4x4", 4, 4, 2, "grevlex", 12),
        ("cubics-3x3", 3, 3, 3, "grevlex", 3),
        ("quadrics-3x3/lex", 3, 3, 2, "lex", 6),
        ("quadrics-3x3/elim", 3, 3, 2, "elim", 6),
    ]
    for label, nvars, ngens, deg, order, count in families:
        for k in range(count):
            gens = [dense(rng, nvars, 0, deg) for _ in range(ngens)]
            out.append((f"{label}#{k}", nvars, gens, order))
    # eleven cheap Q(sqrt 2) systems put the median inside the cluster of
    # elimination-order systems instead of at its edge
    for k in range(11):
        gens = [dense_nf(rng, 3, 0, 2) for _ in range(3)]
        out.append((f"quadrics-3x3/sqrt2#{k}", 3, gens, "sqrt2"))
    return out


# ---------------------------------------------------------------------------
# vector fields for the pipelines and cli workloads
# ---------------------------------------------------------------------------

RESONANT = (1, 2, 3)
# coefficients of random fields lie in [-9, 9] \ {0}: with [-4, 4], one
# diagonal field in four hits a coincidence that makes ch_singular_locus
# five times slower, which the seed alone then decides
FIELD_BOUND = 9


def generic_field(rng, n, d):
    """Dense field of degree d vanishing at the origin."""
    return [dense(rng, n, 1, d, FIELD_BOUND) for _ in range(n)]


def diagonal_field(rng, n, d):
    """a_i = x_i * u_i with u_i(0) = 1, 2, 3: resonant linear part.

    V(x2, .., xn, y1) is invariant under the prolongation, contained in the
    characteristic variety, and neither the zero section, a fiber nor the
    whole variety: the resonant-diagonal quasi-minimality violation.
    """
    return [mul(var(n, i), add(const(n, RESONANT[i]), dense(rng, n, 1, d - 1, FIELD_BOUND)))
            for i in range(n)]


def factored_field(rng, d):
    """Planar field h * (b1, b2) with a planted common line h, h(0) != 0."""
    h = add(var(2, 0), scale(var(2, 1), nonzero(rng)), const(2, nonzero(rng)))
    return [mul(h, dense(rng, 2, 1, d - 1, FIELD_BOUND)) for _ in range(2)], h


def planted_line_field(rng, n):
    """Degree-2 field with the invariant line L = x1 + a*x2, cofactor K.

    Returns (components, L, K) with xi(L) = K * L.
    """
    alpha = nonzero(rng, 3)
    line = add(var(n, 0), scale(var(n, 1), alpha))
    cof = dense(rng, n, 0, 1, FIELD_BOUND)
    rest = [dense(rng, n, 1, 2, FIELD_BOUND) for _ in range(n - 1)]
    first = add(mul(cof, line), scale(rest[0], -alpha))
    return [first] + rest, line, cof


def planted_conic_field(rng):
    """Planar field leaving Q = x2^2 - q*x1^2 invariant, q not a square.

    xi = A * (dQ/dx2, -dQ/dx1) + Q * (w1, w2), so xi(Q) = K * Q with
    K = w1*dQ/dx1 + w2*dQ/dx2.  The lines x2 -+ sqrt(q)*x1 are Darboux
    polynomials over Q(sqrt q) that a search over Q cannot see.
    Returns (components, Q, K).
    """
    q = rng.choice((2, 3, 5, 6, 7))
    conic = add({(0, 2): Fraction(1)}, {(2, 0): Fraction(-q)})
    amp = dense(rng, 2, 0, 1, FIELD_BOUND)
    w1, w2 = nonzero(rng), nonzero(rng)
    qx, qy = deriv(conic, 0), deriv(conic, 1)
    comps = [add(mul(amp, qy), scale(conic, w1)),
             add(mul(amp, scale(qx, -1)), scale(conic, w2))]
    return comps, conic, add(scale(qx, w1), scale(qy, w2))


# number fields: (name, minimal polynomial low degree first)
SQRT = "r"
IMAG = ("i", (1, 0, 1))
CUBIC = ("a", (1, -3, 0, 1))


def _conjugate(rng, m):
    """P m P^-1 for a random unit upper-triangular rational P."""
    n = len(m)
    p = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randint(-2, 2))
          for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):  # back substitution, unit diagonal
        for j in range(n):
            inv[i][j] -= sum(p[i][k] * inv[k][j] for k in range(i + 1, n))
    pm = [[sum(p[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(pm[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def eigen_field(rng, kind):
    """Field with a linear part of known spectrum plus dense quadratic terms.

    ``kind`` is ``sqrt`` (eigenvalues p -+ s*sqrt(q)), ``imag``
    (p -+ s*i) or ``cubic`` (rational p, q over Q(a), a^3 - 3a + 1 = 0).  Returns
    (components, linear matrix, (field name, minimal polynomial),
    eigenvalues as power-basis coordinate tuples).  p is 0 half of the
    time, which makes the spectrum resonant.
    """
    p = Fraction(rng.choice((0, nonzero(rng, 3))))
    if kind == "cubic":
        # a rational quadratic has no roots of degree 3: the spectrum is
        # rational, found by the same coordinate ansatz over Q(a)
        name, minpoly = CUBIC
        p = nonzero(rng, 3)
        q = p * rng.choice((-2, -1, 2, 3))
        m = [[p, Fraction(0)], [Fraction(0), q]]
        eig = [(p, 0, 0), (q, 0, 0)]
    else:
        s = nonzero(rng, 2)
        if kind == "sqrt":
            q = rng.choice((2, 3, 5))
            name, minpoly = SQRT, (-q, 0, 1)
        else:
            q = -1
            name, minpoly = IMAG
        m = [[p, s * q], [s, p]]
        eig = [(p, s), (p, -s)]
    n = len(m)
    m = _conjugate(rng, m)
    comps = []
    for i in range(n):
        lin = {tuple(int(k == j) for k in range(n)): m[i][j] for j in range(n) if m[i][j]}
        comps.append(add(lin, dense(rng, n, 2, 2, bound=2)))
    eig = [tuple(Fraction(c) for c in v) for v in eig]
    return comps, m, (name, minpoly), eig
