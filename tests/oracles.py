"""Independent cross-checks that avoid the library's Groebner machinery.

The membership oracle answers "is f in the ideal (g_1, ..., g_k)?" by pure
linear algebra: f is a member with cofactor degrees <= B exactly when f lies
in the rational vector space spanned by the monomial multiples m*g_i with
deg m <= B.  That span is built by incremental row reduction over the
monomial basis -- no S-polynomials, no division chains.

The point count of a zero-dimensional ideal (:func:`seidenberg_count`) is
the one reference here that does use the library's Groebner engine: it
takes the radical through univariate eliminants, a route independent of
the Jacobian determinant that ``singular_scheme`` reads the count from.
"""

from fractions import Fraction
from itertools import product

from folichar.ideals import Ideal, eliminate, krull_dim_zero_check
from folichar.polynomials import MultiPoly
from folichar.scalars import upoly_squarefree_part

_ZERO = Fraction(0)


def _poly_dict(p):
    return dict(p.terms)


def _lead(vec):
    return max(vec)


def _reduce(vec, basis):
    vec = dict(vec)
    while vec:
        lead = _lead(vec)
        row = basis.get(lead)
        if row is None:
            return vec
        c = vec[lead]
        for e, v in row.items():
            w = vec.get(e, _ZERO) - c * v
            if w:
                vec[e] = w
            else:
                vec.pop(e, None)
    return vec


def _insert(vec, basis):
    vec = _reduce(vec, basis)
    if not vec:
        return
    lead = _lead(vec)
    inv = 1 / vec[lead]
    basis[lead] = {e: c * inv for e, c in vec.items()}


def _monomials_up_to(nvars, bound):
    return [e for e in product(range(bound + 1), repeat=nvars)
            if sum(e) <= bound]


def _shift(vec, exp):
    return {tuple(a + b for a, b in zip(e, exp)): c for e, c in vec.items()}


def membership_oracle(f, generators, extra_degree=2):
    """True iff Sum q_i g_i = f is solvable with deg q_i <= deg f + extra."""
    fvec = _poly_dict(f)
    if not fvec:
        return True
    gens = [_poly_dict(g) for g in generators if g.terms]
    if not gens:
        return False
    nvars = len(next(iter(fvec)))
    bound = max(sum(e) for e in fvec) + extra_degree
    basis = {}
    for m in _monomials_up_to(nvars, bound):
        for g in gens:
            _insert(_shift(g, m), basis)
    return not _reduce(fvec, basis)


def solve_linear(rows, ncols):
    """Exact solutions of a consistent square-ish system; None if inconsistent.

    ``rows`` are (coefficient list, rhs) pairs over Fraction.  Returns one
    solution with free variables pinned to zero.
    """
    aug = [list(r) + [b] for r, b in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(aug)) if aug[r][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col]:
                k = aug[r][col]
                aug[r] = [a - k * b for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][-1]:
            return None
    sol = [_ZERO] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][-1]
    return sol


def seidenberg_count(ideal):
    """Distinct points over the algebraic closure of a zero-dimensional ideal.

    An ideal holding a squarefree univariate polynomial in every variable is
    radical (Seidenberg's lemma; Kreuzer-Robbiano, Computational Commutative
    Algebra 1, Prop. 3.7.15).  So adjoining the squarefree part of each
    univariate eliminant gives the radical, and its quotient dimension is
    the number of points.
    """
    space = ideal.space
    augmented = list(ideal.generators)
    for idx, name in enumerate(space.all_vars):
        eliminant = next(g for g in eliminate(ideal, {name}).generators if g.terms)
        coeffs = [Fraction(0)] * (eliminant.degree() + 1)
        for (k,), c in eliminant.terms.items():
            coeffs[k] = c
        squarefree = MultiPoly.zero(space)
        for k, c in enumerate(upoly_squarefree_part(coeffs)):
            exp = tuple(k if i == idx else 0 for i in range(space.nvars))
            squarefree = squarefree + MultiPoly.monomial(space, exp, c)
        augmented.append(squarefree)
    isolated, count = krull_dim_zero_check(Ideal(space, augmented))
    assert isolated
    return count
