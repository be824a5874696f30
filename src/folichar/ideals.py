"""Ideals, Buchberger's algorithm, and membership certificates.

The Groebner engine is a budgeted Buchberger loop with the coprime-lead and
chain pair criteria (Gebauer-Moeller style pruning) and the normal strategy:
pairs wait on a heap keyed ``(key(lcm), i, j)``, computed once per pair, so
the smallest lcm goes next and ties go to the smaller indices.  The sugar
strategy was rejected: it sped up cyclic-5 but took the lex systems of the
Darboux search to about three times as many steps.  Reduction pops terms
largest first from a heap keyed once per monomial by ``order.rkey`` and
divides each by the first basis lead that divides it (:func:`_first_divisor`).
One run's S-pair reductions share a divisor memo, exponent -> (that index,
how far the scan got), which stays valid because the basis only grows by
appending.  The start-of-run interreduction keeps each element's lead and
marks an element that came back unchanged as settled; it is not reduced
again until another element's new lead divides one of its terms.  A
cached basis keeps its lead data beside it for :func:`normal_form`.
Bases are fully interreduced and monic, so for a fixed monomial order the
reduced basis of an ideal is canonical regardless of generator order.
Every reduction step charges one unit against the step budget; exhausting
it raises :class:`BudgetExceeded` rather than returning a wrong answer.

Over Q and over every Q(alpha) the engine clears denominators once and
works fraction-free, in Z or in Z[beta] for the integral generator
beta = scale*alpha of the field's model (:func:`scalars.integral_multiple`):
every basis element is primitive with a positive rational integer D as its
lead (over Z[beta], via the norm cofactor D*lc^-1 in Z[beta]) and is made
monic, with Fraction coordinates over alpha, only when the basis is
returned (:func:`scalars.from_integral`).  A step reducing c*x^e by g with
lead coefficient lc is p <- a*p - b*x^s*g: with an int lead a = lc/d and
b = c/d for d = gcd(content(c), lc) (Becker-Weispfenning 1993, ch. 5), and
the content of p and the tail is divided out every ``_CONTENT_EVERY``
steps; the monic bases of :func:`normal_form` take the field rule a = 1 and
b = c/lc.  Both rules pick the same divisors, so step counts do not depend
on the coefficient ring.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, itemgetter, le as _le, sub

from .errors import BudgetExceeded, SpaceMismatch
from .polynomials import GREVLEX, LEX, SCALARS, MultiPoly, elimination_order
from .scalars import (common_field, content, from_integral, integral_multiple, norm_cofactor,
                      rational_integer, scalar_inverse, upoly_rational_roots,
                      upoly_squarefree_part, upoly_trim)

DEFAULT_BUDGET = 10 ** 6
_CONTENT_EVERY = 8  # budget steps between divisions by the content over Z and Z[alpha]


class StepBudget:
    """Shared countdown of reduction steps for one top-level computation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=None):
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.used = 0

    def charge(self, k=1):
        self.used += k
        if self.used > self.limit:
            raise BudgetExceeded(
                f"exceeded {self.limit} reduction steps", steps=self.used
            )


def _as_budget(budget):
    return StepBudget() if budget is None else budget


# ---------------------------------------------------------------------------
# division / normal form
# ---------------------------------------------------------------------------

def _divides(e1, e2):
    return all(map(_le, e1, e2))


def _exp_sub(e1, e2):
    return tuple(map(sub, e1, e2))


def _exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _sub_multiple(p, heap, rkey, g, le, shift, factor):
    """p -= factor * x^shift * (g - lead term); new monomials go on the heap once."""
    neg = -factor
    for ge, gc in g.terms.items():
        if ge == le:
            continue
        ne = tuple(map(add, ge, shift))
        c = p.get(ne)
        if c is None:
            p[ne] = neg * gc
            heappush(heap, (rkey(ne), ne))
        else:
            s = c + neg * gc
            if s:
                p[ne] = s
            else:
                del p[ne]


def _rescale(p, tail, a, d=1):
    """Multiply every coefficient of p and tail by a, or if a == 1 divide it exactly by d."""
    for terms in (p, tail):
        for e, c in terms.items():
            terms[e] = c // d if a == 1 else c * a


def _step(c, lc):
    """(a, b) with a*c == b*lc: fraction-free for int leads, a = 1 over a field."""
    if type(lc) is int:
        d = gcd(c if type(c) is int else content(c), lc)
        return lc // d, c // d
    return 1, c if lc == 1 else c * scalar_inverse(lc)


def _first_divisor(e, leads, memo):
    """Index of the first lead dividing e, or None.

    ``memo`` maps e to (that index or None, how many leads were scanned), so
    a list that only grows by appending is never rescanned from the start.
    """
    found, start = memo.get(e, (None, 0))
    if found is None and start < len(leads):
        for k in range(start, len(leads)):
            if _divides(leads[k], e):
                found = k
                break
        memo[e] = (found, len(leads))
    return found


def reduce_poly(f, basis, order, budget, memo=None):
    """Normal form (for int leads, a multiple of it) of f by (lead_exp, lead_coeff, poly).

    ``memo`` is the divisor memo of :func:`_first_divisor`; share one only
    across calls whose basis lists extend each other.
    """
    memo = {} if memo is None else memo
    leads = [b[0] for b in basis]
    tail = {}
    p = f.terms.copy()
    rkey = order.rkey
    heap = [(rkey(e), e) for e in p]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = p.pop(e, None)
        if c is None:  # cancelled after it was pushed
            continue
        k = _first_divisor(e, leads, memo)
        if k is None:
            tail[e] = c
            continue
        le, lc, g = basis[k]
        budget.charge()
        if type(lc) is int and budget.used % _CONTENT_EVERY == 0:
            d = (gcd(c, *p.values(), *tail.values()) if type(c) is int
                 else content(c, *p.values(), *tail.values()))
            if d != 1:
                c //= d
                _rescale(p, tail, 1, d)
        a, c = _step(c, lc)
        if a != 1:
            _rescale(p, tail, a)
        _sub_multiple(p, heap, rkey, g, le, _exp_sub(e, le), c)
    return MultiPoly(f.space, tail)


def _basis_data(polys, order):
    return [(e, rational_integer(c), g) for g in polys for e, c in [g.leading(order)]]


def _normalized(g, order):
    """g over Z or Z[beta] made primitive with a positive integer lead."""
    lc = g.leading(order)[1]
    if type(lc) is int:
        d = gcd(*g.terms.values()) * (1 if lc > 0 else -1)
        return MultiPoly(g.space, {e: c // d for e, c in g.terms.items()})
    m = norm_cofactor(lc)
    terms = {e: c * m for e, c in g.terms.items()}
    d = content(*terms.values())
    return MultiPoly(g.space, {e: c // d for e, c in terms.items()})


def _interreduce(polys, order, budget):
    """Make a generating set of normalized polynomials fully autoreduced.

    The restart loop: sort by lead, reduce each element by all the others
    and start over after the first one that changes.  Each entry keeps its
    key, lead data and whether it is settled (came back unchanged, so none
    of its terms is divisible by another lead); a settled element is skipped
    until another element's new lead divides one of its terms.
    """
    key = order.key
    # [key(lead), (lead, int lead coefficient, poly), settled]
    entries = [[key(data[0]), data, False] for data in _basis_data(polys, order)]
    changed = True
    while changed:
        changed = False
        entries.sort(key=itemgetter(0))
        for i, entry in enumerate(entries):
            if entry[2] or len(entries) == 1:
                continue
            g = entry[1][2]
            r = reduce_poly(g, [o[1] for o in entries if o is not entry], order, budget)
            if r.terms == g.terms:
                entry[2] = True
                continue
            changed = True
            if r.is_zero():
                entries.pop(i)
                break
            # r is reduced by the other leads, so it is settled as it stands
            data, = _basis_data([_normalized(r, order)], order)
            entries[i] = [key(data[0]), data, True]
            if data[0] != entry[1][0]:
                for other in entries:
                    if other[2] and other is not entries[i] and any(
                            _divides(data[0], e) for e in other[1][2].terms):
                        other[2] = False
            break
    return [entry[1][2] for entry in entries]


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def buchberger(gens, order, budget):
    """Reduced Groebner basis of the given generators, budgeted."""
    budget = _as_budget(budget)
    gens = [g for g in gens if not g.is_zero()]
    field = common_field(c for g in gens for c in g.terms.values())
    gens = [_normalized(MultiPoly(g.space, dict(zip(
        g.terms, integral_multiple(g.terms.values(), field)))), order) for g in gens]
    G = _interreduce(gens, order, budget)
    if not G:
        return []
    if any(g.is_constant() for g in G):
        return [MultiPoly.constant(G[0].space, 1)]
    data = _basis_data(G, order)
    memo = {}  # data only grows by appending, so one divisor memo serves every S-pair
    pairs = []
    done = set()
    key = order.key

    def push_pairs(j):
        ej = data[j][0]
        for i in range(j):
            heappush(pairs, (key(_exp_lcm(data[i][0], ej)), i, j))

    for j in range(1, len(data)):
        push_pairs(j)
    while pairs:
        _, i, j = heappop(pairs)
        done.update(((i, j), (j, i)))
        (ei, ci, gi), (ej, cj, gj) = data[i], data[j]
        lcm = _exp_lcm(ei, ej)
        # coprime-lead criterion
        if all(a + b == m for a, b, m in zip(ei, ej, lcm)):
            continue
        # chain criterion: some k with lt(k) | lcm and both side pairs settled
        if any((i, k) in done and (j, k) in done and _divides(data[k][0], lcm)
               for k in range(len(data))):
            continue
        # S-polynomial a*x^(lcm-ei)*gi - b*x^(lcm-ej)*gj; its lead terms cancel
        a, b = _step(ci, cj)
        s = {}
        _sub_multiple(s, [], order.rkey, gi, ei, _exp_sub(lcm, ei), -a)
        _sub_multiple(s, [], order.rkey, gj, ej, _exp_sub(lcm, ej), b)
        budget.charge()
        r = reduce_poly(MultiPoly(gi.space, s), data, order, budget, memo)
        if r.is_zero():
            continue
        if r.is_constant():
            return [MultiPoly.constant(r.space, 1)]
        data += _basis_data([_normalized(r, order)], order)
        push_pairs(len(data) - 1)
    # One final pass, leads ascending: a lead divisible by an earlier lead is
    # redundant; a tail term can only be divided by a smaller lead, so each
    # survivor is tail-reduced against the survivors before it.
    data.sort(key=lambda d: key(d[0]))
    reduced = []
    for le, _, g in data:
        if not any(_divides(ke, le) for ke, _, _ in reduced):
            r = reduce_poly(g, reduced, order, budget)
            reduced.append((le, rational_integer(r.terms[le]), r))
    return [MultiPoly(g.space, {e: from_integral(c, lc, field) for e, c in g.terms.items()})
            for _, lc, g in reduced]


# ---------------------------------------------------------------------------
# ideal objects
# ---------------------------------------------------------------------------

class Ideal:
    """Finitely generated ideal with lazily cached reduced Groebner bases."""

    __slots__ = ("space", "generators", "_bases")  # order -> (basis, _basis_data(basis))

    def __init__(self, space, generators):
        gens = []
        for g in generators:
            if isinstance(g, SCALARS):
                g = MultiPoly.constant(space, g)
            if g.space != space:
                raise SpaceMismatch(f"generator over {g.space}, ideal over {space}")
            gens.append(g)
        self.space = space
        self.generators = tuple(gens)
        self._bases = {}

    def basis(self, order=GREVLEX, budget=None):
        cached = self._bases.get(order)
        if cached is None:
            basis = buchberger(list(self.generators), order, budget)
            cached = self._bases[order] = (basis, _basis_data(basis, order))
        return cached[0]

    def has_cached_basis(self, order=GREVLEX):
        return order in self._bases

    def is_zero(self, budget=None):
        return not self.basis(budget=budget)

    def is_unit(self, budget=None):
        b = self.basis(budget=budget)
        return bool(b) and b[0].is_constant()

    def contains(self, f, order=GREVLEX, budget=None):
        return normal_form(f, self, order=order, budget=budget).is_zero()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.space != other.space:
            return False
        return self.basis() == other.basis()

    def __hash__(self):
        # equal ideals may have different generators; __eq__ compares bases
        return hash(self.space)

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    __repr__ = __str__


def groebner(ideal, order=GREVLEX, budget=None):
    """Return the ideal with a freshly cached reduced basis for ``order``."""
    ideal.basis(order=order, budget=budget)
    return ideal


def normal_form(f, ideal, order=GREVLEX, budget=None):
    """Canonical remainder of f modulo the ideal for the given order."""
    budget = _as_budget(budget)
    if f.space != ideal.space:
        raise SpaceMismatch(f"{f.space} vs {ideal.space}")
    if not ideal.basis(order=order, budget=budget):
        return f
    return reduce_poly(f, ideal._bases[order][1], order, budget)


# ---------------------------------------------------------------------------
# radical membership, elimination, dimension-zero toolkit
# ---------------------------------------------------------------------------

def radical_membership(f, ideal, budget=None):
    """Does f vanish on the zero set of the ideal (f in the radical)?

    Decided by adjoining a fresh variable w and testing whether
    (ideal, 1 - w*f) is the unit ideal.
    """
    budget = _as_budget(budget)
    if f.is_zero():
        return True
    space = ideal.space
    if f.space != space:
        raise SpaceMismatch("radical membership needs matching spaces")
    wname = space.fresh_aux("_w")
    ext = space.with_aux((wname,))
    w = MultiPoly.variable(ext, wname)
    gens = [g.lift_to(ext) for g in ideal.generators]
    gens.append(MultiPoly.constant(ext, 1) - w * f.lift_to(ext))
    return buchberger(gens, GREVLEX, budget) == [MultiPoly.constant(ext, 1)]


def eliminate(ideal, keep, budget=None):
    """Intersection of the ideal with the subring in the kept variables.

    ``keep`` is a collection of variable names.  A block order with the
    discarded variables in the leading block makes the kept variables a
    trailing block, so basis elements whose monomials avoid the discarded
    block generate the elimination ideal, which lives in the restricted space.
    """
    budget = _as_budget(budget)
    space = ideal.space
    keep = set(keep)
    unknown = keep - set(space.all_vars)
    if unknown:
        raise KeyError(f"unknown variables in keep set: {sorted(unknown)}")
    drop = [i for i, v in enumerate(space.all_vars) if v not in keep]
    order = elimination_order(space, drop)
    basis = buchberger(list(ideal.generators), order, budget)
    dropset = set(drop)
    kept = [g for g in basis if not g.involves(dropset)]
    sub = space.restrict(keep)
    return Ideal(sub, [g.restrict_to(sub) for g in kept])


def _standard_monomials(ideal, order, budget):
    """Unsorted standard monomials if dim V(I) = 0, else None."""
    basis = ideal.basis(order=order, budget=budget)
    nv = ideal.space.nvars
    if not basis:
        return [()] if nv == 0 else None
    if basis[0].is_constant():
        return []
    leads = [g.leading(order)[0] for g in basis]
    bounds = []
    for i in range(nv):
        pure = [e[i] for e in leads if sum(e) == e[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    return [mono for mono in itertools.product(*(range(b) for b in bounds))
            if not any(_divides(le, mono) for le in leads)]


def krull_dim_zero_check(ideal, order=GREVLEX, budget=None):
    """(True, vector-space dimension) if dim V(I) = 0, else (False, None).

    Zero-dimensionality over the algebraic closure holds iff every variable
    has a pure power among the leading monomials; the count of standard
    monomials is then the dimension of the quotient as a vector space.
    """
    mons = _standard_monomials(ideal, order, budget)
    return (False, None) if mons is None else (True, len(mons))


def standard_monomials(ideal, order=GREVLEX, budget=None):
    """Monomial basis of the quotient ring for a zero-dimensional ideal."""
    mons = _standard_monomials(ideal, order, budget)
    if mons is None:
        raise ValueError("ideal is not zero-dimensional")
    return sorted(mons, key=order.key)


# ---------------------------------------------------------------------------
# exact division, determinants, gcd/lcm via elimination
# ---------------------------------------------------------------------------

def exact_divide(f, g, order=GREVLEX):
    """Quotient f/g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("exact division by zero polynomial")
    if f.is_zero():
        return f
    space = f.space
    le, lc = g.leading(order)
    quot = {}
    p = dict(f.terms)
    rkey = order.rkey
    heap = [(rkey(e), e) for e in p]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = p.pop(e, None)
        if c is None:
            continue
        if not _divides(le, e):
            raise ValueError("division is not exact")
        qe = _exp_sub(e, le)
        quot[qe] = c * scalar_inverse(lc)
        _sub_multiple(p, heap, rkey, g, le, qe, quot[qe])
    return MultiPoly(space, quot)


def poly_det(rows):
    """Determinant of a square MultiPoly matrix by fraction-free Bareiss elimination."""
    m = [row[:] for row in rows]
    size = len(m)
    if size == 0:
        raise ValueError("empty matrix")
    space = m[0][0].space
    sign = 1
    prev = MultiPoly.constant(space, 1)
    for k in range(size - 1):
        if m[k][k].is_zero():
            swap = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if swap is None:
                return MultiPoly.zero(space)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev) if not num.is_zero() else num
            m[i][k] = MultiPoly.zero(space)
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


def poly_lcm(f, g, budget=None):
    """lcm via (f) cap (g), computed with the standard t-trick."""
    if f.is_zero() or g.is_zero():
        return MultiPoly.zero(f.space)
    space = f.space
    tname = space.fresh_aux("_t")
    ext = space.with_aux((tname,))
    t = MultiPoly.variable(ext, tname)
    gens = [t * f.lift_to(ext), (MultiPoly.constant(ext, 1) - t) * g.lift_to(ext)]
    members = eliminate(Ideal(ext, gens), space.all_vars, budget=budget).generators
    if len(members) != 1:
        raise RuntimeError("principal intersection did not yield a single generator")
    return members[0].monic(GREVLEX)


def poly_gcd(f, g, budget=None):
    """Monic gcd of two polynomials, via gcd * lcm = f * g."""
    if f.is_zero():
        return g.monic(GREVLEX) if not g.is_zero() else g
    if g.is_zero():
        return f.monic(GREVLEX)
    lcm = poly_lcm(f, g, budget=budget)
    return exact_divide(f * g, lcm).monic(GREVLEX)


def poly_gcd_list(polys, budget=None):
    acc = None
    for p in polys:
        if p.is_zero():
            continue
        acc = p if acc is None else poly_gcd(acc, p, budget=budget)
        if acc.is_constant():
            break
    if acc is None:
        return None
    return acc.monic(GREVLEX)


# ---------------------------------------------------------------------------
# rational points of small systems
# ---------------------------------------------------------------------------

def _univariate_in(g, idx):
    """Coefficients of g as a univariate polynomial in variable idx, or None."""
    coeffs = {}
    for e, c in g.terms.items():
        if any(v and i != idx for i, v in enumerate(e)):
            return None
        coeffs[e[idx]] = c
    if not coeffs:
        return None
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return upoly_trim(out)


def rational_points(gens, space, budget=None, zero_free_vars=False):
    """Rational solutions of a polynomial system by lex triangularization.

    Returns ``(points, exhaustive)`` where each point maps variable index to
    a Fraction.  Every rational point of a zero-dimensional system is listed:
    each branch substitutes the rational roots of the univariate eliminant,
    the one element of its reduced lex basis in the lex-least remaining
    variable.  ``exhaustive`` says more: the points listed are all the
    solutions over the algebraic closure.  It comes back False when the
    univariate eliminant of some branch has more distinct roots (the degree
    of its squarefree part) than rational ones, since each of its roots
    extends to a solution.  If a variable is unconstrained (no eliminant, or
    an empty basis) and ``zero_free_vars`` is set, it is pinned to 0 and
    ``exhaustive`` comes back False too; without the flag such systems
    raise ValueError.  Generators over another space raise
    :class:`SpaceMismatch`.
    """
    if any(g.space != space for g in gens):
        raise SpaceMismatch(f"the system does not live in {space}")
    budget = _as_budget(budget)
    points = []
    exhaustive = True

    def walk(current_gens, assignment, remaining):
        nonlocal exhaustive
        basis = buchberger(current_gens, LEX, budget)
        if not basis:
            if remaining and not zero_free_vars:
                raise ValueError("system is not zero-dimensional")
            exhaustive = exhaustive and not remaining
            points.append({**assignment, **dict.fromkeys(remaining, Fraction(0))})
            return
        if basis[0].is_constant():
            return
        idx = remaining[-1]  # lex-least variable first
        u = next((u for u in (_univariate_in(g, idx) for g in basis) if u is not None), None)
        if u is None:
            if not zero_free_vars:
                raise ValueError("system is not zero-dimensional")
            exhaustive = False
            roots = [Fraction(0)]
        else:
            roots = upoly_rational_roots(u)
            if len(upoly_squarefree_part(u)) > len(roots) + 1:
                exhaustive = False
        for r in sorted(roots):
            walk([g.substitute({idx: r}) for g in basis], {**assignment, idx: r}, remaining[:-1])

    walk(gens, {}, list(range(space.nvars)))
    return points, exhaustive
