"""Ideals, Buchberger's algorithm, and membership certificates.

The Groebner engine is a budgeted Buchberger loop with the coprime-lead and
chain pair criteria (Gebauer-Moeller style pruning) and the normal strategy:
pairs wait on a heap keyed ``(key(lcm), i, j)``, computed once per pair, so
the smallest lcm goes next and ties go to the smaller indices.  The sugar
strategy was rejected: it sped up cyclic-5 but took the lex systems of the
Darboux search to about three times as many steps.  Reduction pops terms
largest first from a heap keyed once per monomial by ``order.rkey``.
Bases are fully interreduced and monic, so for a fixed monomial order the
reduced basis of an ideal is canonical regardless of generator order.
Every reduction step charges one unit against the step budget; exhausting
it raises :class:`BudgetExceeded` rather than returning a wrong answer.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import BudgetExceeded, SpaceMismatch
from .polynomials import GREVLEX, LEX, MultiPoly, elimination_order
from .scalars import scalar_inverse, upoly_rational_roots, upoly_trim

DEFAULT_BUDGET = 10 ** 6


def default_budget():
    env = os.environ.get("FOLICHAR_BUDGET")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_BUDGET


class StepBudget:
    """Shared countdown of reduction steps for one top-level computation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=None):
        self.limit = default_budget() if limit is None else limit
        self.used = 0

    def charge(self, k=1):
        self.used += k
        if self.used > self.limit:
            raise BudgetExceeded(
                f"exceeded {self.limit} reduction steps", steps=self.used
            )


def _as_budget(budget):
    if budget is None or isinstance(budget, int):
        return StepBudget(budget)
    return budget


# ---------------------------------------------------------------------------
# division / normal form
# ---------------------------------------------------------------------------

def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _sub_multiple(p, heap, rkey, g, le, shift, factor):
    """p -= factor * x^shift * (g - lead term); new monomials go on the heap once."""
    neg = -factor
    for ge, gc in g.terms.items():
        if ge == le:
            continue
        ne = tuple(a + b for a, b in zip(ge, shift))
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


def reduce_poly(f, basis, order, budget):
    """Full normal form of f against a list of (lead_exp, lead_coeff, poly)."""
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
        for le, lc, g in basis:
            if _divides(le, e):
                budget.charge()
                _sub_multiple(p, heap, rkey, g, le, _exp_sub(e, le),
                              c * scalar_inverse(lc))
                break
        else:
            tail[e] = c
    return MultiPoly(f.space, tail)


def _basis_data(polys, order):
    return [(*g.leading(order), g) for g in polys]


def _interreduce(polys, order, budget):
    """Make a generating set fully autoreduced and monic."""
    polys = [p for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        polys.sort(key=lambda g: order.key(g.leading(order)[0]))
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1:]
            if not others:
                continue
            r = reduce_poly(polys[i], _basis_data(others, order), order, budget)
            if r.terms != polys[i].terms:
                changed = True
                if r.is_zero():
                    polys.pop(i)
                else:
                    polys[i] = r
                break
    return [p.monic(order) for p in polys]


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def buchberger(gens, order, budget):
    """Reduced Groebner basis of the given generators, budgeted."""
    budget = _as_budget(budget)
    G = _interreduce(list(gens), order, budget)
    if not G:
        return []
    if any(g.is_constant() for g in G):
        return [MultiPoly.constant(G[0].space, 1)]
    data = _basis_data(G, order)
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
        mi = MultiPoly.monomial(gi.space, _exp_sub(lcm, ei), scalar_inverse(ci))
        mj = MultiPoly.monomial(gj.space, _exp_sub(lcm, ej), scalar_inverse(cj))
        s = mi * gi - mj * gj
        budget.charge()
        r = reduce_poly(s, data, order, budget)
        if r.is_zero():
            continue
        if r.is_constant():
            return [MultiPoly.constant(r.space, 1)]
        r = r.monic(order)
        data.append((*r.leading(order), r))
        push_pairs(len(data) - 1)
    # One final pass, leads ascending: a lead divisible by an earlier lead is
    # redundant; a tail term can only be divided by a smaller lead, so each
    # survivor is tail-reduced against the survivors before it.
    data.sort(key=lambda d: key(d[0]))
    reduced = []
    for le, lc, g in data:
        if not any(_divides(ke, le) for ke, _, _ in reduced):
            reduced.append((le, lc, reduce_poly(g, reduced, order, budget)))
    return [g for _, _, g in reduced]


# ---------------------------------------------------------------------------
# ideal objects
# ---------------------------------------------------------------------------

class Ideal:
    """Finitely generated ideal with lazily cached reduced Groebner bases."""

    __slots__ = ("space", "generators", "_bases")

    def __init__(self, space, generators):
        gens = []
        for g in generators:
            if isinstance(g, (int, Fraction)):
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
            cached = buchberger(list(self.generators), order, budget)
            self._bases[order] = cached
        return cached

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
    basis = ideal.basis(order=order, budget=budget)
    if not basis:
        return f
    return reduce_poly(f, _basis_data(basis, order), order, budget)


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


def eliminate(ideal, keep, budget=None, project=True):
    """Intersection of the ideal with the subring in the kept variables.

    ``keep`` is a collection of variable names.  A block order with the
    discarded variables in the leading block makes the kept variables a
    trailing block, so basis elements whose monomials avoid the discarded
    block generate the elimination ideal.  With ``project=True`` (default)
    the result lives in the restricted space.
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
    if not project:
        return Ideal(space, kept)
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
# exact division, gcd/lcm via elimination
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


def poly_lcm(f, g, budget=None):
    """lcm via (f) cap (g), computed with the standard t-trick."""
    if f.is_zero() or g.is_zero():
        return MultiPoly.zero(f.space)
    budget = _as_budget(budget)
    space = f.space
    tname = space.fresh_aux("_t")
    ext = space.with_aux((tname,))
    t = MultiPoly.variable(ext, tname)
    gens = [t * f.lift_to(ext), (MultiPoly.constant(ext, 1) - t) * g.lift_to(ext)]
    basis = buchberger(gens, elimination_order(ext, [ext.index(tname)]), budget)
    tidx = {ext.index(tname)}
    members = [b for b in basis if not b.involves(tidx)]
    if len(members) != 1:
        raise RuntimeError("principal intersection did not yield a single generator")
    return members[0].restrict_to(space).monic(GREVLEX)


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
    a Fraction.  For zero-dimensional systems the enumeration of rational
    points is exhaustive.  If a variable is unconstrained and
    ``zero_free_vars`` is set, it is pinned to 0 and ``exhaustive`` comes
    back False; without the flag such systems raise ValueError.
    """
    budget = _as_budget(budget)
    nv = space.nvars
    points = []
    exhaustive = True

    def walk(current_gens, assignment, remaining):
        nonlocal exhaustive
        basis = buchberger(current_gens, LEX, budget)
        if basis and basis[0].is_constant():
            return
        live = [g for g in basis if not g.is_zero()]
        if not live:
            pt = dict(assignment)
            if remaining:
                if not zero_free_vars:
                    raise ValueError("system is not zero-dimensional")
                exhaustive = False
                for i in remaining:
                    pt[i] = Fraction(0)
            points.append(pt)
            return
        if not remaining:
            return  # nonzero constraints but nothing left to solve: inconsistent
        idx = remaining[-1]  # lex-least variable first
        univs = [u for u in (_univariate_in(g, idx) for g in live) if u is not None]
        if not univs:
            if not zero_free_vars:
                raise ValueError("system is not zero-dimensional")
            exhaustive = False
            sub = [g.substitute({idx: 0}) for g in live]
            walk([s for s in sub if not s.is_zero()] or [MultiPoly.zero(space)],
                 {**assignment, idx: Fraction(0)}, remaining[:-1])
            return
        roots = None
        for u in univs:
            rs = set(upoly_rational_roots(u)) if len(u) > 1 else set()
            roots = rs if roots is None else roots & rs
        for r in sorted(roots or ()):
            sub = [g.substitute({idx: r}) for g in live]
            sub = [s for s in sub if not s.is_zero()]
            walk(sub or [MultiPoly.zero(space)], {**assignment, idx: r}, remaining[:-1])

    start = [g for g in gens if not g.is_zero()]
    if not start:
        if nv and not zero_free_vars:
            raise ValueError("system is not zero-dimensional")
        pt = {i: Fraction(0) for i in range(nv)}
        return ([pt], nv == 0)
    walk(start, {}, list(range(nv)))
    return points, exhaustive
