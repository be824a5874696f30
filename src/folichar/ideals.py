"""Ideals, the signature-based Groebner engine, and membership certificates.

The Groebner engine is the signature loop of Gao, Volny and Wang (Math.
Comp. 85, 2016), the GVW form of Faugere's F5 (ISSAC 2002), under a step
budget.  It runs over the generators g_1..g_r, leads ascending, that a
worklist interreduced at the start of the run.  Each basis element (u, v)
carries the signature u of the module element it comes from, x^a*e_i,
ordered position over term.  The J-pair of two elements is the side of
larger signature at the lcm of their leads.
J-pairs pop from a heap in signature order, ties by lcm, and one is skipped
when
- the syzygy criterion holds: the signature of a known syzygy divides its
  own.  The known syzygies are the principal ones, lt(v')*u - lt(v)*u' for
  two elements whose two terms differ, and every signature whose reduction
  ended at 0;
- the cover criterion holds: some element (u', v') has u' | u and
  (u/u')*lt(v') below the J-pair's lcm.  A J-pair at the signature just
  reduced is covered by what that reduction gave.
A surviving J-pair's S-polynomial is reduced regularly: a divisor counts
only if its signature times the cofactor is below the J-pair's, and the one
of smallest signature goes first.  A nonzero remainder joins the basis.  No
remainder is singular, since a divisor of its lead at the J-pair's own
signature would have covered the J-pair.  On a regular sequence no J-pair
reduces to 0.  A final pass, leads ascending, drops every element whose lead
an earlier lead divides and tail-reduces the rest.

Reduction pops terms largest first from a heap of monomials and divides each
by the first basis lead that divides it, or in the signature loop by the
regular one of smallest signature.  One run's J-pair reductions share a
divisor memo, monomial -> (the indices of the leads dividing it, how far the
scan got), which stays valid because the basis only grows by appending.  The
start-of-run worklist sends a kept element back only when a new lead divides
one of its terms.  A cached basis keeps its lead data beside it for
:func:`normal_form`.  Bases are fully interreduced and monic, so for a fixed
monomial order the reduced basis of an ideal is canonical regardless of
generator order.  Every reduction step and every J-pair reduced charges one
unit against the step budget; exhausting it raises :class:`BudgetExceeded`
rather than returning a wrong answer.

Inside the engine a monomial is one int (:class:`_Packing`; Bachmann and
Schoenemann, ISSAC 1998; Monagan and Pearce, CASC 2007).  Its high bits hold
the fields the order compares, so ``<`` on ints is the monomial order: for
lex the exponents e1..en; for grevlex the degree, then the partial sums
s_(n-1)..s_1 (s_k = e1 + ... + ek; a larger s_(n-1) is a smaller en); for a
block order those fields of each block in turn.  The low bits hold the
exponents themselves (lex needs no second copy).  Every field is the same
number of bits wide plus one guard bit above it, and every field is linear
in the exponents, so x^a * x^b is ``a + b`` and x^a | x^b exactly when
``(b - a) & guard`` is 0: a field of a larger than that of b borrows and
sets the guard bit.  A signature is one int as well, the generator index
shifted above every guard bit plus the monomial, so position over term is
``<``, x^a times a signature is ``+ a`` and divisibility is the guard test
with the index bits added to the mask.  The fields start 8 bits wide.  A new
monomial or signature with a guard bit set, or an input exponent that does
not fit, raises :class:`_Overflow`; the computation then starts over with
twice the width, its step budget set back to the value it had on entry, so
the steps charged do not depend on the width (:func:`_widening`).
Polynomials keep their exponent tuples outside the engine; :class:`_Packing`
converts the generators once on the way in and the basis once on the way
out.

:func:`buchberger` picks one coefficient rule from the generators' field
(:class:`scalars.IntegerRule` over Q, :class:`scalars.ZBetaRule` over
Q(alpha)) and hands it to :func:`_interreduce` and :func:`reduce_poly`; the
monic cached bases of :func:`normal_form` take none, so a step subtracts c*x^s*g.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import count, product
from operator import itemgetter, mul

from .errors import BudgetExceeded, SpaceMismatch
from .polynomials import GREVLEX, LEX, SCALARS, MultiPoly, SparseSum, elimination_order
from .scalars import (IntegerRule, ZBetaRule, common_field, scalar_inverse,
                      upoly_rational_roots, upoly_squarefree_part, upoly_trim)

DEFAULT_BUDGET = 10 ** 6
_CONTENT_EVERY = 8  # budget steps between divisions by the rule's content
_WIDTH = 8  # bits per exponent field of the first attempt


class StepBudget:
    """Shared countdown of reduction steps for one top-level computation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=None):
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.used = 0

    def charge(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(f"exceeded {self.limit} reduction steps")


def _as_budget(budget):
    return StepBudget() if budget is None else budget


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

class _Overflow(Exception):
    """A monomial does not fit the exponent fields of its packing."""


class _Packing:
    """Exponent tuples of one space as ints whose ``<`` is the monomial order.

    ``shifts[i]`` is the bit offset of the field holding the exponent of
    variable i and ``cols[i]`` the code of that variable, so the code of e
    is sum(e[i] * cols[i]).  ``raw`` masks the exponent fields, ``guard``
    the guard bits of all fields.
    """

    __slots__ = ("space", "width", "mask", "guard", "raw", "shifts", "cols",
                 "_blocks", "_parts", "_raw_bits", "_raw_guard")

    def __init__(self, space, order, width):
        n = space.nvars
        blocks = ([(i,) for i in range(n)] if order.name == "lex" else
                  [tuple(range(n))] if order.name == "grevlex" else list(order.blocks))
        if sorted(i for blk in blocks for i in blk) != list(range(n)):
            raise SpaceMismatch(f"blocks {order.blocks} do not split the variables of {space}")
        size = width + 1  # the field and its guard bit
        lex = all(len(blk) == 1 for blk in blocks)  # the exponents are the order fields
        shifts = [0] * n
        # exponent fields: the first block highest, each block's first variable
        # lowest in it, so one product with sum(2^(k*size)) gives its partial sums
        self._parts = []  # (bit offset, mask, partial-sum multiplier) per block
        slot = 0
        for blk in reversed(blocks):
            for k, i in enumerate(blk):
                shifts[i] = (slot + k) * size
            if not lex:
                self._parts.append((slot * size, (1 << len(blk) * size) - 1,
                                    sum(1 << k * size for k in range(len(blk)))))
            slot += len(blk)
        self.space, self.width, self._blocks = space, width, blocks
        self.mask = (1 << width) - 1
        self.shifts = tuple(shifts)
        self._raw_bits = slot * size
        self.raw = (1 << self._raw_bits) - 1
        fields = slot if lex else 2 * slot
        self.guard = sum(1 << k * size + width for k in range(fields))
        self._raw_guard = self.guard & self.raw
        self.cols = tuple(self._with_order(1 << s) for s in shifts)

    def _with_order(self, r):
        """The code whose exponent fields are those of r."""
        if not self._parts:
            return r
        o = 0
        for off, m, k in self._parts:
            o |= (((r >> off) & m) * k & m) << off
        return o << self._raw_bits | r

    def code(self, e):
        """The int of the exponent tuple e; :class:`_Overflow` if it does not fit."""
        limit = self.mask + 1
        if sum(e) >= limit and any(sum(e[i] for i in b) >= limit for b in self._blocks):
            raise _Overflow
        return sum(map(mul, e, self.cols))

    def exponents(self, m):
        return tuple([(m >> s) & self.mask for s in self.shifts])

    def encode(self, g, coeffs=None):
        """{code: coefficient} of the polynomial g, with ``coeffs`` in place of
        its coefficients if given."""
        if g.space != self.space:
            raise SpaceMismatch(f"{g.space} vs {self.space}")
        cs = g.terms.values() if coeffs is None else coeffs
        return {self.code(e): c for e, c in zip(g.terms, cs)}

    def decode(self, terms):
        return MultiPoly(self.space, {self.exponents(m): c for m, c in terms.items()})

    def lcm(self, a, b):
        a, b = a & self.raw, b & self.raw
        t = ((a | self._raw_guard) - b) & self._raw_guard  # guard bit where a >= b
        m = self._with_order(b ^ ((a ^ b) & (t - (t >> self.width))))
        if m & self.guard:
            raise _Overflow
        return m


@lru_cache(maxsize=64)
def _packing(space, order, width):
    return _Packing(space, order, width)


def _widening(run, budget=None):
    """run(width) with 8, 16, 32, ... bits per exponent until nothing
    overflows; each retry starts from the budget's value on entry."""
    start, width = (None if budget is None else budget.used), _WIDTH
    while True:
        try:
            return run(width)
        except _Overflow:
            if budget is not None:
                budget.used = start
            width *= 2


class _Packed(SparseSum):
    """A polynomial inside the engine: ``terms`` maps packed monomials to
    coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms


# ---------------------------------------------------------------------------
# division / normal form
# ---------------------------------------------------------------------------

def _sub_multiple(p, heap, g, le, shift, factor, guard):
    """p -= factor * x^shift * (g - lead term); new monomials go on the heap once."""
    neg = -factor
    for ge, gc in g.items():
        if ge == le:
            continue
        ne = ge + shift
        c = p.get(ne)
        if c is None:
            if ne & guard:
                raise _Overflow
            p[ne] = neg * gc
            heappush(heap, -ne)
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


def _divisors(e, leads, memo, guard):
    """Indices of the leads dividing e, in order.

    ``memo`` maps e to (those indices, how many leads were scanned), so a
    list that only grows by appending is never rescanned from the start.
    """
    found, start = memo.get(e, ([], 0))
    if start < len(leads):
        for k in range(start, len(leads)):
            if not (e - leads[k]) & guard:
                found.append(k)
        memo[e] = (found, len(leads))
    return found


def _add_syzygy(syzygies, sig, index, guard):
    """Add sig to the syzygy signatures of its generator index unless one
    of them divides it."""
    known = syzygies.setdefault(sig // index, [])
    for h in known:
        if not (sig - h) & guard:
            return
    known.append(sig)


def reduce_poly(f, basis, pack, budget, rule=None, memo=None, sig=None):
    """Normal form of the packed terms f by (lead, lead_coeff, terms) entries
    of the packing ``pack``; with a coefficient ``rule``, a multiple of it.

    With a signature ``sig`` every entry carries its signature fourth and the
    reduction is regular: a divisor counts only if its signature times the
    cofactor is below ``sig``, and of those the one of smallest signature
    (the first on a tie) goes first.
    ``memo`` is the divisor memo of :func:`_divisors`; share one only across
    calls whose basis lists extend each other.
    """
    memo = {} if memo is None else memo
    leads = [b[0] for b in basis]
    if sig is not None:
        offsets = [b[3] - b[0] for b in basis]  # e + offset: the divisor's signature at e
    guard = pack.guard
    tail = {}
    p = dict(f)
    heap = [-e for e in p]
    heapify(heap)
    while heap:
        e = -heappop(heap)
        c = p.pop(e, None)
        if c is None:  # cancelled after it was pushed
            continue
        divs = _divisors(e, leads, memo, guard)
        k = divs[0] if divs else None
        if sig is not None:  # the regular divisor of smallest signature at e
            k = None
            for d in divs:
                if e + offsets[d] < sig and (k is None or offsets[d] < offsets[k]):
                    k = d
        if k is None:
            tail[e] = c
            continue
        le, lc, g = basis[k][:3]
        budget.charge()
        if rule is not None:
            if budget.used % _CONTENT_EVERY == 0:
                d = rule.content(c, *p.values(), *tail.values())
                if d != 1:
                    c //= d
                    _rescale(p, tail, 1, d)
            a, c = rule.step(c, lc)
            if a != 1:
                _rescale(p, tail, a)
        _sub_multiple(p, heap, g, le, e - le, c, guard)
    return _Packed(tail)


def _interreduce(polys, pack, budget, rule):
    """Make a generating set of primitive packed polynomials fully autoreduced.

    The worklist of Becker and Weispfenning (Groebner Bases, 1993, ch. 5):
    pop the smallest lead (the latest pushed on a tie), reduce it by the kept
    (lead, int lead coefficient, terms) entries, leads ascending, keep the
    primitive remainder and send back each kept entry its new lead reduces.
    """
    guard, tick, kept = pack.guard, count(0, -1), []
    todo = sorted((max(g), next(tick), g) for g in polys)  # a sorted list is a heap
    while todo:
        r = reduce_poly(heappop(todo)[2], kept, pack, budget, rule)
        if r.is_zero():
            continue
        le = max(r.terms)
        g = rule.primitive(r.terms, le)
        i = bisect(kept, le, key=itemgetter(0))
        stay = [(le, rule.lead(g[le]), g)]
        for k in kept[i:]:  # a term that le divides is at least le
            if any(not (e - le) & guard for e in k[2]):
                heappush(todo, (k[0], next(tick), k[2]))
            else:
                stay.append(k)
        kept[i:] = stay
    return [k[2] for k in kept]


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def buchberger(gens, order, budget):
    """Reduced Groebner basis of the given generators, budgeted.

    Generators over different spaces raise :class:`SpaceMismatch`.
    """
    budget = _as_budget(budget)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    space = gens[0].space
    field = common_field(c for g in gens for c in g.terms.values())
    rule = IntegerRule() if field is None else ZBetaRule(field)

    def run(width):
        pack = _packing(space, order, width)
        guard, lcm = pack.guard, pack.lcm
        index = 1 << guard.bit_length()  # signature of x^a*e_i: i*index + a
        apart = guard | -index  # (s - t) & apart is 0 iff t divides s
        cleared = [pack.encode(g, rule.clear(g.terms.values())) for g in gens]
        start = _interreduce([rule.primitive(g, max(g)) for g in cleared], pack, budget, rule)
        # (lead, int lead coefficient, terms, signature); the divisor memo
        # serves every J-pair, because data only grows by appending
        data, syzygies, jpairs, memo = [], {}, [], {}

        def append(g, sig):
            le, n = max(g), len(data)
            for k, (ke, _, _, ks) in enumerate(data):
                m = lcm(ke, le)
                a, b = sig + m - le, ks + m - ke  # signatures of the J-pair's two sides
                c, d = sig + ke, ks + le  # and of the principal syzygy's two terms
                if (a | b | c | d) & guard:
                    raise _Overflow
                if a != b:
                    heappush(jpairs, (a, m, n, k) if a > b else (b, m, k, n))
                if c != d:
                    _add_syzygy(syzygies, max(c, d), index, guard)
            data.append((le, rule.lead(g[le]), g, sig))

        for i, g in enumerate(start):
            if max(g) == 0:
                return [MultiPoly.constant(space, 1)]
            append(g, i * index)
        last = None
        while jpairs:
            sig, m, i, j = heappop(jpairs)
            if (sig == last  # what the pair reduced at sig gave covers this one
                    or any(not (sig - h) & guard for h in syzygies.get(sig // index, ()))
                    or any(not (sig - ks) & apart and sig - ks + ke < m for ke, _, _, ks in data)):
                continue
            last = sig
            # S-polynomial a*x^(m-ei)*gi - b*x^(m-ej)*gj, of signature sig
            (ei, ci, gi, _), (ej, cj, gj, _) = data[i], data[j]
            a, b = IntegerRule.step(ci, cj)
            s = {}
            _sub_multiple(s, [], gi, ei, m - ei, -a, guard)
            _sub_multiple(s, [], gj, ej, m - ej, b, guard)
            budget.charge()
            r = reduce_poly(s, data, pack, budget, rule, memo, sig)
            if r.is_zero():
                _add_syzygy(syzygies, sig, index, guard)
                continue
            g = rule.primitive(r.terms, max(r.terms))
            if max(g) == 0:
                return [MultiPoly.constant(space, 1)]
            append(g, sig)
        # One final pass, leads ascending: a lead divisible by an earlier lead is
        # redundant; a tail term can only be divided by a smaller lead, so each
        # survivor is tail-reduced against the survivors before it.
        data.sort(key=itemgetter(0))
        reduced = []
        for le, _, g, _ in data:
            if all((le - ke) & guard for ke, _, _ in reduced):
                r = reduce_poly(g, reduced, pack, budget, rule).terms
                reduced.append((le, rule.lead(r[le]), r))
        return [pack.decode({e: rule.restore(c, lc) for e, c in g.items()})
                for _, lc, g in reduced]

    return _widening(run, budget)


# ---------------------------------------------------------------------------
# ideal objects
# ---------------------------------------------------------------------------

class Ideal:
    """Finitely generated ideal with lazily cached reduced Groebner bases."""

    # order -> [basis, (packing, its lead data) once a normal form needs it]
    __slots__ = ("space", "generators", "_bases")

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
            cached = self._bases[order] = [buchberger(list(self.generators), order, budget), None]
        return cached[0]

    def _lead_data(self, order, width):
        """(packing at least ``width`` bits wide, its lead data) of the cached basis."""
        cached = self._bases[order]
        if cached[1] is None or cached[1][0].width < width:
            pack = _packing(self.space, order, width)
            # monic, and reduce_poly reads no lead coefficient without a rule
            cached[1] = pack, [(max(g), 1, g) for g in map(pack.encode, cached[0])]
        return cached[1]

    def has_cached_basis(self, order=GREVLEX):
        return order in self._bases

    def is_unit(self, budget=None):
        b = self.basis(budget=budget)
        return bool(b) and b[0].is_constant()

    def contains(self, f, budget=None):
        return normal_form(f, self, budget=budget).is_zero()

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
        return "ideal(" + ", ".join(str(g) for g in self.generators) + ")"

    __repr__ = __str__


def normal_form(f, ideal, order=GREVLEX, budget=None):
    """Canonical remainder of f modulo the ideal for the given order; f over
    another space raises :class:`SpaceMismatch` (from the packing)."""
    budget = _as_budget(budget)
    ideal.basis(order=order, budget=budget)  # cached for _lead_data

    def run(width):
        pack, data = ideal._lead_data(order, width)
        return pack.decode(reduce_poly(pack.encode(f), data, pack, budget).terms)

    return _widening(run, budget)


# ---------------------------------------------------------------------------
# radical membership, elimination, dimension-zero toolkit
# ---------------------------------------------------------------------------

def radical_membership(f, ideal, budget=None):
    """Does f vanish on the zero set of the ideal (f in the radical)?

    Answered in order from the cached grevlex basis:
    1. yes if f is in the ideal;
    2. no if the basis has degree <= 1 (a prime ideal over Q and every
       Q(alpha), or zero);
    3. for a basis (P) of one polynomial: no if P involves a variable that f
       does not, else yes exactly when P divides f^N, N the largest exponent
       of one variable in P.  By unique factorization f is in the radical of
       (P) iff each prime factor p of P divides f, so f involves every
       variable of P; and p^m | P with p in v gives m <= deg_v P <= N (Cox,
       Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 4 s. 2);
    4. else yes when (ideal, 1 - w*f), w a fresh variable, is the unit ideal.
    """
    budget = _as_budget(budget)
    if f.is_zero():
        return True
    r = normal_form(f, ideal, budget=budget)
    if r.is_zero():
        return True
    basis = ideal.basis(budget=budget)
    if all(g.degree() <= 1 for g in basis):
        return False
    if len(basis) == 1:
        tops = [max(col) for col in zip(*basis[0].terms)]
        uses = [any(col) for col in zip(*f.terms)]
        if any(t and not u for t, u in zip(tops, uses)):
            return False
        power = r
        for _ in range(max(tops) - 1):  # f^k mod P for k = 2..N
            power = normal_form(power * r, ideal, budget=budget)
            if power.is_zero():
                return True
        return False
    wname = ideal.space.fresh_aux("_w")
    ext = ideal.space.with_aux((wname,))
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
    ideal.basis(order=order, budget=budget)  # cached for _lead_data
    pack, data = _widening(lambda width: ideal._lead_data(order, width))
    # the exponent fields alone: a standard monomial's degree may not fit the order fields
    leads = [le & pack.raw for le, _, _ in data]
    steps = []
    for s in pack.shifts:
        pure = [le >> s for le in leads if not le & ~(pack.mask << s)]
        if not pure:
            return None
        steps.append(range(0, min(pure) << s, 1 << s))
    guard = pack.guard
    return [pack.exponents(m) for m in (sum(ms) for ms in product(*steps))
            if all((m - le) & guard for le in leads)]


def krull_dim_zero_check(ideal, order=GREVLEX, budget=None):
    """(True, vector-space dimension) if dim V(I) = 0, else (False, None).

    Zero-dimensionality over the algebraic closure holds iff every variable
    has a pure power among the leading monomials; the count of standard
    monomials is then the dimension of the quotient as a vector space.
    """
    mons = _standard_monomials(ideal, order, budget)
    return (False, None) if mons is None else (True, len(mons))


# ---------------------------------------------------------------------------
# exact division, determinants, gcd/lcm via elimination
# ---------------------------------------------------------------------------

def exact_divide(f, g):
    """Quotient f/g when g divides f exactly; raises ValueError otherwise.

    Operands over different spaces raise :class:`SpaceMismatch`.
    """
    if g.is_zero():
        raise ZeroDivisionError("exact division by zero polynomial")

    def run(width):
        pack = _packing(f.space, GREVLEX, width)
        p, d = pack.encode(f), pack.encode(g)
        le = max(d)
        inv = scalar_inverse(d[le])
        quot = {}
        heap = [-e for e in p]
        heapify(heap)
        while heap:
            e = -heappop(heap)
            c = p.pop(e, None)
            if c is None:
                continue
            if (e - le) & pack.guard:
                raise ValueError("division is not exact")
            q = quot[e - le] = c * inv
            _sub_multiple(p, heap, d, le, e - le, q, pack.guard)
        return pack.decode(quot)

    return _widening(run)


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


def poly_gcd(polys, budget=None):
    """Monic gcd of ``polys``, or None when every one is 0.

    Pairwise as f*g / lcm(f, g), the lcm generating (f) cap (g), which the
    t-trick eliminates from (t*f, (1 - t)*g); stops at a constant.
    """
    budget = _as_budget(budget)
    acc = None
    for g in polys:
        if g.is_zero():
            continue
        if acc is not None:
            space = g.space
            tname = space.fresh_aux("_t")
            ext = space.with_aux((tname,))
            t = MultiPoly.variable(ext, tname)
            gens = [t * acc.lift_to(ext), (MultiPoly.constant(ext, 1) - t) * g.lift_to(ext)]
            (lcm,) = eliminate(Ideal(ext, gens), space.all_vars, budget=budget).generators
            g = exact_divide(acc * g, lcm).monic(GREVLEX)
        acc = g
        if acc.is_constant():
            break
    return None if acc is None else acc.monic(GREVLEX)


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
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return upoly_trim(out)


def _specialize(basis, special, idx):
    """The elements of ``special``, the lex basis ``basis`` at x_idx = r,
    whose leading coefficient in Q[x_idx] is nonzero at r, if every other
    vanishes at r; else None."""
    kept = []
    for g, h in zip(basis, special):
        e = g.leading(LEX)[0]
        if h.terms.get(e[:idx] + (0,) + e[idx + 1:]):
            kept.append(h)
        elif h.terms:
            return None
    return kept


def rational_points(gens, space, budget=None):
    """Rational solutions of a polynomial system by lex triangularization.

    Returns ``(points, exhaustive)`` where each point maps variable index to
    a Fraction.  Every rational point of a zero-dimensional system is listed:
    each branch substitutes the rational roots of the univariate eliminant,
    the element of least degree of its lex basis in the lex-least remaining
    variable.  ``exhaustive`` says more: the points listed are all the
    solutions over the algebraic closure.  It comes back False when the
    univariate eliminant of some branch has more distinct roots (the degree
    of its squarefree part) than rational ones, since each of its roots
    extends to a solution.  A variable with no eliminant (a branch of
    positive dimension, or an empty basis) is pinned to 0, and
    ``exhaustive`` comes back False too; every point listed still solves the
    system.  Generators over another space raise :class:`SpaceMismatch`.

    Only the root computes a basis; a branch specializes its parent's.  Let
    G be a lex Groebner basis of I in Q[x_0..x_k], read over Q[x_k], and
    r in Q, a root of the eliminant or a pinned 0.  If every g in G whose
    leading coefficient vanishes at r reduces at x_k = r to 0 by the others
    at x_k = r, those others are a lex basis of I at x_k = r (Kalkbrener,
    J. Symbolic Comput. 24, 1997).  The walk keeps them when each such g is
    0 at x_k = r, and else runs :func:`buchberger` again on the whole basis
    at x_k = r.  A root of a nonzero eliminant, which extends to a zero
    (Gianni, EUROCAL '87, LNCS 378), is not enough: y*x0 + x1 of
    (y*x0 + x1, y^2, x0^2) is x1 at y = 0, which the others miss.  Nor is
    a pinned 0: -z0^2*z1^2 - z0*z1 + 1 is 1 at z1 = 0 and keeps nothing.
    """
    if any(g.space != space for g in gens):
        raise SpaceMismatch(f"the system does not live in {space}")
    budget = _as_budget(budget)
    points = []
    exhaustive = True

    def walk(basis, assignment, remaining):
        nonlocal exhaustive
        if not basis:
            exhaustive = exhaustive and not remaining
            points.append({**assignment, **dict.fromkeys(remaining, Fraction(0))})
            return
        if any(g.is_constant() for g in basis):  # a specialized basis is not sorted
            return
        idx = remaining[-1]  # lex-least variable first
        u = min(filter(None, (_univariate_in(g, idx) for g in basis)), key=len, default=None)
        if u is None:
            exhaustive = False
            roots = [Fraction(0)]
        else:
            roots = upoly_rational_roots(u)
            # more distinct roots than rational ones needs deg u > len(roots)
            if len(u) > len(roots) + 1 and len(upoly_squarefree_part(u)) > len(roots) + 1:
                exhaustive = False
        for r in sorted(roots):
            special = [g.substitute({idx: r}) for g in basis]
            kept = _specialize(basis, special, idx)
            if kept is None:
                kept = buchberger(special, LEX, budget)
            walk(kept, {**assignment, idx: r}, remaining[:-1])

    if not any(g.terms and g.is_constant() for g in gens):
        walk(buchberger(gens, LEX, budget), {}, list(range(space.nvars)))
    return points, exhaustive
