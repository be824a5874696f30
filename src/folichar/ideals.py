"""Ideals, Buchberger's algorithm, and membership certificates.

The Groebner engine is a budgeted Buchberger loop with the coprime-lead and
chain pair criteria (Gebauer-Moeller style pruning) and the normal strategy:
pairs wait on a heap keyed ``(lcm, i, j)``, so the smallest lcm goes next
and ties go to the smaller indices.  The sugar strategy was rejected: it
sped up cyclic-5 but took the lex systems of the Darboux search to about
three times as many steps.  Reduction pops terms largest first from a heap
of monomials and divides each by the first basis lead that divides it
(:func:`_first_divisor`).  One run's S-pair reductions share a divisor memo,
monomial -> (that index, how far the scan got), which stays valid because
the basis only grows by appending.  The start-of-run interreduction keeps
each element's lead and marks an element that came back unchanged as
settled; it is not reduced again until another element's new lead divides
one of its terms.  A cached basis keeps its lead data beside it for
:func:`normal_form`.  Bases are fully interreduced and monic, so for a fixed
monomial order the reduced basis of an ideal is canonical regardless of
generator order.  Every reduction step charges one unit against the step
budget; exhausting it raises :class:`BudgetExceeded` rather than returning a
wrong answer.

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
sets the guard bit.  The fields start 8 bits wide.  A new monomial with a
guard bit set, or an input exponent that does not fit, raises
:class:`_Overflow`; the computation then starts over with twice the width,
its step budget set back to the value it had on entry, so the steps charged
do not depend on the width (:func:`_widening`).  Polynomials keep their
exponent tuples outside the engine; :class:`_Packing` converts the
generators once on the way in and the basis once on the way out.

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

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd
from operator import itemgetter, mul

from .errors import BudgetExceeded, SpaceMismatch
from .polynomials import GREVLEX, LEX, SCALARS, MultiPoly, SparseSum, elimination_order
from .scalars import (common_field, content, from_integral, integral_multiple, norm_cofactor,
                      rational_integer, scalar_inverse, upoly_rational_roots,
                      upoly_squarefree_part, upoly_trim)

DEFAULT_BUDGET = 10 ** 6
_CONTENT_EVERY = 8  # budget steps between divisions by the content over Z and Z[alpha]
_WIDTH = 8  # bits per exponent field of the first attempt


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


def _step(c, lc):
    """(a, b) with a*c == b*lc: fraction-free for int leads, a = 1 over a field."""
    if type(lc) is int:
        d = gcd(c if type(c) is int else content(c), lc)
        return lc // d, c // d
    return 1, c if lc == 1 else c * scalar_inverse(lc)


def _first_divisor(e, leads, memo, guard):
    """Index of the first lead dividing e, or None.

    ``memo`` maps e to (that index or None, how many leads were scanned), so
    a list that only grows by appending is never rescanned from the start.
    """
    found, start = memo.get(e, (None, 0))
    if found is None and start < len(leads):
        for k in range(start, len(leads)):
            if not (e - leads[k]) & guard:
                found = k
                break
        memo[e] = (found, len(leads))
    return found


def reduce_poly(f, basis, pack, budget, memo=None):
    """Normal form (for int leads, a multiple of it) of the packed terms f by
    (lead, lead_coeff, terms) entries of the packing ``pack``.

    ``memo`` is the divisor memo of :func:`_first_divisor`; share one only
    across calls whose basis lists extend each other.
    """
    memo = {} if memo is None else memo
    leads = [b[0] for b in basis]
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
        k = _first_divisor(e, leads, memo, guard)
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
        _sub_multiple(p, heap, g, le, e - le, c, guard)
    return _Packed(tail)


def _basis_data(polys):
    return [(le, rational_integer(g[le]), g) for g in polys for le in [max(g)]]


def _normalized(g):
    """Packed terms over Z or Z[beta] made primitive with a positive integer lead."""
    lc = g[max(g)]
    if type(lc) is int:
        d = gcd(*g.values()) * (1 if lc > 0 else -1)
        return {e: c // d for e, c in g.items()}
    m = norm_cofactor(lc)
    terms = {e: c * m for e, c in g.items()}
    d = content(*terms.values())
    return {e: c // d for e, c in terms.items()}


def _interreduce(polys, pack, budget):
    """Make a generating set of normalized packed polynomials fully autoreduced.

    The restart loop: sort by lead, reduce each element by all the others
    and start over after the first one that changes.  Each entry keeps its
    lead data and whether it is settled (came back unchanged, so none of its
    terms is divisible by another lead); a settled element is skipped until
    another element's new lead divides one of its terms.
    """
    guard = pack.guard
    # [lead, (lead, int lead coefficient, terms), settled]
    entries = [[data[0], data, False] for data in _basis_data(polys)]
    changed = True
    while changed:
        changed = False
        entries.sort(key=itemgetter(0))
        for i, entry in enumerate(entries):
            if entry[2] or len(entries) == 1:
                continue
            g = entry[1][2]
            r = reduce_poly(g, [o[1] for o in entries if o is not entry], pack, budget)
            if r.terms == g:
                entry[2] = True
                continue
            changed = True
            if r.is_zero():
                entries.pop(i)
                break
            # r is reduced by the other leads, so it is settled as it stands
            data, = _basis_data([_normalized(r.terms)])
            le = data[0]
            entries[i] = [le, data, True]
            if le != entry[0]:
                for other in entries:
                    if other[2] and other is not entries[i] and any(
                            not (e - le) & guard for e in other[1][2]):
                        other[2] = False
            break
    return [entry[1][2] for entry in entries]


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

    def run(width):
        pack = _packing(space, order, width)
        guard, lcm = pack.guard, pack.lcm
        data = _basis_data(_interreduce([_normalized(pack.encode(
            g, integral_multiple(g.terms.values(), field))) for g in gens], pack, budget))
        if any(le == 0 for le, _, _ in data):
            return [MultiPoly.constant(space, 1)]
        memo = {}  # data only grows by appending, so one divisor memo serves every S-pair
        pairs = []
        done = set()

        def push_pairs(j):
            ej = data[j][0]
            for i in range(j):
                heappush(pairs, (lcm(data[i][0], ej), i, j))

        for j in range(1, len(data)):
            push_pairs(j)
        while pairs:
            m, i, j = heappop(pairs)
            done.update(((i, j), (j, i)))
            (ei, ci, gi), (ej, cj, gj) = data[i], data[j]
            if m == ei + ej:  # coprime-lead criterion
                continue
            # chain criterion: some k with lt(k) | lcm and both side pairs settled
            if any((i, k) in done and (j, k) in done and not (m - data[k][0]) & guard
                   for k in range(len(data))):
                continue
            # S-polynomial a*x^(lcm-ei)*gi - b*x^(lcm-ej)*gj; its lead terms cancel
            a, b = _step(ci, cj)
            s = {}
            _sub_multiple(s, [], gi, ei, m - ei, -a, guard)
            _sub_multiple(s, [], gj, ej, m - ej, b, guard)
            budget.charge()
            r = reduce_poly(s, data, pack, budget, memo)
            if r.is_zero():
                continue
            data += _basis_data([_normalized(r.terms)])
            if data[-1][0] == 0:
                return [MultiPoly.constant(space, 1)]
            push_pairs(len(data) - 1)
        # One final pass, leads ascending: a lead divisible by an earlier lead is
        # redundant; a tail term can only be divided by a smaller lead, so each
        # survivor is tail-reduced against the survivors before it.
        data.sort(key=itemgetter(0))
        reduced = []
        for le, _, g in data:
            if all((le - ke) & guard for ke, _, _ in reduced):
                r = reduce_poly(g, reduced, pack, budget).terms
                reduced.append((le, rational_integer(r[le]), r))
        return [pack.decode({e: from_integral(c, lc, field) for e, c in g.items()})
                for _, lc, g in reduced]

    return _widening(run, budget)


# ---------------------------------------------------------------------------
# ideal objects
# ---------------------------------------------------------------------------

class Ideal:
    """Finitely generated ideal with lazily cached reduced Groebner bases."""

    # order -> [basis, (packing, its _basis_data) once a normal form needs it]
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
            cached[1] = pack, _basis_data([pack.encode(g) for g in cached[0]])
        return cached[1]

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
        return "ideal(" + ", ".join(str(g) for g in self.generators) + ")"

    __repr__ = __str__


def normal_form(f, ideal, order=GREVLEX, budget=None):
    """Canonical remainder of f modulo the ideal for the given order."""
    budget = _as_budget(budget)
    if f.space != ideal.space:
        raise SpaceMismatch(f"{f.space} vs {ideal.space}")
    if not ideal.basis(order=order, budget=budget):
        return f

    def run(width):
        pack, data = ideal._lead_data(order, width)
        return pack.decode(reduce_poly(pack.encode(f), data, pack, budget).terms)

    return _widening(run, budget)


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
    ideal.basis(order=order, budget=budget)
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


def standard_monomials(ideal, order=GREVLEX, budget=None):
    """Monomial basis of the quotient ring for a zero-dimensional ideal."""
    mons = _standard_monomials(ideal, order, budget)
    if mons is None:
        raise ValueError("ideal is not zero-dimensional")
    return sorted(mons, key=order.key)


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


def rational_points(gens, space, budget=None):
    """Rational solutions of a polynomial system by lex triangularization.

    Returns ``(points, exhaustive)`` where each point maps variable index to
    a Fraction.  Every rational point of a zero-dimensional system is listed:
    each branch substitutes the rational roots of the univariate eliminant,
    the one element of its reduced lex basis in the lex-least remaining
    variable.  ``exhaustive`` says more: the points listed are all the
    solutions over the algebraic closure.  It comes back False when the
    univariate eliminant of some branch has more distinct roots (the degree
    of its squarefree part) than rational ones, since each of its roots
    extends to a solution.  A variable with no eliminant (a branch of
    positive dimension, or an empty basis) is pinned to 0, and
    ``exhaustive`` comes back False too; every point listed still solves the
    system.  Generators over another space raise :class:`SpaceMismatch`.
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
            exhaustive = exhaustive and not remaining
            points.append({**assignment, **dict.fromkeys(remaining, Fraction(0))})
            return
        if basis[0].is_constant():
            return
        idx = remaining[-1]  # lex-least variable first
        u = next((u for u in (_univariate_in(g, idx) for g in basis) if u is not None), None)
        if u is None:
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
