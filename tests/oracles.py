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

:func:`buchberger` and :func:`reduce_poly` are the engine as it was before
monomials were packed into ints and the pair loop gave way to the signature
loop: exponent tuples, compared through ``order.key`` and a reverse key
(:func:`_rkey`), with the divisor memo; its bases are the reference.
:func:`_interreduce`, where both loops start, is the engine's start-of-run
worklist on the same tuples: it pops the element of smallest lead (the
latest pushed on a tie), reduces it by the kept ones and sends back every
kept element with a term the new lead divides, checking all of them where
the engine checks only those of larger lead.  :func:`signature_buchberger`
and :func:`signature_reduce` are the engine's signature loop on the same
tuples, signatures (generator index, exponents) compared position over
term; its step counts are the reference.  :func:`scan_reduce_poly` writes
its reduction plainly: every popped term rescans the basis for its first
divisor.  All of them share the engine's step arithmetic: each takes the
step, content, primitive form, lead, cleared input and restored output of
a coefficient rule of ``scalars`` (none for a monic basis), so the packed
engine must give the same bases and charge the same steps.
:func:`rerun_rational_points` is the lex walk of
``rational_points`` that computes a reduced basis with :func:`buchberger`
at every node, on the basis of the node above with its value substituted,
where the library specializes the basis of the root.
:func:`rabinowitsch_membership` is radical membership by Rabinowitsch's
trick alone, on the engine above, where ``radical_membership`` first
answers from the ideal's own basis: f in the ideal, a linear ideal, or a
principal ideal (P) by whether P divides a power of f.

:func:`direct_prolongation` is the first prolongation by its coordinate
formula, independent of the Hamiltonian of the characteristic polynomial
that ``prolong`` returns.  :func:`two_path_substitute` is the substitution
with a separate loop for scalar values and a polynomial sum for the rest:
the library's one loop must match it in value, coefficient type and term
order.

:func:`expanded_darboux_equations` writes the coefficient equations of
xi(g) - c*g out on exponent tuples, one unknown at a time, where
``darboux_search`` reads them off polynomial arithmetic with the unknowns as
auxiliary variables.  :func:`shift_reduce_powers` builds the table of
alpha^d, ..., alpha^(2d-2) by shifting and subtracting the minimal
polynomial, where ``NumberField`` divides t^k by it.  :func:`upoly_mul` is
the schoolbook product of two univariate coefficient tuples.
:func:`enumerated_rational_roots` tries every candidate num/dd, in lowest
terms or not, by evaluating p at a Fraction (:func:`upoly_eval`), where
``upoly_rational_roots`` skips the unreduced ones and tests the rest by
integer Horner.

:func:`merge_exterior_derivative` is d(w) term by term, each dp/dv_j
inserted into its index tuple with the sign of moving dv_j past the indices
below j, where ``exterior_derivative`` sums dv_j ^ (dw/dv_j) through
``wedge``.  :func:`char_parse_point` splits a point one character at a time
and parses each coordinate on its own, where ``Session.parse_point`` splits
the tokens of the session lexer.

:func:`termwise_product` multiplies two polynomials one coefficient product
at a time, where ``MultiPoly.__mul__`` multiplies the integer numerators of
two rational polynomials and divides once per term.

:func:`pullback_torus_invariant` pulls w back along x_i -> t_i * x_i, one
fresh auxiliary t_i per direction, and tests every 2x2 minor against w,
where ``is_torus_invariant_form`` asks whether the products c_I * x_I are
scalar multiples of one polynomial.  :func:`enumerated_covers` tries every
subset of the involved variables, smallest first, where
``coordinate_subspace_decomposition`` grows the minimal covers one support
at a time.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, count, product
from math import gcd
from operator import add, itemgetter, le as _le, sub

from folichar.errors import ParseError
from folichar.ideals import (
    _CONTENT_EVERY,
    Ideal,
    _as_budget,
    _rescale,
    _univariate_in,
    eliminate,
    krull_dim_zero_check,
)
from folichar.foliations import PolyVectorField
from folichar.forms import PolyForm, proportional_forms
from folichar.parser import _constant_scalar, parse_expression
from folichar.polynomials import GREVLEX, LEX, SCALARS, MultiPoly
from folichar.scalars import (
    IntegerRule, ZBetaRule, _int_divisors, common_field, upoly_rational_roots,
    upoly_squarefree_part, upoly_trim,
)

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


def _divides(e1, e2):
    return all(map(_le, e1, e2))


def _exp_sub(e1, e2):
    return tuple(map(sub, e1, e2))


def _exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _grevlex_rkey(exp):
    return (-sum(exp), exp[::-1])


def _rkey(order, exp):
    """Key of the reverse order: a min-heap on it pops the largest monomial."""
    if order.name == "lex":
        return tuple(-e for e in exp)
    if order.name == "grevlex":
        return _grevlex_rkey(exp)
    return tuple(_grevlex_rkey(tuple(exp[i] for i in blk)) for blk in order.blocks)


def _sub_multiple(p, heap, order, g, le, shift, factor):
    """p -= factor * x^shift * (g - lead term); new monomials go on the heap once."""
    neg = -factor
    for ge, gc in g.terms.items():
        if ge == le:
            continue
        ne = tuple(map(add, ge, shift))
        c = p.get(ne)
        if c is None:
            p[ne] = neg * gc
            heappush(heap, (_rkey(order, ne), ne))
        else:
            s = c + neg * gc
            if s:
                p[ne] = s
            else:
                del p[ne]


def _first_divisor(e, leads, memo):
    found, start = memo.get(e, (None, 0))
    if found is None and start < len(leads):
        for k in range(start, len(leads)):
            if _divides(leads[k], e):
                found = k
                break
        memo[e] = (found, len(leads))
    return found


def _factor(c, lc, p, tail, budget, rule):
    """The multiple of the divisor with lead coefficient lc that cancels the
    term c: the rule's, after its content division and rescaling of p and
    the tail; c itself without a rule (a monic basis)."""
    if rule is None:
        return c
    if budget.used % _CONTENT_EVERY == 0:
        d = rule.content(c, *p.values(), *tail.values())
        if d != 1:
            c //= d
            _rescale(p, tail, 1, d)
    a, c = rule.step(c, lc)
    if a != 1:
        _rescale(p, tail, a)
    return c


def reduce_poly(f, basis, order, budget, rule=None, memo=None):
    """Normal form of f by (lead_exp, lead_coeff, poly), on exponent tuples."""
    memo = {} if memo is None else memo
    leads = [b[0] for b in basis]
    tail = {}
    p = f.terms.copy()
    heap = [(_rkey(order, e), e) for e in p]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = p.pop(e, None)
        if c is None:
            continue
        k = _first_divisor(e, leads, memo)
        if k is None:
            tail[e] = c
            continue
        le, lc, g = basis[k]
        budget.charge()
        c = _factor(c, lc, p, tail, budget, rule)
        _sub_multiple(p, heap, order, g, le, _exp_sub(e, le), c)
    return MultiPoly(f.space, tail)


def _basis_data(polys, order, rule):
    return [(e, rule.lead(c), g) for g in polys for e, c in [g.leading(order)]]


def _primitive(g, order, rule):
    return MultiPoly(g.space, rule.primitive(g.terms, g.leading(order)[0]))


def _interreduce(polys, order, budget, rule):
    """The start-of-run worklist: pop the element of smallest lead, the
    latest pushed on a tie, reduce it by the kept ones, keep the primitive
    remainder and send back every kept element with a term its lead divides."""
    key, tick = order.key, count(0, -1)
    todo = [(key(g.leading(order)[0]), next(tick), g) for g in polys]
    heapify(todo)
    kept = []  # (order key of the lead, (lead, lead coefficient, poly)), keys ascending
    while todo:
        r = reduce_poly(heappop(todo)[2], [k[1] for k in kept], order, budget, rule)
        if r.is_zero():
            continue
        data, = _basis_data([_primitive(r, order, rule)], order, rule)
        stay = [(key(data[0]), data)]
        for k in kept:
            if any(_divides(data[0], e) for e in k[1][2].terms):
                heappush(todo, (k[0], next(tick), k[1][2]))
            else:
                stay.append(k)
        kept = sorted(stay, key=itemgetter(0))
    return [k[1][2] for k in kept]


def _prepared(gens, order):
    """The nonzero generators cleared and made primitive, and their rule."""
    gens = [g for g in gens if not g.is_zero()]
    field = common_field(c for g in gens for c in g.terms.values())
    rule = IntegerRule() if field is None else ZBetaRule(field)
    return [_primitive(MultiPoly(g.space, dict(zip(g.terms, rule.clear(g.terms.values())))),
                       order, rule) for g in gens], rule


def _spoly(order, first, second):
    """a*x^(m-e1)*g1 - b*x^(m-e2)*g2 for the lcm m of the two leads, whose
    lead terms cancel."""
    (e1, c1, g1), (e2, c2, g2) = first[:3], second[:3]
    m = _exp_lcm(e1, e2)
    a, b = IntegerRule.step(c1, c2)
    s = {}
    _sub_multiple(s, [], order, g1, e1, _exp_sub(m, e1), -a)
    _sub_multiple(s, [], order, g2, e2, _exp_sub(m, e2), b)
    return MultiPoly(g1.space, s)


def _final_pass(data, order, budget, rule):
    """Leads ascending: drop each lead an earlier one divides, tail-reduce the
    rest by the survivors before them and make them monic."""
    data.sort(key=lambda d: order.key(d[0]))
    reduced = []
    for le, _, g, *_ in data:
        if not any(_divides(ke, le) for ke, _, _ in reduced):
            r = reduce_poly(g, reduced, order, budget, rule)
            reduced.append((le, rule.lead(r.terms[le]), r))
    return [MultiPoly(g.space, {e: rule.restore(c, lc) for e, c in g.terms.items()})
            for _, lc, g in reduced]


def buchberger(gens, order, budget):
    """The reduced Groebner basis by the pair loop on exponent tuples, with
    the coprime and chain criteria: the reference for bases.

    It and the worklist :func:`_interreduce` call this module's
    ``reduce_poly`` by name, so a test may put :func:`scan_reduce_poly` in
    its place.
    """
    budget = _as_budget(budget)
    gens, rule = _prepared(gens, order)
    G = _interreduce(gens, order, budget, rule)
    if not G:
        return []
    if any(g.is_constant() for g in G):
        return [MultiPoly.constant(G[0].space, 1)]
    data = _basis_data(G, order, rule)
    memo = {}
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
        ei, ej = data[i][0], data[j][0]
        lcm = _exp_lcm(ei, ej)
        if all(a + b == m for a, b, m in zip(ei, ej, lcm)):
            continue
        if any((i, k) in done and (j, k) in done and _divides(data[k][0], lcm)
               for k in range(len(data))):
            continue
        budget.charge()
        r = reduce_poly(_spoly(order, data[i], data[j]), data, order, budget, rule, memo)
        if r.is_zero():
            continue
        if r.is_constant():
            return [MultiPoly.constant(r.space, 1)]
        data += _basis_data([_primitive(r, order, rule)], order, rule)
        push_pairs(len(data) - 1)
    return _final_pass(data, order, budget, rule)


def rerun_rational_points(gens, space, budget=None):
    """Rational points of a system by a lex walk that computes a reduced lex
    basis at every node: the reference for ``rational_points``, whose
    branches specialize the one basis of the root instead."""
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
        idx = remaining[-1]
        u = next((u for u in (_univariate_in(g, idx) for g in basis) if u is not None), None)
        if u is None:
            exhaustive = False
            roots = [Fraction(0)]
        else:
            roots = upoly_rational_roots(u)
            if len(u) > len(roots) + 1 and len(upoly_squarefree_part(u)) > len(roots) + 1:
                exhaustive = False
        for r in sorted(roots):
            walk([g.substitute({idx: r}) for g in basis], {**assignment, idx: r}, remaining[:-1])

    walk(gens, {}, list(range(space.nvars)))
    return points, exhaustive


def rabinowitsch_membership(f, ideal, budget=None):
    """Is f in the radical of the ideal?  Only by testing whether
    (ideal, 1 - w*f), w a fresh variable, is the unit ideal."""
    if f.is_zero():
        return True
    space = ideal.space
    wname = space.fresh_aux("_w")
    ext = space.with_aux((wname,))
    w = MultiPoly.variable(ext, wname)
    gens = [g.lift_to(ext) for g in ideal.generators]
    gens.append(MultiPoly.constant(ext, 1) - w * f.lift_to(ext))
    basis = buchberger(gens, GREVLEX, _as_budget(budget))
    return bool(basis) and basis[0].is_constant()


def _sig_key(order, sig):
    """Position over term: the generator index, then the monomial order."""
    return sig[0], order.key(sig[1])


def _sig_times(sig, t):
    return sig[0], tuple(map(add, sig[1], t))


def _sig_divides(s, t):
    return s[0] == t[0] and _divides(s[1], t[1])


def signature_reduce(f, basis, order, budget, rule, sig):
    """Regular reduction of f by (lead, lead coefficient, poly, signature)
    entries, scanning the basis for every term: each step takes the regular
    divisor of smallest signature at the term, the first of them on a tie."""
    bound = _sig_key(order, sig)
    tail = {}
    p = f.terms.copy()
    heap = [(_rkey(order, e), e) for e in p]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = p.pop(e, None)
        if c is None:
            continue
        divs = [(_sig_key(order, _sig_times(d[3], _exp_sub(e, d[0]))), d)
                for d in basis if _divides(d[0], e)]
        regular = [(k, d) for k, d in divs if k < bound]
        if not regular:
            # a divisor of the lead at the bound itself would have covered the J-pair
            assert tail or all(k != bound for k, _ in divs), "singular remainder"
            tail[e] = c
            continue
        le, lc, g, _ = min(regular, key=itemgetter(0))[1]
        budget.charge()
        c = _factor(c, lc, p, tail, budget, rule)
        _sub_multiple(p, heap, order, g, le, _exp_sub(e, le), c)
    return MultiPoly(f.space, tail)


def signature_buchberger(gens, order, budget):
    """The engine's signature loop on exponent tuples: the reference for steps.

    A signature is (generator index, exponent tuple).  J-pairs pop in
    signature order, then by lcm, then by the indices of their sides; one is
    skipped when it repeats the last signature, when a known syzygy's
    signature divides its own, or when an element covers it.  It starts from
    the generators the worklist :func:`_interreduce` returns, leads
    ascending, the i-th with signature e_i.
    """
    budget = _as_budget(budget)
    gens, rule = _prepared(gens, order)
    G = _interreduce(gens, order, budget, rule)
    if not G:
        return []
    if any(g.is_constant() for g in G):
        return [MultiPoly.constant(G[0].space, 1)]
    key = order.key
    data, syzygies, jpairs = [], [], []

    def append(g, sig):
        le, n = g.leading(order)[0], len(data)
        for k, (ke, _, _, ks) in enumerate(data):
            m = _exp_lcm(ke, le)
            a, b = _sig_times(sig, _exp_sub(m, le)), _sig_times(ks, _exp_sub(m, ke))
            ka, kb = _sig_key(order, a), _sig_key(order, b)
            if ka != kb:
                heappush(jpairs, (ka, key(m), n, k, a, m) if ka > kb else (kb, key(m), k, n, b, m))
            c, d = _sig_times(sig, ke), _sig_times(ks, le)
            if c != d:
                syzygies.append(max(c, d, key=lambda s: _sig_key(order, s)))
        data.append((le, rule.lead(g.terms[le]), g, sig))

    for i, g in enumerate(G):
        append(g, (i, (0,) * len(g.leading(order)[0])))
    last = None
    while jpairs:
        skey, mkey, i, j, sig, m = heappop(jpairs)
        if skey == last or any(_sig_divides(h, sig) for h in syzygies) or any(
                _sig_divides(ks, sig) and key(tuple(map(add, _exp_sub(sig[1], ks[1]), ke))) < mkey
                for ke, _, _, ks in data):
            continue
        last = skey
        budget.charge()
        r = signature_reduce(_spoly(order, data[i], data[j]), data, order, budget, rule, sig)
        if r.is_zero():
            syzygies.append(sig)
            continue
        if r.is_constant():
            return [MultiPoly.constant(r.space, 1)]
        append(_primitive(r, order, rule), sig)
    return _final_pass(data, order, budget, rule)


def scan_reduce_poly(f, basis, order, budget, rule=None, memo=None):
    """reduce_poly without the divisor memo: each popped term scans the basis."""
    tail = {}
    p = f.terms.copy()
    heap = [(_rkey(order, e), e) for e in p]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = p.pop(e, None)
        if c is None:
            continue
        hit = next(((le, lc, g) for le, lc, g in basis
                    if all(a <= b for a, b in zip(le, e))), None)
        if hit is None:
            tail[e] = c
            continue
        le, lc, g = hit
        budget.charge()
        c = _factor(c, lc, p, tail, budget, rule)
        _sub_multiple(p, heap, order, g, le, _exp_sub(e, le), c)
    return MultiPoly(f.space, tail)


def direct_prolongation(xi):
    """xi_hat = sum a_i d/dx_i - sum_{i,j} (da_i/dx_j) y_i d/dy_j, term by term."""
    dspace = xi.space.doubled()
    lifted = [a.lift_to(dspace) for a in xi.components]
    ys = [MultiPoly.variable(dspace, v) for v in dspace.y_vars]
    yc = []
    for j in dspace.x_indices:
        acc = MultiPoly.zero(dspace)
        for a, y in zip(lifted, ys):
            acc = acc - a.partial(j) * y
        yc.append(acc)
    return PolyVectorField(dspace, lifted + yc)


def two_path_substitute(p, mapping):
    """Scalar values summed into one term dict; any polynomial value sends
    every term through polynomial products and sums."""
    space = p.space
    subs = {k if isinstance(k, int) else space.index(k): v for k, v in mapping.items()}
    if all(isinstance(v, SCALARS) for v in subs.values()):
        out = {}
        for e, c in p.terms.items():
            c = Fraction(c) if type(c) is int else c
            rest = list(e)
            for i, k in enumerate(e):
                if k and i in subs:
                    c = c * subs[i] ** k
                    rest[i] = 0
            if not c:
                continue
            rest = tuple(rest)
            if rest in out:
                c = out[rest] + c
                if not c:
                    del out[rest]
                    continue
            out[rest] = c
        return MultiPoly(space, out)
    out = MultiPoly.zero(space)
    for e, c in p.terms.items():
        term = MultiPoly.constant(space, c)
        rest = [0] * space.nvars
        for i, k in enumerate(e):
            if not k:
                continue
            if i in subs:
                term = term * subs[i] ** k
            else:
                rest[i] = k
        out = out + term * MultiPoly.monomial(space, tuple(rest))
    return out


def termwise_product(f, g):
    """f * g summed one scalar product at a time, in the order the terms
    meet; int coefficients become Fractions."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            out[e] = out[e] + c if e in out else (Fraction(c) if type(c) is int else c)
    return MultiPoly(f.space, out)


def expanded_darboux_equations(xi, lead, unknowns, c_monos, uspace):
    """Coefficient equations of xi(g) - c*g = 0 for g = lead + sum u_i m_i and
    c = sum v_j k_j, as polynomials over ``uspace`` (the u's, then the v's):
    each x-monomial of the expansion contributes one equation."""
    space = xi.space
    rows = {}

    def add(xexp, upoly):
        cur = rows.get(xexp)
        rows[xexp] = upoly if cur is None else cur + upoly

    one_u = MultiPoly.constant(uspace, 1)
    for e, c in xi.apply(MultiPoly.monomial(space, lead)).terms.items():
        add(e, one_u * c)
    for i, m in enumerate(unknowns):
        u = MultiPoly.variable(uspace, i)
        for e, c in xi.apply(MultiPoly.monomial(space, m)).terms.items():
            add(e, u * c)
    # minus c * g
    g_entries = [(lead, None)] + [(m, i) for i, m in enumerate(unknowns)]
    for j, k in enumerate(c_monos):
        v = MultiPoly.variable(uspace, len(unknowns) + j)
        for m, ui in g_entries:
            xexp = tuple(a + b for a, b in zip(k, m))
            if ui is None:
                add(xexp, -v)
            else:
                add(xexp, -(v * MultiPoly.variable(uspace, ui)))
    return [p for p in rows.values() if not p.is_zero()]


def shift_reduce_powers(min_poly):
    """alpha^d, ..., alpha^(2d-2) as coordinate vectors for a monic min_poly of
    degree d >= 2: multiply by alpha (shift) and replace alpha^d."""
    d = len(min_poly) - 1
    cur = [-c for c in min_poly[:-1]]  # alpha^d
    red = [tuple(cur)]
    for _ in range(d - 2):
        nxt = [_ZERO] + cur[:-1]
        top = cur[-1]
        if top:
            for i in range(d):
                nxt[i] -= top * min_poly[i]
        cur = nxt
        red.append(tuple(cur))
    return red


def upoly_mul(p, q):
    """p*q for ascending coefficient tuples, trimmed."""
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return upoly_trim(out)


def upoly_eval(p, x):
    """p(x) by Horner for ascending coefficients."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def enumerated_rational_roots(p):
    """Every rational root of p by trying each +-num/dd, num | a0 and dd | an
    over the cleared primitive coefficients, reduced or not, and evaluating p
    at it as a Fraction; zero first when x divides p."""
    p = upoly_trim(p)
    roots = []
    k = 0
    while not p[k]:
        k += 1
    if k:
        roots.append(Fraction(0))
        p = p[k:]
    if len(p) == 1:
        return roots
    ints = IntegerRule.clear(p)
    g = gcd(*ints)
    ints = [c // g for c in ints]
    for num in _int_divisors(ints[0]):
        for dd in _int_divisors(ints[-1]):
            for sign in (1, -1):
                cand = Fraction(sign * num, dd)
                if cand not in roots and not upoly_eval(p, cand):
                    roots.append(cand)
    return roots


def merge_exterior_derivative(w):
    """d(w) = sum of dp/dv_j dv_j ^ dv_idx over the terms p dv_idx of w."""
    out = {}
    for idx, p in w.terms.items():
        for j in range(w.ndirections):
            dp = p.partial(j)
            if dp.is_zero() or j in idx:
                continue
            pos = sum(i < j for i in idx)
            merged = idx[:pos] + (j,) + idx[pos:]
            term = -dp if pos % 2 else dp
            out[merged] = out[merged] + term if merged in out else term
    return PolyForm(w.space, w.degree + 1, out)


def _split_commas(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        # strip only a matching outer pair
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(text) - 1:
                break
        else:
            text = text[1:-1]
    depth = 0
    parts, cur = [], []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    parts = [s.strip() for s in parts]
    if not all(parts):
        raise ParseError("point has an empty coordinate", 1, 1)
    return parts


def char_parse_point(session, text):
    """``session``'s point parser before it read tokens: a character-level
    split, then each coordinate parsed from its own text."""
    parts = _split_commas(text)
    if len(parts) != session.space.n:
        raise ParseError(f"point needs {session.space.n} coordinates, got {len(parts)}", 1, 1)
    return tuple(_constant_scalar(session.eval_poly(parse_expression(p), session.space), (1, 1))
                 for p in parts)


def pullback_torus_invariant(w):
    """Is the pullback of w along x_i -> t_i * x_i proportional to w over
    the ring extended by the t_i?"""
    ndir = w.ndirections
    tnames = tuple(w.space.fresh_aux(f"_t{i + 1}") for i in range(ndir))
    ext = w.space.with_aux(tnames)
    ts = [MultiPoly.variable(ext, t) for t in tnames]
    scaling = {i: ts[i] * MultiPoly.variable(ext, ext.all_vars[i]) for i in range(ndir)}
    pulled = {}
    for idx, p in w.terms.items():
        q = p.lift_to(ext).substitute(scaling)
        for i in idx:
            q = q * ts[i]
        pulled[idx] = q
    lifted = {idx: p.lift_to(ext) for idx, p in w.terms.items()}
    return proportional_forms(PolyForm(ext, w.degree, pulled), PolyForm(ext, w.degree, lifted))


def enumerated_covers(supports):
    """Inclusion-minimal sets meeting every support, sorted by size and then
    members: every subset of the involved variables, smallest first."""
    involved = sorted(set().union(*supports))
    covers = []
    for size in range(len(involved) + 1):
        for combo in combinations(involved, size):
            s = set(combo)
            if any(kept <= s for kept in covers):
                continue
            if all(s & sup for sup in supports):
                covers.append(frozenset(s))
    covers.sort(key=lambda s: (len(s), sorted(s)))
    return covers
