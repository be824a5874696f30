"""Answer checks that do not call the code they check.

Groebner bases are checked on their raw term dicts with this file's own
monomial orders and top reduction, so a defect in folichar's ``reduce_poly``
or ``MonomialOrder`` cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import heapq
from fractions import Fraction


def _grevlex(e):
    return (-sum(e), tuple(reversed(e)))


# negated order keys: the smallest key is the largest monomial, for heapq
NEG_KEYS = {
    "grevlex": _grevlex,
    "sqrt2": _grevlex,
    "lex": lambda e: tuple(-k for k in e),
    "elim": lambda e: ((-e[0],), _grevlex(e[1:])),
}


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lead(terms, neg_key):
    return min(terms, key=neg_key)


def _reduces_to_zero(terms, basis, neg_key):
    """Top-reduce by monic (lead, terms) pairs; True iff the result is 0."""
    p = dict(terms)
    heap = [(neg_key(e), e) for e in p]
    heapq.heapify(heap)
    while heap:
        _, e = heapq.heappop(heap)
        c = p.get(e)
        if c is None:
            continue
        le, g = next(((le, g) for le, g in basis if _divides(le, e)), (None, None))
        if g is None:
            return False
        shift = tuple(a - b for a, b in zip(e, le))
        for ge, gc in g.items():
            ne = tuple(a + b for a, b in zip(ge, shift))
            old = p.get(ne)
            s = (0 if old is None else old) - c * gc
            if s:
                p[ne] = s
                if old is None:
                    heapq.heappush(heap, (neg_key(ne), ne))
            elif old is not None:
                del p[ne]
    return not p


def groebner_problems(basis, gens, order, expect_len=None):
    """Why ``basis`` is not the reduced Groebner basis of ``gens``, if it is not.

    Checks: every element monic, no term of one element divisible by the
    lead of another, every generator and every S-pair reduces to 0 (pairs
    with coprime leads are skipped by Buchberger's first criterion).
    """
    key = NEG_KEYS[order]
    polys = [dict(g.terms) for g in basis]
    if any(not p for p in polys):
        return ["zero element in basis"]
    leads = [_lead(p, key) for p in polys]
    problems = []
    if expect_len is not None and len(polys) != expect_len:
        problems.append(f"{len(polys)} elements, expected {expect_len}")
    if any(p[le] != 1 for p, le in zip(polys, leads)):
        problems.append("basis is not monic")
    for i, p in enumerate(polys):
        for j, le in enumerate(leads):
            if i != j and any(_divides(le, e) for e in p):
                problems.append(f"element {i} is not reduced by element {j}")
    pairs = list(zip(leads, polys))
    if not all(_reduces_to_zero(g.terms, pairs, key) for g in gens):
        problems.append("a generator does not reduce to 0")
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            li, lj = leads[i], leads[j]
            if all(a == 0 or b == 0 for a, b in zip(li, lj)):
                continue
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            s = {}
            for p, le, sign in ((polys[i], li, 1), (polys[j], lj, -1)):
                shift = tuple(a - b for a, b in zip(lcm, le))
                for e, c in p.items():
                    ne = tuple(a + b for a, b in zip(e, shift))
                    v = s.get(ne, 0) + sign * c
                    if v:
                        s[ne] = v
                    else:
                        s.pop(ne, None)
            if not _reduces_to_zero(s, pairs, key):
                problems.append(f"S-pair ({i}, {j}) does not reduce to 0")
                return problems
    return problems


def _coeff_text(c):
    if isinstance(c, Fraction):
        return str(c)
    return "[" + ",".join(str(v) for v in c.coords) + "]"


def basis_digest(basis):
    """sha256 of a basis as a set of term lists, independent of printing."""
    elems = sorted(
        ";".join(f"{e}:{_coeff_text(c)}" for e, c in sorted(g.terms.items()))
        for g in basis
    )
    return hashlib.sha256("\n".join(elems).encode()).hexdigest()[:16]


def rank(rows):
    """Rank of a list of rational vectors by exact elimination."""
    rows = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r
