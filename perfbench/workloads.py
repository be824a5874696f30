"""The in-process workloads: each query is one call into folichar's public API.

A query is built once at set-up.  ``run(budget)`` answers it with a fresh
``Ideal`` and the explicit ``StepBudget`` it is given; ``check(answer)``
lists what is wrong with the answer, checked against facts known by
construction; ``fingerprint(answer)`` must repeat on every pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from folichar.foliations import (
    PolyVectorField,
    ch_singular_locus,
    characteristic_polynomial,
    classify_ch_subvariety,
    darboux_search,
    singular_scheme,
)
from folichar.ideals import Ideal, exact_divide
from folichar.polynomials import GREVLEX, LEX, MultiPoly, VarSpace, elimination_order
from folichar.scalars import make_number_field
from folichar.singularities import holonomy_spectrum, is_nonresonant, jacobian_eigendata

from . import checks, inputs

DEFAULT_SEED = 0
DIGESTS = os.path.join(os.path.dirname(__file__), "digests.json")
STANDARD = ("cyclic-4", "cyclic-5", "katsura-3", "katsura-4", "katsura-3/lex")


@dataclass
class Query:
    label: str
    run: Callable
    check: Callable
    fingerprint: Callable = str
    facts: Callable = field(default=lambda answer: [])
    basis_len: Callable = field(default=lambda answer: 0)


# ---------------------------------------------------------------------------
# groebner
# ---------------------------------------------------------------------------

def _frozen_digests(seed):
    with open(DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh)
    if seed == DEFAULT_SEED:
        return frozen
    return {k: v for k, v in frozen.items() if k in STANDARD}


def groebner_queries(seed):
    frozen = _frozen_digests(seed)
    sqrt2 = make_number_field("r", (-2, 0, 1))
    queries = []
    for label, nvars, gens, order_name in inputs.groebner_systems(seed):
        space = VarSpace(tuple(f"z{i}" for i in range(nvars)))
        if order_name == "sqrt2":
            polys = [MultiPoly(space, {e: sqrt2.element(c) for e, c in g.items()}) for g in gens]
        else:
            polys = [MultiPoly(space, g) for g in gens]
        order = {"lex": LEX, "elim": elimination_order(space, [0])}.get(order_name, GREVLEX)
        queries.append(Query(
            label=label,
            run=lambda b, s=space, p=polys, o=order: Ideal(s, p).basis(o, budget=b),
            check=lambda basis, p=polys, o=order_name, lbl=label: _check_basis(
                basis, p, o, lbl, frozen.get(lbl)),
            fingerprint=checks.basis_digest,
            basis_len=len,
        ))
    return queries


def _check_basis(basis, gens, order, label, digest):
    problems = checks.groebner_problems(
        basis, gens, order, expect_len=20 if label == "cyclic-5" else None)
    if digest is not None and checks.basis_digest(basis) != digest:
        problems.append("basis differs from the frozen digest")
    return problems


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _field(comps):
    space = VarSpace(tuple(f"x{i + 1}" for i in range(len(comps))))
    return PolyVectorField(space, [MultiPoly(space, c) for c in comps])


def _divides_exactly(g, f):
    try:
        exact_divide(f, g)
    except ValueError:
        return False
    return True


def _scheme_queries(name, xi, planted=None, ch_sing=True):
    """ch-sing and sing on one field; ``planted`` is a known common factor."""
    comps = xi.components

    def check_scheme(s):
        out = []
        if s.isolated and not (s.vecdim and 1 <= s.distinct_points <= s.vecdim):
            out.append("isolated scheme must count the origin")
        if s.isolated and s.reduced != (s.distinct_points == s.vecdim):
            out.append("reduced flag disagrees with the point count")
        if len(comps) == 2 and s.isolated != (s.divisorial_part is None):
            out.append("planar scheme is isolated iff there is no common factor")
        if s.divisorial_part is not None and not all(
                _divides_exactly(s.divisorial_part, c) for c in comps):
            out.append("divisorial part does not divide the components")
        if planted is not None and (s.divisorial_part is None
                                    or not _divides_exactly(planted, s.divisorial_part)):
            out.append("planted common factor not found")
        return out

    sing = Query(
        label=f"sing/{name}",
        run=lambda b: singular_scheme(xi, budget=b),
        check=check_scheme,
        fingerprint=lambda s: (s.isolated, s.vecdim, s.reduced, s.distinct_points,
                               str(s.divisorial_part)),
    )
    if not ch_sing:
        return [sing]
    return [
        Query(
            label=f"ch-sing/{name}",
            run=lambda b: ch_singular_locus(xi, budget=b),
            check=lambda r: [] if r.consistent else ["verdict contradicts a reduced scheme"],
            fingerprint=lambda r: (r.smooth_away_from_zero_section, r.consistent,
                                   r.scheme.isolated, r.scheme.vecdim),
        ),
        sing,
    ]


def _classify_queries(name, xi, violation):
    n = len(xi.components)
    dspace = xi.space.doubled()
    xs = [MultiPoly.variable(dspace, v) for v in dspace.x_vars]
    ys = [MultiPoly.variable(dspace, v) for v in dspace.y_vars]
    P = characteristic_polynomial(xi)
    origin = (Fraction(0),) * n
    table = [
        ("zero", ys, "ZeroSection"),
        ("fiber", xs, "FiberOverSingularPoint"),
        ("whole", [P], "WholeCharVariety"),
    ]
    if violation:
        table.append(("violation", xs[1:] + ys[:1], "QuasiMinimalityViolation"))
    out = []
    for kind, gens, tag in table:
        def check(c, tag=tag):
            if c.tag != tag:
                return [f"tag {c.tag}, expected {tag}"]
            if tag == "FiberOverSingularPoint" and c.point != origin:
                return [f"fiber over {c.point}, expected the origin"]
            return []
        out.append(Query(
            label=f"classify-{kind}/{name}",
            run=lambda b, g=gens: classify_ch_subvariety(xi, Ideal(dspace, g), budget=b),
            check=check,
            fingerprint=lambda c: (c.tag, c.point),
        ))
    return out


def _darboux_query(name, xi, g, cofactor, irrational):
    space = xi.space
    want = (MultiPoly(space, g).monic(LEX), MultiPoly(space, cofactor))

    def check(res):
        out = []
        for p in res.pairs:
            if xi.apply(p.polynomial) != p.cofactor * p.polynomial:
                out.append(f"xi({p.polynomial}) != ({p.cofactor}) * g")
        if not any((p.polynomial, p.cofactor) == want for p in res.pairs):
            out.append(f"planted pair {want[0]} / {want[1]} not found")
        return out

    return Query(
        label=f"darboux/{name}",
        run=lambda b: darboux_search(xi, 2, 1, budget=b),
        check=check,
        fingerprint=lambda r: (sorted(str(p.polynomial) for p in r.pairs), r.complete),
        facts=lambda r: [f"darboux complete={r.complete} on a field with"
                         f"{'' if irrational else 'out'} planted irrational lines"],
    )


def _eigen_queries(name, comps, matrix, field_spec, eig):
    xi = _field(comps)
    n = len(comps)
    K = make_number_field(*field_spec)
    want = sorted(eig)
    nonres = all(any(v) for v in eig) and checks.rank(eig) == n
    origin = (0,) * n

    def coords(v):
        return tuple(K.coerce(v).coords)

    def check_eigen(d):
        out = []
        if sorted(coords(v) for v in d.eigenvalues) != want:
            out.append(f"eigenvalues {[str(v) for v in d.eigenvalues]}")
        for lam, basis in d.eigenvectors:
            for vec in basis:
                mv = [sum((K.coerce(matrix[i][j]) * vec[j] for j in range(n)), K.zero())
                      for i in range(n)]
                if mv != [lam * c for c in vec]:
                    out.append(f"{vec} is not an eigenvector for {lam}")
        if d.invertible != all(any(v) for v in eig):
            out.append("invertible flag is wrong")
        return out

    def check_holonomy(h):
        eigs = [coords(v) for v in h.eigenvalues]
        out = [] if sorted(eigs) == want else ["eigenvalues differ"]
        if len(h.entries) != n - 1:
            out.append(f"{len(h.entries)} holonomy entries, expected {n - 1}")
        for e in h.entries:
            if coords(e.ratio * h.separatrix_eigenvalue) not in eigs:
                out.append(f"ratio {e.ratio} does not map to an eigenvalue")
            if e.root_of_unity != (not any(coords(e.ratio)[1:])):
                out.append(f"root-of-unity flag wrong for {e.ratio}")
        if h.maximal_torus != nonres:
            out.append("maximal-torus verdict is wrong")
        return out

    return [
        Query(f"eigen/{name}", lambda b: jacobian_eigendata(xi, origin, field=K, budget=b),
              check_eigen, fingerprint=str),
        Query(f"nonres/{name}", lambda b: is_nonresonant(xi, origin, field=K, budget=b),
              lambda r: [] if r.nonresonant == nonres else [f"verdict {r.nonresonant}"],
              fingerprint=str),
        Query(f"holonomy/{name}", lambda b: holonomy_spectrum(xi, origin, 1, field=K, budget=b),
              check_holonomy, fingerprint=str),
    ]


# (tag, variables, degree, fields of each kind); ch_singular_locus runs on
# planar fields only: on 3-D fields its cost swings between 0.5 and 3.5 s
# with the seed's coefficients, which no seeded workload can keep steady
FIELD_MIX = (("planar-d2", 2, 2, 3), ("planar-d3", 2, 3, 2), ("3d-d2", 3, 2, 1))


def pipeline_queries(seed):
    rng = inputs.rng_for("pipelines", seed)
    queries = []
    for tag, n, d, count in FIELD_MIX:
        for _ in range(count):
            for kind, make in (("generic", inputs.generic_field),
                               ("diagonal", inputs.diagonal_field)):
                name = f"{kind}-{tag}#{len(queries)}"
                xi = _field(make(rng, n, d))
                queries += _scheme_queries(name, xi, ch_sing=n == 2)
                queries += _classify_queries(name, xi, violation=kind == "diagonal")
    for d in (2, 3):
        comps, h = inputs.factored_field(rng, d)
        xi = _field(comps)
        name = f"factored-planar-d{d}#{len(queries)}"
        queries += _scheme_queries(name, xi, planted=MultiPoly(xi.space, h))
        queries += _classify_queries(name, xi, violation=False)
    # ten searches of about the same cost hold the tail percentile
    for _ in range(10):
        comps, line, cof = inputs.planted_line_field(rng, 2)
        queries.append(_darboux_query(f"line#{len(queries)}", _field(comps),
                                      line, cof, irrational=False))
    for _ in range(2):
        comps, conic, cof = inputs.planted_conic_field(rng)
        queries.append(_darboux_query(f"conic#{len(queries)}", _field(comps),
                                      conic, cof, irrational=True))
    # the 42 small eigen queries put the median latency on a plateau: with
    # fewer, it sits where latencies climb steeply from query to query
    for kind in ("sqrt", "imag") * 7 + ("cubic",):
        comps, matrix, spec, eig = inputs.eigen_field(rng, kind)
        queries += _eigen_queries(f"{kind}#{len(queries)}", comps, matrix, spec, eig)
    return queries
