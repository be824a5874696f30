"""The ``cli`` workload: seeded ``.fol`` sessions, one subprocess per query.

Building the sessions needs no folichar import, so set-up is only writing
files.  The checks run in the benchmark process after the timed pass; where
an answer is not known by construction they compare it with the library's
own answer on the same session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from . import inputs
from .inputs import mul, nonzero, scale, text, var

X2 = ("x1", "x2")
X3 = ("x1", "x2", "x3")


@dataclass
class CliQuery:
    label: str
    session: str
    args: list
    check: Callable          # (payload, exit code, session text) -> problems
    path: str = ""


def _field_text(comps, names):
    return " + ".join(f"({text(c, names)})*d{i + 1}" for i, c in enumerate(comps))


def _parse(session):
    from folichar.parser import parse_input

    return parse_input(session)


def _poly_in(session, src, space):
    from folichar.parser import parse_expression

    return session.eval_poly(parse_expression(src), space)


def _expect(exit_code, **fields):
    """Check the exit code and fields of ``result`` known by construction."""
    def check(payload, code, _session):
        out = [] if code == exit_code else [f"exit {code}, expected {exit_code}"]
        for k, v in fields.items():
            if payload["result"].get(k) != v:
                out.append(f"{k} = {payload['result'].get(k)!r}, expected {v!r}")
        return out
    return check


def _classify(rng, k):
    comps = inputs.diagonal_field(rng, 2, 2)
    kind, ideal, tag = [
        ("zero", "ideal(y1, y2)", "ZeroSection"),
        ("fiber", "ideal(x1, x2)", "FiberOverSingularPoint"),
        ("whole", "ideal(" + " + ".join(f"({text(c, X2)})*y{i + 1}"
                                        for i, c in enumerate(comps)) + ")",
         "WholeCharVariety"),
        ("violation", "ideal(x2, y1)", "QuasiMinimalityViolation"),
    ][k % 4]
    session = f"vars: x1 x2\nxi: {_field_text(comps, X2)}\nJ: {ideal}\n"
    fields = {"tag": tag}
    if kind == "fiber":
        fields["point"] = ["0", "0"]
    return CliQuery(f"classify-{kind}", session, ["classify", "J"], _expect(0, **fields))


def _check_ch_sing(payload, code, session):
    from folichar.foliations import ch_singular_locus

    rep = ch_singular_locus(_parse(session).vector_field(None))
    res = payload["result"]
    out = []
    if code != (0 if rep.smooth_away_from_zero_section else 1):
        out.append(f"exit {code} does not match the verdict")
    if payload["verdict"] != rep.smooth_away_from_zero_section or res["consistent"] is not True:
        out.append("verdict differs from the library or is inconsistent")
    return out


def _ch_sing(rng, k):
    make = inputs.generic_field if k % 2 else inputs.diagonal_field
    session = f"vars: x1 x2\nxi: {_field_text(make(rng, 2, 2), X2)}\n"
    return CliQuery("ch-sing", session, ["ch-sing"], _check_ch_sing)


def _sing(rng, k):
    if k % 2:
        comps = inputs.generic_field(rng, 2, 2)
    else:
        comps, _ = inputs.factored_field(rng, 2)
    session = f"vars: x1 x2\nxi: {_field_text(comps, X2)}\n"

    def check(payload, code, session, planted=not k % 2):
        from folichar.foliations import singular_scheme

        s = singular_scheme(_parse(session).vector_field(None))
        res = payload["result"]
        out = [] if code == 0 else [f"exit {code}"]
        if (res["isolated"], res["vector_space_dimension"], res["distinct_points"]) != (
                s.isolated, s.vecdim, s.distinct_points):
            out.append("scheme differs from the library")
        if planted and (res["isolated"] or res["divisorial_part"] is None):
            out.append("planted common factor not reported")
        return out

    return CliQuery("sing", session, ["sing"], check)


def _darboux(rng, k):
    comps, line, cof = inputs.planted_line_field(rng, 2)
    session = f"vars: x1 x2\nxi: {_field_text(comps, X2)}\n"
    want = (text(line, X2), text(cof, X2))

    def check(payload, code, session):
        s = _parse(session)
        xi = s.vector_field(None)
        out = [] if code == 0 else [f"exit {code}"]
        found = False
        for pair in payload["result"]["pairs"]:
            g = _poly_in(s, pair["g"], s.space)
            c = _poly_in(s, pair["cofactor"], s.space)
            if xi.apply(g) != c * g:
                out.append(f"xi({pair['g']}) != ({pair['cofactor']}) * g")
            found |= (g, c) == (_poly_in(s, want[0], s.space), _poly_in(s, want[1], s.space))
        if not found:
            out.append(f"planted pair {want} not found")
        return out

    return CliQuery("darboux", session, ["darboux", "--max-deg", "1"], check)


def _eigen(rng, k):
    comps, _, (name, minpoly), eig = inputs.eigen_field(rng, "sqrt" if k % 2 else "imag")
    mp = text({(i,): c for i, c in enumerate(minpoly) if c}, (name,))
    session = f"vars: x1 x2\nfield: {name} where {mp} = 0\nxi: {_field_text(comps, X2)}\n"

    def check(payload, code, session):
        s = _parse(session)
        want = sorted(str(s.field.element(v)) for v in eig)
        out = [] if code == 0 else [f"exit {code}"]
        if sorted(payload["result"].get("eigenvalues", [])) != want:
            out.append(f"eigenvalues {payload['result']}, expected {want}")
        return out

    return CliQuery(f"eigen-{name}", session, ["eigen", "0,0"], check)


def _gb(rng, k):
    order = ("grevlex", "lex", "block", "grevlex")[k % 4]
    gens = [inputs.dense(rng, 2, 0, 2) for _ in range(2)]
    session = f"vars: x1 x2\nJ: ideal({', '.join(text(g, X2) for g in gens)})\n"

    def check(payload, code, session):
        from folichar.polynomials import order_from_name

        s = _parse(session)
        o = order_from_name(order, s.dspace)
        want = [g.to_str(o) for g in s.get("J", "ideal").basis(o)]
        out = [] if code == 0 else [f"exit {code}"]
        if payload["result"]["basis"] != want:
            out.append("basis differs from the library")
        return out

    return CliQuery(f"gb-{order}", session, ["gb", "J", "--order", order], check)


def _form_int(rng, k):
    names = ("dx1", "dx2", "dx3")
    if k % 2:
        # f * dg is always integrable
        f, g = inputs.dense(rng, 3, 0, 1), inputs.dense(rng, 3, 1, 2)
        parts = [mul(f, inputs.deriv(g, i)) for i in range(3)]
        verdict = True
    else:
        # c * (dx3 + a*x2*dx1): w ^ dw = c^2 * a * dx3 ^ dx2 ^ dx1 != 0
        c, a = nonzero(rng), nonzero(rng)
        parts = [scale(var(3, 1), c * a), {}, {(0, 0, 0): c}]
        verdict = False
    form = " + ".join(f"({text(p, X3)})*{d}" for p, d in zip(parts, names) if p)
    session = f"vars: x1 x2 x3\nw: {form}\n"
    return CliQuery("form-int", session, ["form-int", "w"],
                    _expect(0 if verdict else 1, degree=1))


def _symbol(rng, k):
    comps = inputs.generic_field(rng, 2, 2)
    f = inputs.dense(rng, 2, 0, 1)
    session = f"vars: x1 x2\nop: {_field_text(comps, X2)} + {text(f, X2)}\n"
    return CliQuery("symbol", session, ["symbol", "op", "--order"],
                    _expect(0, order=1, matches_characteristic_polynomial=True))


def _weyl_mul(rng, k):
    a = [inputs.dense(rng, 2, 0, 1) for _ in range(2)]
    b = inputs.dense(rng, 2, 0, 2)
    b0 = inputs.dense(rng, 2, 0, 1)
    session = (f"vars: x1 x2\na: {_field_text(a, X2)}\n"
               f"b: ({text(b, X2)})*d1 + {text(b0, X2)}\n")

    def check(payload, code, session):
        s = _parse(session)
        want = str(s.get("a", "op") * s.get("b", "op"))
        out = [] if code == 0 else [f"exit {code}"]
        if payload["result"]["product"] != want:
            out.append("product differs from the library")
        return out

    return CliQuery("weyl-mul", session, ["weyl-mul", "a", "b"], check)


MAKERS = (_classify, _ch_sing, _sing, _darboux, _eigen, _gb, _form_int, _symbol, _weyl_mul)


def cli_queries(seed, per_command=4):
    rng = inputs.rng_for("cli", seed)
    return [make(rng, k) for k in range(per_command) for make in MAKERS]


def write_sessions(queries, directory):
    for i, q in enumerate(queries):
        q.path = os.path.join(directory, f"q{i:02d}-{q.label}.fol")
        with open(q.path, "w", encoding="utf-8") as fh:
            fh.write(q.session)
