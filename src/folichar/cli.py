"""Command-line front end: session files in, JSON or text reports out.

Exit codes: 0 the computation succeeded (including classifications whose
answer is a tag), 1 a yes/no question was answered "no" (non-invariance,
resonance, integrability failure, ...), 2 the input was unusable, 3 the
step budget ran out.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    FolicharError,
    LeafNotInvariant,
    NotADistribution,
    NotLogarithmic,
    NotTorusInvariant,
    UnresolvedFactor,
)
from .foliations import (
    characteristic_polynomial,
    ch_singular_locus,
    classify_ch_subvariety,
    darboux_search,
    hamiltonian,
    hyperplane_at_infinity,
    is_invariant,
    prolong,
    singular_scheme,
)
from .forms import (
    binary_discriminant,
    is_distribution,
    is_infinitesimal_automorphism,
    is_integrable,
    logarithmic_normal_form,
)
from .ideals import DEFAULT_BUDGET, Ideal, StepBudget
from .parser import parse_expression, parse_input, print_value
from .polynomials import VarSpace, order_from_name
from .reports import Report
from .scalars import upoly_str
from .singularities import (
    bott_connection,
    coordinate_subspace_decomposition,
    holonomy_spectrum,
    is_nonresonant,
    jacobian_eigendata,
    verify_prolongation_duality,
)
from .weyl import bernstein_symbol, order_one_field, principal_symbol

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# exceptions that are mathematical "no" answers rather than failures
_VERDICT_ERRORS = (
    LeafNotInvariant,
    NotADistribution,
    NotTorusInvariant,
    NotLogarithmic,
)


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            k: _jsonable(getattr(value, k))
            for k in value.__dataclass_fields__
        }
    return str(value)


def _value(session, text, kind):
    """Resolve a command argument: a declared name or an inline expression."""
    text = text.strip()
    if _NAME_RE.match(text) and text in session.decls:
        return session.get(text, kind)
    return session.evaluate(parse_expression(text), kind)


def _field_of(session, args):
    return session.vector_field(getattr(args, "field_name", None))


def _point_str(point):
    return "(" + ", ".join(str(v) for v in point) + ")"


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_ch(session, args, budget):
    xi = _field_of(session, args)
    P = characteristic_polynomial(xi)
    return Report(
        "ch",
        inputs={"xi": print_value(xi)},
        result={"characteristic_polynomial": str(P)},
    )


def _cmd_prolong(session, args, budget):
    xi = _field_of(session, args)
    hat = prolong(xi)
    return Report(
        "prolong",
        inputs={"xi": print_value(xi)},
        result={
            "x_components": [str(c) for c in hat.x_components],
            "y_components": [str(c) for c in hat.y_components],
        },
    )


def _cmd_hamiltonian(session, args, budget):
    if args.poly is not None:
        F = _value(session, args.poly, "poly")
    else:
        F = characteristic_polynomial(_field_of(session, args))
    ham = hamiltonian(F)
    return Report(
        "hamiltonian",
        inputs={"F": str(F)},
        result={
            "x_components": [str(c) for c in ham.x_components],
            "y_components": [str(c) for c in ham.y_components],
        },
    )


def _cmd_sing(session, args, budget):
    xi = _field_of(session, args)
    sch = singular_scheme(xi, budget=budget)
    return Report(
        "sing",
        inputs={"xi": print_value(xi)},
        result={
            "generators": [str(g) for g in sch.ideal.generators],
            "isolated": sch.isolated,
            "vector_space_dimension": sch.vecdim,
            "reduced": sch.reduced,
            "distinct_points": sch.distinct_points,
            "divisorial_part": None if sch.divisorial_part is None
            else str(sch.divisorial_part),
        },
    )


def _cmd_ch_sing(session, args, budget):
    xi = _field_of(session, args)
    rep = ch_singular_locus(xi, budget=budget)
    return Report(
        "ch-sing",
        inputs={"xi": print_value(xi)},
        result={
            "jacobian_generators": [str(g) for g in rep.jacobian_ideal.generators],
            "smooth_away_from_zero_section": rep.smooth_away_from_zero_section,
            "scheme_isolated": rep.scheme.isolated,
            "scheme_reduced": rep.scheme.reduced,
            "consistent": rep.consistent,
        },
        verdict=rep.smooth_away_from_zero_section,
    )


def _cmd_invariant(session, args, budget):
    xi = _field_of(session, args)
    ideal = _value(session, args.ideal, "ideal")
    rep = is_invariant(prolong(xi), ideal, budget=budget)
    return Report(
        "invariant",
        inputs={"xi": print_value(xi), "ideal": print_value(ideal)},
        result={
            "certificates": [
                {
                    "generator": str(c.generator),
                    "image": str(c.image),
                    "remainder": str(c.remainder),
                }
                for c in rep.certificates
            ],
        },
        verdict=rep.invariant,
    )


def _cmd_classify(session, args, budget):
    xi = _field_of(session, args)
    ideal = _value(session, args.ideal, "ideal")
    cls = classify_ch_subvariety(xi, ideal, budget=budget)
    return Report(
        "classify",
        inputs={"xi": print_value(xi), "ideal": print_value(ideal)},
        result={
            "tag": cls.tag,
            "point": None if cls.point is None
            else [str(v) for v in cls.point],
            "residual": None if cls.residual is None
            else [str(g) for g in cls.residual.generators],
            "certificate": _jsonable(cls.certificate),
        },
    )


def _cmd_darboux(session, args, budget):
    xi = _field_of(session, args)
    max_cof = args.max_cofactor
    if max_cof is None:
        max_cof = max(xi.degree() - 1, 0)
    res = darboux_search(xi, args.max_deg, max_cof, budget=budget)
    return Report(
        "darboux",
        inputs={"xi": print_value(xi)},
        result={
            "max_deg": args.max_deg,
            "max_cofactor": max_cof,
            "pairs": [
                {"g": str(p.polynomial), "cofactor": str(p.cofactor)}
                for p in res.pairs
            ],
            "complete": res.complete,
        },
    )


def _cmd_degree(session, args, budget):
    xi = _field_of(session, args)
    rep = hyperplane_at_infinity(xi)
    return Report(
        "degree",
        inputs={"xi": print_value(xi)},
        result={
            "affine_degree": rep.affine_degree,
            "infinity_invariant": rep.invariant,
            "projective_degree": rep.projective_degree,
            "radial_factor": None if rep.radial_factor is None
            else str(rep.radial_factor),
        },
    )


def _cmd_eigen(session, args, budget):
    xi = _field_of(session, args)
    point = session.parse_point(args.point)
    inputs = {
        "xi": print_value(xi),
        "point": _point_str(point),
    }
    try:
        data = jacobian_eigendata(xi, point, field=session.field, budget=budget)
    except UnresolvedFactor as exc:
        return Report(
            "eigen",
            inputs=inputs,
            result={
                "unresolved_factor": upoly_str(exc.residual),
                "message": str(exc),
            },
        )
    return Report(
        "eigen",
        inputs=inputs,
        result={
            "char_poly": upoly_str(data.char_poly),
            "eigenvalues": [str(v) for v in data.eigenvalues],
            "eigenvectors": [
                {
                    "value": str(v),
                    "basis": [[str(c) for c in vec] for vec in basis],
                }
                for v, basis in data.eigenvectors
            ],
            "invertible": data.invertible,
        },
    )


def _cmd_nonres(session, args, budget):
    xi = _field_of(session, args)
    point = session.parse_point(args.point)
    rep = is_nonresonant(xi, point, field=session.field, budget=budget)
    return Report(
        "nonres",
        inputs={
            "xi": print_value(xi),
            "point": _point_str(point),
        },
        result={
            "invertible": rep.invertible,
            "zrank": rep.rank,
            "eigenvalues": [str(v) for v in rep.eigenvalues],
        },
        verdict=rep.nonresonant,
    )


def _cmd_holonomy(session, args, budget):
    xi = _field_of(session, args)
    point = session.parse_point(args.point)
    rep = holonomy_spectrum(xi, point, args.axis, field=session.field, budget=budget)
    return Report(
        "holonomy",
        inputs={
            "xi": print_value(xi),
            "point": _point_str(point),
            "axis": str(args.axis),
        },
        result={
            "separatrix_eigenvalue": str(rep.separatrix_eigenvalue),
            "spectrum": [
                {
                    "ratio": str(e.ratio),
                    "eigenvalue": e.symbol,
                    "root_of_unity": e.root_of_unity,
                    "order": e.order,
                }
                for e in rep.entries
            ],
            "maximal_torus": rep.maximal_torus,
        },
    )


def _leaf(args):
    # axis may be named ("x1") or given as a 0-based index
    text = args.leaf.strip()
    return int(text) if text.lstrip("-").isdigit() else text


def _cmd_bott(session, args, budget):
    xi = _field_of(session, args)
    conn = bott_connection(xi, axis=_leaf(args))
    return Report(
        "bott",
        inputs={"xi": print_value(xi), "leaf": conn.variable},
        result={
            "axis": conn.variable,
            "matrix": [[str(e) for e in row] for row in conn.entries],
        },
    )


def _cmd_duality(session, args, budget):
    xi = _field_of(session, args)
    rep = verify_prolongation_duality(xi, axis=_leaf(args))
    return Report(
        "duality",
        inputs={"xi": print_value(xi), "leaf": rep.connection.variable},
        result={
            "connection": [[str(e) for e in row] for row in rep.connection.entries],
            "restricted": [[str(e) for e in row] for row in rep.restricted.entries],
        },
        verdict=rep.holds,
    )


def _cmd_torus_fiber(session, args, budget):
    ideal = _value(session, args.ideal, "ideal")
    yspace = VarSpace(session.dspace.y_vars)
    gens = [g.restrict_to(yspace) for g in ideal.generators if not g.is_zero()]
    rep = coordinate_subspace_decomposition(Ideal(yspace, gens), budget=budget)
    return Report(
        "torus-fiber",
        inputs={"ideal": print_value(ideal)},
        result={
            "offending": None if rep.offending is None else str(rep.offending),
            "monomials": [str(m) for m in rep.monomials],
            "components": [list(c) for c in rep.components],
            "dimensions": list(rep.dimensions),
            "same_dimension": rep.same_dimension,
        },
        verdict=rep.torus_invariant,
    )


def _cmd_form_dist(session, args, budget):
    w = _value(session, args.form, "form")
    ok = is_distribution(w)
    return Report(
        "form-dist",
        inputs={"form": str(w)},
        result={"degree": w.degree},
        verdict=ok,
    )


def _cmd_form_int(session, args, budget):
    w = _value(session, args.form, "form")
    ok = is_integrable(w)
    return Report(
        "form-int",
        inputs={"form": str(w)},
        result={"degree": w.degree},
        verdict=ok,
    )


def _cmd_form_lognf(session, args, budget):
    w = _value(session, args.form, "form")
    nf, rep = logarithmic_normal_form(w)
    names = w.space.x_vars + w.space.y_vars
    return Report(
        "form-lognf",
        inputs={"form": str(w)},
        result={
            "h": str(nf.h),
            "lambdas": {
                "^".join(names[i] for i in idx): str(lam)
                for idx, lam in sorted(nf.lambdas.items())
            },
            "hyperplanes": list(rep.hyperplanes),
            "invariant_hyperplanes": rep.k,
            "form_degree": rep.q,
            "witness_subspace": None if rep.witness_subspace is None
            else [names[i] for i in rep.witness_subspace],
            "witness_dimension": rep.witness_dimension,
        },
        verdict=True,
    )


def _cmd_inf_auto(session, args, budget):
    xi = session.get(args.field, "field")
    w = _value(session, args.form, "form")
    ok = is_infinitesimal_automorphism(xi, w)
    return Report(
        "inf-auto",
        inputs={"xi": print_value(xi), "form": str(w)},
        result={},
        verdict=ok,
    )


def _cmd_disc(session, args, budget):
    p = _value(session, args.binform, "binform")
    k = p.degree()
    if k < 2:
        raise ValueError("discriminants need degree >= 2")
    coeffs = [Fraction(0)] * (k + 1)
    for e, c in p.terms.items():
        coeffs[e[1]] = c
    disc = binary_discriminant(coeffs)
    return Report(
        "disc",
        inputs={"binform": str(p)},
        result={"degree": k, "discriminant": str(disc)},
    )


def _cmd_weyl_mul(session, args, budget):
    a = _value(session, args.a, "op")
    b = _value(session, args.b, "op")
    return Report(
        "weyl-mul",
        inputs={"a": str(a), "b": str(b)},
        result={"product": str(a * b)},
    )


def _cmd_symbol(session, args, budget):
    d = _value(session, args.op, "op")
    if args.bernstein:
        k, sym = bernstein_symbol(d, session.dspace)
        return Report(
            "symbol",
            inputs={"operator": str(d)},
            result={"filtration": "bernstein", "degree": k, "symbol": str(sym)},
        )
    m, sym = principal_symbol(d, session.dspace)
    result = {"filtration": "order", "order": m, "symbol": str(sym)}
    if m == 1:
        xi = order_one_field(d, session.dspace)
        match = sym == characteristic_polynomial(xi).lift_to(sym.space)
        result["matches_characteristic_polynomial"] = match
        result["hypersurface"] = f"ch = {{{sym} = 0}}"
    return Report("symbol", inputs={"operator": str(d)}, result=result)


def _cmd_gb(session, args, budget):
    ideal = _value(session, args.ideal, "ideal")
    order = order_from_name(args.order, session.dspace)
    basis = ideal.basis(order=order, budget=budget)
    return Report(
        "gb",
        inputs={"ideal": print_value(ideal)},
        result={
            "order": args.order,
            "basis": [g.to_str(order) for g in basis],
        },
    )


_HANDLERS = {
    "ch": _cmd_ch,
    "prolong": _cmd_prolong,
    "hamiltonian": _cmd_hamiltonian,
    "sing": _cmd_sing,
    "ch-sing": _cmd_ch_sing,
    "invariant": _cmd_invariant,
    "classify": _cmd_classify,
    "darboux": _cmd_darboux,
    "degree": _cmd_degree,
    "eigen": _cmd_eigen,
    "nonres": _cmd_nonres,
    "holonomy": _cmd_holonomy,
    "bott": _cmd_bott,
    "duality": _cmd_duality,
    "torus-fiber": _cmd_torus_fiber,
    "form-dist": _cmd_form_dist,
    "form-int": _cmd_form_int,
    "form-lognf": _cmd_form_lognf,
    "inf-auto": _cmd_inf_auto,
    "disc": _cmd_disc,
    "weyl-mul": _cmd_weyl_mul,
    "symbol": _cmd_symbol,
    "gb": _cmd_gb,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("session", help="path to a .fol session file")
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--budget", type=int, default=None,
                        help="step budget for Groebner work")
    common.add_argument("--assume-irreducible", action="store_true",
                        help="accept the declared minimal polynomial untested")
    common.add_argument("--field", dest="field_name", default=None,
                        help="name of the vector field declaration to use")

    top = argparse.ArgumentParser(
        prog="folichar",
        description="exact characteristic-variety toolkit for polynomial "
                    "vector fields",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    add("ch", help="characteristic polynomial of the session field")
    add("prolong", help="first prolongation")
    p = add("hamiltonian", help="Hamiltonian field of a polynomial")
    p.add_argument("poly", nargs="?", default=None)
    add("sing", help="singular scheme of the field")
    add("ch-sing", help="singular locus of the characteristic hypersurface")
    p = add("invariant", help="is V(J) invariant under the prolongation")
    p.add_argument("ideal")
    p = add("classify", help="trichotomy classification of V(J)")
    p.add_argument("ideal")
    p = add("darboux", help="search for Darboux polynomials")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--max-cofactor", type=int, default=None)
    add("degree", help="hyperplane at infinity and projective degree")
    p = add("eigen", help="eigendata of the linear part at a point")
    p.add_argument("point")
    p = add("nonres", help="non-resonance test at a point")
    p.add_argument("point")
    p = add("holonomy", help="linear holonomy spectrum around a separatrix")
    p.add_argument("point")
    p.add_argument("axis", type=int)
    p = add("bott", help="connection matrix along an invariant axis")
    p.add_argument("leaf")
    p = add("duality", help="check the prolongation restricts to -A^T")
    p.add_argument("leaf")
    p = add("torus-fiber", help="coordinate-subspace decomposition in a fiber")
    p.add_argument("ideal")
    p = add("form-dist", help="does the form define a distribution")
    p.add_argument("form")
    p = add("form-int", help="integrability of the distribution")
    p.add_argument("form")
    p = add("form-lognf", help="logarithmic normal form of a torus-invariant form")
    p.add_argument("form")
    p = add("inf-auto", help="is the field an infinitesimal automorphism")
    p.add_argument("field")
    p.add_argument("form")
    p = add("disc", help="discriminant of a binary form")
    p.add_argument("binform")
    p = add("weyl-mul", help="normally ordered product of two operators")
    p.add_argument("a")
    p.add_argument("b")
    p = add("symbol", help="symbol of an operator")
    p.add_argument("op")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--bernstein", action="store_true")
    g.add_argument("--order", action="store_true")
    p = add("gb", help="reduced Groebner basis of an ideal")
    p.add_argument("ideal")
    p.add_argument("--order", dest="order", default="grevlex",
                   choices=["grevlex", "lex", "block"])
    return top


def _emit(report, as_json, stream=None):
    stream = stream or sys.stdout
    print(report.json_text() if as_json else report.human(), file=stream)


def _error_report(command, exc):
    return Report(
        command or "?",
        result={"error": type(exc).__name__, "message": str(exc)},
    )


def _step_limit(flag):
    """The step limit: ``--budget``, else ``FOLICHAR_BUDGET``, else the default."""
    text = os.environ.get("FOLICHAR_BUDGET") if flag is None else str(flag)
    if text:
        try:
            return max(1, int(text))
        except ValueError:
            pass
    return DEFAULT_BUDGET


def main(argv=None):
    args = _build_parser().parse_args(argv)
    budget = StepBudget(_step_limit(args.budget))
    t0 = time.perf_counter()
    try:
        with open(args.session, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _emit(_error_report(args.command, exc), args.json)
        return 2
    try:
        session = parse_input(
            text, assume_irreducible=args.assume_irreducible
        )
        report = _HANDLERS[args.command](session, args, budget)
    except BudgetExceeded as exc:
        _emit(_error_report(args.command, exc), args.json)
        return 3
    except _VERDICT_ERRORS as exc:
        report = Report(
            args.command,
            result={"reason": str(exc), "error": type(exc).__name__},
            verdict=False,
        )
    except (FolicharError, ValueError, KeyError) as exc:
        _emit(_error_report(args.command, exc), args.json)
        return 2
    report.timings = {
        "total_ms": round((time.perf_counter() - t0) * 1000, 3)
    }
    _emit(report, args.json)
    return 0 if report.verdict in (True, None) else 1


if __name__ == "__main__":
    sys.exit(main())
