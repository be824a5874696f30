"""Command-line front end: session files in, JSON or text reports out.

Exit codes: 0 the computation succeeded (including classifications whose
answer is a tag), 1 a yes/no question was answered "no" (non-invariance,
resonance, integrability failure, ...), 2 the input was unusable, 3 the
step budget ran out, 4 an internal error (a defect, never an answer).

Each subcommand is one handler declared with :func:`_command`: its name,
help text, typed positionals and options.  ``_build_parser`` and ``main``
both read that table; ``main`` resolves the arguments, and the handler
returns ``(inputs, result, verdict)`` as library values for one serializer.
Each handler imports the domain module it calls, so that a run loads only
what its subcommand uses.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    FolicharError,
    InvalidInput,
    LeafNotInvariant,
    NotADistribution,
    NotTorusInvariant,
    UnresolvedFactor,
)
from .ideals import DEFAULT_BUDGET, Ideal, StepBudget
from .parser import parse_expression, parse_input
from .polynomials import VarSpace, order_from_name
from .reports import Report
from .scalars import upoly_str

# exceptions that are mathematical "no" answers rather than failures
_VERDICT_ERRORS = (
    LeafNotInvariant,
    NotADistribution,
    NotTorusInvariant,
)


_Command = namedtuple("_Command", "handler help specs xi exclusive")

_COMMANDS = {}


def _command(name, help, *specs, xi=False, exclusive=False):
    """Declare the subcommand ``name`` run by the decorated handler.

    A spec is a positional, ``"NAME"`` or ``"NAME:KIND"`` (the kind defaults
    to the name; a trailing ``?`` makes it optional), or an option, ``(FLAG,
    argparse keywords)``; ``exclusive`` puts the options in one mutually
    exclusive group.  The handler is called as ``handler(session, args,
    budget, *values)``, the values being the session's vector field when
    ``xi`` is set and then each positional resolved by its kind.
    """
    def register(fn):
        _COMMANDS[name] = _Command(fn, help, specs, xi, exclusive)
        return fn
    return register


def _positionals(specs):
    """(name, kind, optional) for each positional spec."""
    for spec in specs:
        if isinstance(spec, str):
            name, _, kind = spec.rstrip("?").partition(":")
            yield name, kind or name, spec.endswith("?")


def _resolve(session, kind, text):
    """A positional as a library value: a declared name or an inline expression."""
    if text is None or kind == "int":
        return text
    if kind == "point":
        return session.parse_point(text)
    name = text.strip()
    if kind == "field":
        return session.get(name, "field")
    if kind == "leaf":
        # an axis may be named ("x1") or given as a 0-based index
        return int(name) if name.lstrip("-").isdigit() else name
    if name in session.decls:
        return session.get(name, kind)
    # columns count in the raw argument; a whole-value error is at its first token
    return session.evaluate(parse_expression(text), kind, (1, text.index(name) + 1))


def _jsonable(value):
    """Report data: records (named tuples) as dicts of their fields, other
    tuples, lists and sets as lists, and every other value that is not a
    JSON scalar as its canonical printed form.  Records are tested first,
    since they are tuples too."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "_fields"):
        return {k: _jsonable(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

@_command("ch", "characteristic polynomial of the session field", xi=True)
def _cmd_ch(session, args, budget, xi):
    from .foliations import characteristic_polynomial
    P = characteristic_polynomial(xi)
    return {"xi": xi}, {"characteristic_polynomial": P}, None


@_command("prolong", "first prolongation", xi=True)
def _cmd_prolong(session, args, budget, xi):
    from .foliations import prolong
    hat = prolong(xi)
    return {"xi": xi}, {
        "x_components": hat.x_components,
        "y_components": hat.y_components,
    }, None


@_command("hamiltonian", "Hamiltonian field of a polynomial", "poly?")
def _cmd_hamiltonian(session, args, budget, F):
    from .foliations import characteristic_polynomial, hamiltonian
    if F is None:
        F = characteristic_polynomial(session.vector_field(args.field_name))
    ham = hamiltonian(F)
    return {"F": F}, {
        "x_components": ham.x_components,
        "y_components": ham.y_components,
    }, None


@_command("sing", "singular scheme of the field", xi=True)
def _cmd_sing(session, args, budget, xi):
    from .foliations import singular_scheme
    sch = singular_scheme(xi, budget=budget)
    return {"xi": xi}, {
        "generators": sch.ideal.generators,
        "isolated": sch.isolated,
        "vector_space_dimension": sch.vecdim,
        "reduced": sch.reduced,
        "distinct_points": sch.distinct_points,
        "divisorial_part": sch.divisorial_part,
    }, None


@_command("ch-sing", "singular locus of the characteristic hypersurface", xi=True)
def _cmd_ch_sing(session, args, budget, xi):
    from .foliations import ch_singular_locus
    rep = ch_singular_locus(xi, budget=budget)
    return {"xi": xi}, {
        "jacobian_generators": rep.jacobian_ideal.generators,
        "smooth_away_from_zero_section": rep.smooth_away_from_zero_section,
        "scheme_isolated": rep.scheme.isolated,
        "scheme_reduced": rep.scheme.reduced,
        "consistent": rep.consistent,
    }, rep.smooth_away_from_zero_section


@_command("invariant", "is V(J) invariant under the prolongation", "ideal", xi=True)
def _cmd_invariant(session, args, budget, xi, ideal):
    from .foliations import is_invariant, prolong
    rep = is_invariant(prolong(xi), ideal, budget=budget)
    return {"xi": xi, "ideal": ideal}, {"certificates": rep.certificates}, rep.invariant


@_command("classify", "trichotomy classification of V(J)", "ideal", xi=True)
def _cmd_classify(session, args, budget, xi, ideal):
    from .foliations import classify_ch_subvariety
    cls = classify_ch_subvariety(xi, ideal, budget=budget)
    return {"xi": xi, "ideal": ideal}, {
        "tag": cls.tag,
        "point": cls.point,
        "residual": None if cls.residual is None else cls.residual.generators,
        "certificate": cls.certificate,
    }, None


@_command("darboux", "search for Darboux polynomials",
          ("--max-deg", {"type": int, "required": True}),
          ("--max-cofactor", {"type": int, "default": None}), xi=True)
def _cmd_darboux(session, args, budget, xi):
    from .foliations import darboux_search
    max_cof = args.max_cofactor
    if max_cof is None:
        max_cof = max(xi.degree() - 1, 0)
    res = darboux_search(xi, args.max_deg, max_cof, budget=budget)
    return {"xi": xi}, {
        "max_deg": args.max_deg,
        "max_cofactor": max_cof,
        "pairs": [{"g": p.polynomial, "cofactor": p.cofactor} for p in res.pairs],
        "complete": res.complete,
    }, None


@_command("degree", "hyperplane at infinity and projective degree", xi=True)
def _cmd_degree(session, args, budget, xi):
    from .foliations import hyperplane_at_infinity
    rep = hyperplane_at_infinity(xi)
    return {"xi": xi}, {
        "affine_degree": rep.affine_degree,
        "infinity_invariant": rep.invariant,
        "projective_degree": rep.projective_degree,
        "radial_factor": rep.radial_factor,
    }, None


@_command("eigen", "eigendata of the linear part at a point", "point", xi=True)
def _cmd_eigen(session, args, budget, xi, point):
    from .singularities import jacobian_eigendata, point_str
    inputs = {"xi": xi, "point": point_str(point)}
    try:
        data = jacobian_eigendata(xi, point, field=session.field, budget=budget)
    except UnresolvedFactor as exc:
        return inputs, {
            "unresolved_factor": upoly_str(exc.residual),
            "message": str(exc),
        }, None
    return inputs, {
        "char_poly": upoly_str(data.char_poly),
        "eigenvalues": data.eigenvalues,
        "eigenvectors": [{"value": v, "basis": basis}
                         for v, basis in data.eigenvectors],
        "invertible": data.invertible,
    }, None


@_command("nonres", "non-resonance test at a point", "point", xi=True)
def _cmd_nonres(session, args, budget, xi, point):
    from .singularities import is_nonresonant, point_str
    rep = is_nonresonant(xi, point, field=session.field, budget=budget)
    return {"xi": xi, "point": point_str(point)}, {
        "invertible": rep.invertible,
        "zrank": rep.rank,
        "eigenvalues": rep.eigenvalues,
    }, rep.nonresonant


@_command("holonomy", "linear holonomy spectrum around a separatrix",
          "point", "axis:int", xi=True)
def _cmd_holonomy(session, args, budget, xi, point, axis):
    from .singularities import holonomy_spectrum, point_str
    rep = holonomy_spectrum(xi, point, axis, field=session.field, budget=budget)
    return {"xi": xi, "point": point_str(point), "axis": axis}, {
        "separatrix_eigenvalue": rep.separatrix_eigenvalue,
        "spectrum": [
            {
                "ratio": e.ratio,
                "eigenvalue": e.symbol,
                "root_of_unity": e.root_of_unity,
                "order": e.order,
            }
            for e in rep.entries
        ],
        "maximal_torus": rep.maximal_torus,
    }, None


@_command("bott", "connection matrix along an invariant axis", "leaf", xi=True)
def _cmd_bott(session, args, budget, xi, leaf):
    from .singularities import bott_connection
    conn = bott_connection(xi, axis=leaf)
    return {"xi": xi, "leaf": conn.variable}, {
        "axis": conn.variable,
        "matrix": conn.entries,
    }, None


@_command("duality", "check the prolongation restricts to -A^T", "leaf", xi=True)
def _cmd_duality(session, args, budget, xi, leaf):
    from .singularities import verify_prolongation_duality
    rep = verify_prolongation_duality(xi, axis=leaf)
    return {"xi": xi, "leaf": rep.connection.variable}, {
        "connection": rep.connection.entries,
        "restricted": rep.restricted.entries,
    }, rep.holds


@_command("torus-fiber", "coordinate-subspace decomposition in a fiber", "ideal")
def _cmd_torus_fiber(session, args, budget, ideal):
    from .singularities import coordinate_subspace_decomposition
    yspace = VarSpace(session.dspace.y_vars)
    gens = [g.restrict_to(yspace) for g in ideal.generators]
    rep = coordinate_subspace_decomposition(Ideal(yspace, gens), budget=budget)
    return {"ideal": ideal}, {
        "offending": rep.offending,
        "monomials": rep.monomials,
        "components": rep.components,
        "dimensions": rep.dimensions,
        "same_dimension": rep.same_dimension,
    }, rep.torus_invariant


@_command("form-dist", "does the form define a distribution", "form")
def _cmd_form_dist(session, args, budget, w):
    from .forms import is_distribution
    return {"form": w}, {"degree": w.degree}, is_distribution(w)


@_command("form-int", "integrability of the distribution", "form")
def _cmd_form_int(session, args, budget, w):
    from .forms import is_integrable
    return {"form": w}, {"degree": w.degree}, is_integrable(w)


@_command("form-lognf", "logarithmic normal form of a torus-invariant form", "form")
def _cmd_form_lognf(session, args, budget, w):
    from .forms import logarithmic_normal_form
    nf, rep = logarithmic_normal_form(w)
    names = w.space.directions
    return {"form": w}, {
        "h": nf.h,
        "lambdas": {
            "^".join(names[i] for i in idx): lam
            for idx, lam in sorted(nf.lambdas.items())
        },
        "hyperplanes": rep.hyperplanes,
        "invariant_hyperplanes": rep.k,
        "form_degree": rep.q,
        "witness_subspace": None if rep.witness_subspace is None
        else [names[i] for i in rep.witness_subspace],
        "witness_dimension": rep.witness_dimension,
    }, True


@_command("inf-auto", "is the field an infinitesimal automorphism", "field", "form")
def _cmd_inf_auto(session, args, budget, xi, w):
    from .forms import is_infinitesimal_automorphism
    return {"xi": xi, "form": w}, {}, is_infinitesimal_automorphism(xi, w)


@_command("disc", "discriminant of a binary form", "binform")
def _cmd_disc(session, args, budget, p):
    from .forms import binary_discriminant
    k = p.degree()
    coeffs = [Fraction(0)] * (k + 1)
    for e, c in p.terms.items():
        coeffs[k - e[0]] = c
    disc = binary_discriminant(coeffs)
    return {"binform": p}, {"degree": k, "discriminant": disc}, None


@_command("weyl-mul", "normally ordered product of two operators", "a:op", "b:op")
def _cmd_weyl_mul(session, args, budget, a, b):
    return {"a": a, "b": b}, {"product": a * b}, None


@_command("symbol", "symbol of an operator", "op",
          ("--bernstein", {"action": "store_true"}),
          ("--order", {"action": "store_true"}), exclusive=True)
def _cmd_symbol(session, args, budget, d):
    from .foliations import characteristic_polynomial
    from .weyl import bernstein_symbol, order_one_field, principal_symbol
    if args.bernstein:
        k, sym = bernstein_symbol(d, session.dspace)
        return {"operator": d}, {
            "filtration": "bernstein", "degree": k, "symbol": sym,
        }, None
    m, sym = principal_symbol(d, session.dspace)
    result = {"filtration": "order", "order": m, "symbol": sym}
    if m == 1:
        xi = order_one_field(d, session.dspace)
        result["matches_characteristic_polynomial"] = (
            sym == characteristic_polynomial(xi).lift_to(sym.space))
        result["hypersurface"] = f"ch = {{{sym} = 0}}"
    return {"operator": d}, result, None


@_command("gb", "reduced Groebner basis of an ideal", "ideal",
          ("--order", {"default": "grevlex", "choices": ["grevlex", "lex", "block"]}))
def _cmd_gb(session, args, budget, ideal):
    order = order_from_name(args.order, session.dspace)
    basis = ideal.basis(order=order, budget=budget)
    return {"ideal": ideal}, {
        "order": args.order,
        "basis": [g.to_str(order) for g in basis],
    }, None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser(argv):
    """The parser of ``argv``: with only the subcommand that ``argv`` starts
    with, if it starts with one, else with all of them.  The usage lists
    every subcommand either way."""
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
    only = argv[:1] if argv and argv[0] in _COMMANDS else None
    sub = top.add_subparsers(dest="command", required=True,
                             metavar=only and "{" + ",".join(_COMMANDS) + "}")
    for name in only or _COMMANDS:
        cmd = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=cmd.help)
        for arg, kind, optional in _positionals(cmd.specs):
            p.add_argument(arg, type=int if kind == "int" else None,
                           nargs="?" if optional else None)
        options = p.add_mutually_exclusive_group() if cmd.exclusive else p
        for spec in cmd.specs:
            if not isinstance(spec, str):
                options.add_argument(spec[0], **spec[1])
    return top


def _error_report(command, exc):
    result = {"error": type(exc).__name__, "message": str(exc)}
    return Report(command, {}, result, None, {})


def _step_limit(flag):
    """The step limit: ``--budget``, else ``FOLICHAR_BUDGET``, else the default.
    A value that is not a positive integer is an input error."""
    text = os.environ.get("FOLICHAR_BUDGET") if flag is None else str(flag)
    if not text:
        return DEFAULT_BUDGET
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit < 1:
        raise InvalidInput(f"step budget must be a positive integer, got {text!r}")
    return limit


def _run(args):
    """The report of one run and its exit code."""
    cmd = _COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        with open(args.session, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _error_report(args.command, exc), 2
    try:
        budget = StepBudget(_step_limit(args.budget))
        session = parse_input(
            text, assume_irreducible=args.assume_irreducible
        )
        # the session's field first, then the positionals in order: the
        # first error reported is the first input that fails
        values = [session.vector_field(args.field_name)] if cmd.xi else []
        values += [_resolve(session, kind, getattr(args, arg))
                   for arg, kind, _ in _positionals(cmd.specs)]
        inputs, result, verdict = cmd.handler(session, args, budget, *values)
        inputs, result = _jsonable(inputs), _jsonable(result)
    except BudgetExceeded as exc:
        return _error_report(args.command, exc), 3
    except _VERDICT_ERRORS as exc:
        inputs, verdict = {}, False
        result = {"reason": str(exc), "error": type(exc).__name__}
    except FolicharError as exc:
        return _error_report(args.command, exc), 2
    except Exception as exc:
        # a defect, not an answer: never exit 1, which means "no"
        return _error_report(args.command, exc), 4
    timings = {"total_ms": round((time.perf_counter() - t0) * 1000, 3)}
    report = Report(args.command, inputs, result, verdict, timings)
    return report, 0 if verdict in (True, None) else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    report, code = _run(args)
    text = report.json_text() if args.json else report.human()
    try:
        print(text, flush=True)
    except OSError as exc:
        # an unwritable report is not a "no": exit 2, without a traceback
        print(f"folichar: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
