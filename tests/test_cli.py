"""End-to-end command-line behavior: JSON envelopes, verdict exit codes,
error handling, and the shipped schema."""

import argparse
import contextlib
import io
import json
import os
import re
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_parser import _HEADERS, _expression_text

import folichar
from folichar.cli import _COMMANDS, _build_parser, _positionals, main

DIAG_SESSION = """\
vars: x1 x2
xi: x1*d1 + 2*x2*d2
J: ideal(x2, y1)
"""

ROT_SESSION = """\
vars: x1 x2
xi: x2*d1 - x1*d2
J: ideal(x1)
"""


@pytest.fixture
def run(tmp_path, capsys):
    def _run(source, command, *extra):
        fol = tmp_path / "session.fol"
        fol.write_text(source)
        code = main([command, str(fol), *extra])
        return code, capsys.readouterr().out

    return _run


def _schema():
    text = resources.files("folichar").joinpath("schema.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# worked command examples


def test_classify_reports_quasi_minimality_violation(run):
    code, out = run(DIAG_SESSION, "classify", "J", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["tag"] == "QuasiMinimalityViolation"
    assert payload["schema"] == 1


def test_symbol_order_filtration(run):
    source = "vars: x1 x2\nop: x2*d1 - x1*d2 + x1\n"
    code, out = run(source, "symbol", "op", "--order", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["order"] == 1
    assert payload["result"]["symbol"] == "x2*y1 - x1*y2"


def test_gb_unit_ideal(run):
    source = "vars: x1 x2\nJ: ideal(x1, x1 + 1)\n"
    code, out = run(source, "gb", "J", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["basis"] == ["1"]


def test_ch_and_degree(run):
    code, out = run(DIAG_SESSION, "ch", "--json")
    assert code == 0
    assert json.loads(out)["result"]["characteristic_polynomial"] == "x1*y1 + 2*x2*y2"

    code, out = run(ROT_SESSION, "degree", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["infinity_invariant"] is True
    assert payload["result"]["projective_degree"] == 1


def test_degree_of_a_constant_field_in_one_variable(run):
    # d/dx1 has no radial top part: the hyperplane at infinity is invariant
    code, out = run("vars: x1\nxi: d1\n", "degree", "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"affine_degree": 0, "infinity_invariant": True,
                                         "projective_degree": 0, "radial_factor": None}


def test_disc_in_a_one_variable_session(run):
    # a*x1^k is a*u^k with v absent: a k-fold root, discriminant 0
    code, out = run("vars: x1\nxi: x1*d1\n", "disc", "x1^2", "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"degree": 2, "discriminant": "0"}


def test_darboux_command(run):
    code, out = run(DIAG_SESSION, "darboux", "--max-deg", "1", "--json")
    payload = json.loads(out)
    assert code == 0
    pairs = {(p["g"], p["cofactor"]) for p in payload["result"]["pairs"]}
    assert pairs == {("x1", "1"), ("x2", "2")}


def test_darboux_over_number_field_coefficients_exits_two(run):
    # the search solves over Q only: an r-coefficient is an input error
    source = (
        "vars: x1 x2\n"
        "field: r where r^2 - 2 = 0\n"
        "xi: r*x2*d1 + x1*d2\n"
    )
    code, out = run(source, "darboux", "--max-deg", "1", "--json")
    assert code == 2
    assert json.loads(out)["result"]["error"] == "FieldMismatch"


def test_darboux_accepts_rational_number_field_coefficients(run):
    # r^2 = 2 is rational although it is an element of Q(r)
    source = "vars: x1 x2\nfield: r where r^2 - 2 = 0\nxi: r^2*x1*d1 + 2*x2*d2\n"
    code, out = run(source, "darboux", "--max-deg", "1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["inputs"]["xi"] == "2*x1*d1 + 2*x2*d2"
    pairs = {(p["g"], p["cofactor"]) for p in payload["result"]["pairs"]}
    assert pairs == {("x1", "2"), ("x2", "2")}


def test_degree_one_field_answers_as_q(run):
    # Q(r) with r - 2 = 0 is Q: every command answers as with 2 written out
    def answers(source, *argv):
        code, out = run(source, *argv, "--json")
        payload = json.loads(out)
        payload.pop("timings")
        return code, payload

    body = "xi: {r}*x2*d1 - x1*d2\nJ: ideal({r}*x1 - x2, x2^2 - {r})\n"
    deg1 = "vars: x1 x2\nfield: r where r - 2 = 0\n" + body.format(r="r")
    plain = "vars: x1 x2\n" + body.format(r="2")
    for argv in (["ch"], ["sing"], ["gb", "J"], ["darboux", "--max-deg", "1"]):
        assert answers(deg1, *argv) == answers(plain, *argv), argv
    assert answers(deg1, "ch")[1]["inputs"]["xi"] == "2*x2*d1 - x1*d2"


@pytest.mark.parametrize("bounds, message", [
    (("--max-deg", "-1"), "got max_deg -1 and max_cofactor_deg 0"),
    (("--max-deg", "1", "--max-cofactor", "-3"), "got max_deg 1 and max_cofactor_deg -3"),
], ids=["max-deg", "max-cofactor"])
def test_darboux_negative_bound_exits_two(run, bounds, message):
    # an empty search would be vacuously complete: a negative bound is an input error
    code, out = run(ROT_SESSION, "darboux", *bounds, "--json")
    assert code == 2
    result = json.loads(out)["result"]
    assert result["error"] == "InvalidInput" and result["message"].endswith(message)


def test_declared_polynomial_as_ideal_and_binary_form(run):
    source = DIAG_SESSION + "f: x1*y1 + 2*x2*y2\nq: x1^2 - 2*x2^2\n"
    code, out = run(source, "classify", "f", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["inputs"]["ideal"] == "ideal(x1*y1 + 2*x2*y2)"
    assert payload["result"]["tag"] == "WholeCharVariety"
    declared, inline = (json.loads(run(source, "disc", q, "--json")[1])
                        for q in ("q", "x1^2 - 2*x2^2"))
    assert declared["result"] == inline["result"] == {"degree": 2, "discriminant": "8"}
    assert declared["inputs"] == inline["inputs"]


def test_declared_polynomial_read_as_binary_form_has_no_position(run):
    # a CLI argument naming a declaration is read at no place in the session
    source = DIAG_SESSION + "f: x1^2 + x2\n"
    code, out = run(source, "disc", "f", "--json")
    assert code == 2
    assert json.loads(out)["result"] == {"error": "ParseError",
                                         "message": "binform must be homogeneous"}


# ---------------------------------------------------------------------------
# JSON envelope and schema


def test_json_outputs_validate_against_shipped_schema(run):
    schema = _schema()
    invocations = [
        (DIAG_SESSION, "ch"),
        (DIAG_SESSION, "prolong"),
        (DIAG_SESSION, "sing"),
        (DIAG_SESSION, "ch-sing"),
        (DIAG_SESSION, "classify", "J"),
        (DIAG_SESSION, "invariant", "J"),
        (DIAG_SESSION, "darboux", "--max-deg", "1"),
        (DIAG_SESSION, "degree"),
        (DIAG_SESSION, "eigen", "0,0"),
        (DIAG_SESSION, "nonres", "0,0"),
        (DIAG_SESSION, "holonomy", "0,0", "1"),
        (DIAG_SESSION, "bott", "x1"),
        (DIAG_SESSION, "duality", "x1"),
        ("vars: x1 x2\nop: x2*d1 - x1*d2 + x1\n", "symbol", "op"),
        ("vars: x1 x2\na: d1\nb: x1*d1\n", "weyl-mul", "a", "b"),
        ("vars: x1 x2\nq: binform(x1^2 - 2*x2^2)\n", "disc", "q"),
        ("vars: x1 x2\nw: x1*dx1 + x2*dx2\n", "form-dist", "w"),
        ("vars: x1 x2\nw: x1*dx1 + x2*dx2\n", "form-int", "w"),
    ]
    for source, *argv in invocations:
        code, out = run(source, *argv, "--json")
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert set(payload) == {
            "schema",
            "command",
            "inputs",
            "result",
            "verdict",
            "timings",
        }
        assert code in (0, 1)


def test_verdicts_match_between_human_and_json(run):
    # true verdict
    code_h, human = run(DIAG_SESSION, "invariant", "J")
    code_j, out = run(DIAG_SESSION, "invariant", "J", "--json")
    assert code_h == code_j == 0
    assert "verdict: yes" in human
    assert json.loads(out)["verdict"] is True

    # false verdict
    code_h, human = run(ROT_SESSION, "invariant", "J")
    code_j, out = run(ROT_SESSION, "invariant", "J", "--json")
    assert code_h == code_j == 1
    assert "verdict: no" in human
    assert json.loads(out)["verdict"] is False


# ---------------------------------------------------------------------------
# exit codes


def test_negative_verdict_exits_one(run):
    contact = "vars: x1 x2\nw: dy1 + x2*dx1\n"
    code, out = run(contact, "form-int", "w", "--json")
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["ch", str(tmp_path / "absent.fol"), "--json"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["result"]["error"] == "FileNotFoundError"


def test_parse_error_exits_two(run):
    code, out = run("vars: x1 x2\ng: x1 + * 2\n", "ch", "--json")
    assert code == 2
    assert json.loads(out)["result"]["error"] == "ParseError"


@pytest.mark.parametrize(
    "expr",
    ["ideal(" + "(" * 3000 + "x1" + ")" * 3000 + ")", "-" * 3000 + "x1"],
    ids=["nested-parentheses", "minus-chain"],
)
def test_deeply_nested_expression_exits_two(run, expr):
    code, out = run(f"vars: x1 x2\ng: {expr}\n", "ch", "--json")
    assert code == 2
    assert json.loads(out)["result"]["error"] == "ParseError"


@pytest.mark.parametrize("n", [1500, 20000])
@pytest.mark.parametrize(
    "term, op, decl, command, section, key, expected",
    [
        ("x1", " + ", "f: {c}", ["hamiltonian", "f"], "inputs", "F", "{n}*x1"),
        ("x1", "*", "f: {c}", ["hamiltonian", "f"], "inputs", "F", "x1^{n}"),
        ("x2*d1", " + ", "xi: {c}", ["ch"], "result",
         "characteristic_polynomial", "{n}*x2*y1"),
        ("dx1", " + ", "w: {c}", ["form-dist", "w"], "inputs", "form", "{n}*dx1"),
        ("x1", "+", "", ["gb", "{c}"], "inputs", "ideal", "ideal({n}*x1)"),
    ],
    ids=["poly-sum", "poly-product", "field", "form", "inline-ideal"],
)
def test_flat_chain_evaluates(run, n, term, op, decl, command, section, key,
                              expected):
    # a flat chain parses to an AST as deep as it has terms
    chain = op.join([term] * n)
    argv = [a.format(c=chain) for a in command]
    code, out = run(f"vars: x1 x2\n{decl.format(c=chain)}\n", *argv, "--json")
    assert code == 0
    assert json.loads(out)[section][key] == expected.format(n=n)


def test_unknown_name_exits_two(run):
    code, out = run(DIAG_SESSION, "classify", "K", "--json")
    assert code == 2


def test_budget_exhaustion_exits_three(run):
    source = (
        "vars: x1 x2 x3\n"
        "J: ideal(x1^2 + x2*x3, x2^2 + x1*x3, x3^2 + x1*x2)\n"
    )
    code, out = run(source, "gb", "J", "--json", "--budget", "2")
    assert code == 3
    assert json.loads(out)["result"]["error"] == "BudgetExceeded"


def test_budget_from_environment_and_flag(run, monkeypatch):
    source = (
        "vars: x1 x2 x3\n"
        "J: ideal(x1^2 + x2*x3, x2^2 + x1*x3, x3^2 + x1*x2)\n"
    )
    monkeypatch.setenv("FOLICHAR_BUDGET", "2")
    code, out = run(source, "gb", "J", "--json")
    assert code == 3
    assert json.loads(out)["result"]["error"] == "BudgetExceeded"
    # the flag wins over the environment
    code, _ = run(source, "gb", "J", "--json", "--budget", "100000")
    assert code == 0


def test_only_the_cli_reads_the_environment():
    package = Path(folichar.__file__).parent
    readers = sorted(f.name for f in package.glob("*.py")
                     if "os.environ" in f.read_text(encoding="utf-8"))
    assert readers == ["cli.py"]


@pytest.mark.parametrize("value", ["5k", "0", "-3", "1.5"])
def test_malformed_or_nonpositive_budget_in_environment_exits_two(run, monkeypatch, value):
    monkeypatch.setenv("FOLICHAR_BUDGET", value)
    code, out = run(DIAG_SESSION, "ch", "--json")
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    assert payload["result"]["error"] == "InvalidInput"
    assert repr(value) in payload["result"]["message"]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_budget_flag_exits_two(run, monkeypatch, value):
    monkeypatch.setenv("FOLICHAR_BUDGET", "100000")
    code, out = run(DIAG_SESSION, "ch", "--json", "--budget", value)
    assert code == 2
    assert json.loads(out)["result"]["error"] == "InvalidInput"


def test_unwritable_report_exits_two(tmp_path, capsys, monkeypatch):
    class BrokenPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    fol = tmp_path / "session.fol"
    fol.write_text(DIAG_SESSION)
    monkeypatch.setattr("sys.stdout", BrokenPipe())
    code = main(["ch", str(fol), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "cannot write the report" in err
    assert "Traceback" not in err


def test_undecodable_session_exits_two(tmp_path, capsys):
    fol = tmp_path / "session.fol"
    fol.write_bytes(b"vars: x1\xff x2\n")
    code = main(["ch", str(fol), "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["result"]["error"] == "UnicodeDecodeError"


def test_budget_flag_restores_environment(run):
    os.environ.pop("FOLICHAR_BUDGET", None)
    code, _ = run(DIAG_SESSION, "ch", "--budget", "100000")
    assert code == 0
    assert "FOLICHAR_BUDGET" not in os.environ

    os.environ["FOLICHAR_BUDGET"] = "777"
    try:
        code, _ = run(DIAG_SESSION, "ch", "--budget", "100000")
        assert code == 0
        assert os.environ["FOLICHAR_BUDGET"] == "777"
    finally:
        os.environ.pop("FOLICHAR_BUDGET", None)


# ---------------------------------------------------------------------------
# local analysis paths


def test_eigen_unresolved_factor_is_partial_report(run):
    # irreducible quadratic eigenvalues: still exit 0, residual reported
    code, out = run(ROT_SESSION, "eigen", "0,0", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["unresolved_factor"] == "t^2 + 1"

    code, _ = run(ROT_SESSION, "nonres", "0,0", "--json")
    assert code == 2


def test_eigen_over_declared_number_field(run):
    source = (
        "vars: x1 x2\n"
        "field: i where i^2 + 1 = 0\n"
        "xi: x2*d1 - x1*d2\n"
    )
    code, out = run(source, "eigen", "0,0", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["eigenvalues"] == ["-i", "i"]


def test_field_flag_selects_declaration(run):
    source = (
        "vars: x1 x2\n"
        "a: x1*d1 + 2*x2*d2\n"
        "b: x2*d1 - x1*d2\n"
    )
    code, out = run(source, "ch", "--field", "a", "--json")
    assert code == 0
    assert json.loads(out)["result"]["characteristic_polynomial"] == "x1*y1 + 2*x2*y2"

    code, out = run(source, "ch", "--field", "b", "--json")
    assert json.loads(out)["result"]["characteristic_polynomial"] == "x2*y1 - x1*y2"

    # ambiguous without the flag
    code, _ = run(source, "ch", "--json")
    assert code == 2


def test_assume_irreducible_flag(run):
    source = (
        "vars: x1\n"
        "field: a where a^5 - a - 1 = 0\n"
        "xi: x1*d1\n"
    )
    code, _ = run(source, "ch", "--json")
    assert code == 2
    code, out = run(source, "ch", "--assume-irreducible", "--json")
    assert code == 0


def test_torus_fiber_command(run):
    source = "vars: x1 x2 x3\nJ: ideal(y1*y2, y1*y3, y2*y3)\n"
    code, out = run(source, "torus-fiber", "J", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] is True
    comps = [tuple(c) for c in payload["result"]["components"]]
    assert comps == [["y1", "y2"], ["y1", "y3"], ["y2", "y3"]] or comps == [
        ("y1", "y2"),
        ("y1", "y3"),
        ("y2", "y3"),
    ]


def test_torus_fiber_of_an_ideal_with_a_unit_generator(run):
    code, out = run("vars: x1 x2\n", "torus-fiber", "ideal(y1*y2, 1)", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] is True
    assert payload["result"] == {"offending": None, "monomials": ["1"], "components": [],
                                 "dimensions": [], "same_dimension": True}


def test_torus_fiber_past_ten_variables_is_an_input_error(run):
    # the minimal covers are built only for supports in at most 10 variables
    source = "vars: " + " ".join(f"x{i}" for i in range(1, 13)) + "\n"
    ideal = "ideal(" + ", ".join(f"y{i}*y{i + 1}" for i in range(1, 12)) + ")"
    code, out = run(source, "torus-fiber", ideal, "--json")
    assert code == 2
    assert json.loads(out)["result"] == {
        "error": "InvalidInput",
        "message": "vertex covers limited to supports in 10 variables"}


def test_automorphism_test_of_a_function_exits_two(run):
    # any two nonzero functions are proportional over the fraction field, so
    # the test says nothing about a 0-form; the distribution tests reject one too
    code, out = run(DIAG_SESSION, "inf-auto", "xi", "x1^2 + 1", "--json")
    assert code == 2
    assert json.loads(out)["result"] == {
        "error": "InvalidInput",
        "message": "the automorphism test applies to forms of degree >= 1"}


def test_padded_field_name_resolves_like_every_other_kind(run):
    # a field positional is stripped before it is looked up, as a form is
    source = DIAG_SESSION + "w: x1*dx1\n"
    for field, form in (("xi", "w"), (" xi", " w"), ("xi ", "w ")):
        code, out = run(source, "inf-auto", field, form, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] is True
        assert payload["inputs"] == {"xi": "x1*d1 + 2*x2*d2", "form": "x1*dx1"}


@pytest.mark.parametrize("point", ["0,,0", "0,0,"])
def test_empty_point_coordinate_exits_two(run, point):
    code, out = run(DIAG_SESSION, "eigen", point, "--json")
    assert code == 2
    assert json.loads(out)["result"]["error"] == "ParseError"


def test_negative_point_reads_as_an_option_unless_quoted(run, capsys):
    """A point starting with a minus sign is an option to argparse, so the
    point is missing; parentheses or a preceding -- pass it through."""
    source = "vars: x1 x2\nxi: (x1^2 - 1)*d1 + x2*d2\n"
    with pytest.raises(SystemExit) as exc:
        run(source, "eigen", "-1,0")
    assert exc.value.code == 2
    assert "the following arguments are required: point" in capsys.readouterr().err
    for argv in (("(-1,0)", "--json"), ("--json", "--", "-1,0")):
        code, out = run(source, "eigen", *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"]["point"] == "(-1, 0)"
        assert payload["result"]["eigenvalues"] == ["-2", "1"]


# ---------------------------------------------------------------------------
# declared names in every context

CONST_SESSION = """\
vars: x1 x2
c: 3
xi: x2*d1 + (x1 - 3)*d2
"""


def test_declared_constant_in_binform_and_point(run):
    code, out = run(CONST_SESSION, "disc", "c*x1^2 + x2^2", "--json")
    assert code == 0
    assert json.loads(out)["result"]["discriminant"] == "-12"

    code, out = run(CONST_SESSION, "eigen", "c, 0", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["inputs"]["point"] == "(3, 0)"
    assert payload["result"]["eigenvalues"] == ["-1", "1"]

    code, out = run(CONST_SESSION + "q: binform(c*x1^2)\n", "disc", "q", "--json")
    assert code == 0
    assert json.loads(out)["inputs"]["binform"] == "3*x1^2"


def test_declared_y_polynomial_in_binform_exits_two(run):
    source = CONST_SESSION + "p: y1\nq: binform(p*x1)\n"
    code, out = run(source, "ch", "--json")
    assert code == 2
    assert json.loads(out)["result"] == {
        "error": "SpaceMismatch",
        "message": "variable y1 is used but absent from (x1,x2)",
    }


def _operator_chain(first, n):
    lines = ["vars: x1 x2", f"o0: {first}"]
    lines += [f"o{i}: o{i - 1} + x2*d1" for i in range(1, n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [50, 400])
def test_operator_chain_used_as_form(run, n):
    # each declaration is evaluated once; the last field reads as a 1-form
    source = _operator_chain("x2*d1", n) + f"w: o{n - 1} ^ dx2\n"
    code, out = run(source, "form-dist", "w", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["inputs"]["form"] == f"{n}*x2*dx1^dx2"
    assert payload["verdict"] is True


def test_operator_chain_keeps_the_first_error(run):
    # d1*d2 is an operator but not a form: the error is raised where o399 is
    # read, with no position for a CLI name and the read's own for an inline one
    source = _operator_chain("d1*d2", 400)
    for arg, where in (("o399", ""), ("o399 ^ dx1", " at line 1, column 1")):
        code, out = run(source, "form-dist", arg, "--json")
        assert code == 2
        assert json.loads(out)["result"] == {
            "error": "MixedContext",
            "message": f"o399 is not a form{where}",
        }


def test_zero_form_times_form_is_a_product(run):
    # a declared constant read as a form is a 0-form: * scales by it
    code, out = run(CONST_SESSION, "form-dist", "c*dx1", "--json")
    assert code == 0
    assert json.loads(out)["inputs"]["form"] == "3*dx1"

    code, out = run(CONST_SESSION + "w: c*dx1\n", "form-dist", "w", "--json")
    assert code == 0
    assert json.loads(out)["inputs"]["form"] == "3*dx1"

    code, out = run(CONST_SESSION, "form-dist", "dx1*dx2", "--json")
    assert code == 2
    assert json.loads(out)["result"] == {
        "error": "MixedContext",
        "message": "use ^ to multiply forms at line 1, column 4",
    }


@pytest.mark.parametrize("command, args, token", [
    ("invariant", ["K"], "K"),
    ("classify", ["ideal(x1) + J"], "ideal"),
    ("hamiltonian", ["  x1 + $"], "$"),
    ("weyl-mul", ["a", "  y1"], "y1"),
    ("form-dist", ["dx1*dx2"], "*"),
    ("eigen", ["0, x1"], "x1"),
    ("disc", ["  x1^2 + x2"], "x1"),
])
def test_cli_error_columns_index_the_offending_token_in_the_argument(run, command, args, token):
    code, out = run(DIAG_SESSION + "a: d1\n", command, *args, "--json")
    message = json.loads(out)["result"]["message"]
    line, column = map(int, re.search(r"at line (\d+), column (\d+)$", message).groups())
    assert (code, line, column) == (2, 1, args[-1].index(token) + 1)


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    def broken(xi):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr("folichar.foliations.characteristic_polynomial", broken)
    fol = tmp_path / "session.fol"
    fol.write_text(DIAG_SESSION)
    code = main(["ch", str(fol), "--json"])
    captured = capsys.readouterr()
    assert code == 4
    payload = json.loads(captured.out)
    jsonschema.validate(payload, _schema())
    assert payload["result"] == {"error": "RuntimeError", "message": "simulated defect"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_bare_value_or_key_error_is_a_defect(tmp_path, capsys, monkeypatch, error):
    """Input errors are FolicharError subclasses; a bare ValueError or
    KeyError out of a handler is a defect (exit 4), never exit 2."""
    def broken(xi):
        raise error("simulated defect")

    monkeypatch.setattr("folichar.foliations.characteristic_polynomial", broken)
    fol = tmp_path / "session.fol"
    fol.write_text(DIAG_SESSION)
    code = main(["ch", str(fol), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["result"]["error"] == error.__name__
    # library callers that catch ValueError still catch the input errors
    assert issubclass(folichar.InvalidInput, ValueError)
    assert issubclass(folichar.InvalidInput, folichar.FolicharError)


def test_a_run_builds_only_the_subcommand_it_names(monkeypatch):
    """A parser built for one subcommand prints the help of that
    subcommand and the top-level usage exactly as the full table does."""
    monkeypatch.setenv("COLUMNS", "80")

    def subparsers(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    full = _build_parser([])
    for name in _COMMANDS:
        one = _build_parser([name, "session.fol"])
        assert list(subparsers(one)) == [name]
        assert subparsers(one)[name].format_help() == subparsers(full)[name].format_help()
        assert one.format_usage() == full.format_usage()
    assert list(subparsers(_build_parser(["nosuch"]))) == list(_COMMANDS)


def test_readme_matches_the_command_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Subcommands:(.*?)\.\n", readme, re.S).group(1)
    parser = _build_parser([])
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert re.findall(r"`([^`]+)`", listed) == list(sub.choices)
    assert re.findall(r"^\| (\d+) \|", readme, re.M) == ["0", "1", "2", "3", "4"]


# ---------------------------------------------------------------------------
# exit-code fuzzer

_FUZZ_FIELDS = ("x1*d1 + 2*x2*d2", "x2*d1 - x1*d2", "(x1^2 - 1)*d1 + (x2^2 - x1)*d2",
                "r*x2*d1 + x1*d2", "x1*x2*d1 - x2^2*d2")
_FUZZ_DECLARATIONS = ("x1^2 - x2", "ideal(x1*y1, x2)", "ideal(y1, y2^2)", "x2*dx1 - x1*dx2",
                      "dx1^dx2", "x2*d1 + 1", "binform(x1^2 - 3*x2^2)", "ideal(x2 - r*x1)")
_FUZZ_TEXTS = {
    "point": ("0,0", "1, 0", "(0, 0)", "1/2,-1", "r,0", "x1,0", "0", "0,,0", ""),
    "int": ("0", "1", "-1", "7", "x1"),
    "leaf": ("x1", "x2", "0", "1", "-1", "y1", "z"),
}
_FUZZ_EXPRESSIONS = ("e", "xi", "0", "1", "x1", "y1", "d1", "dx1", "x1*d1 - x2*d2",
                     "ideal(x1, y2)", "x1^2 - x2^2", "x1^2", "r*x1", "e^dx2", "z", "(")
_FUZZ_OPTIONS = {
    "darboux": (("--max-deg", "0"), ("--max-deg", "1"), ("--max-deg", "1", "--max-cofactor", "0")),
    "gb": ((), ("--order", "lex"), ("--order", "block")),
    "symbol": ((), ("--bernstein",), ("--order",)),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_code_is_an_answer_on_drawn_input(tmp_path_factory, data):
    """Every subcommand on drawn sessions and arguments exits 0-3 and prints
    one JSON envelope: exit 4 (a defect) is never the answer to an input."""
    xi = data.draw(st.one_of(st.sampled_from(_FUZZ_FIELDS), _expression_text()))
    e = data.draw(st.one_of(st.sampled_from(_FUZZ_DECLARATIONS), _expression_text()))
    source = f"{data.draw(st.sampled_from(_HEADERS))}xi: {xi}\ne: {e}\n"
    fol = tmp_path_factory.getbasetemp() / "fuzz.fol"
    fol.write_text(source)
    name = data.draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [name, str(fol), "--json", "--budget", "5000"]
    for _, kind, _ in _positionals(_COMMANDS[name].specs):
        argv.append(data.draw(st.sampled_from(_FUZZ_TEXTS.get(kind, _FUZZ_EXPRESSIONS))))
    argv += data.draw(st.sampled_from(_FUZZ_OPTIONS.get(name, ((),))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line on stderr
            assert exc.code == 2 and not out.getvalue()
            return
    assert code in (0, 1, 2, 3), (source, argv, out.getvalue())
    jsonschema.validate(json.loads(out.getvalue()), _schema())
