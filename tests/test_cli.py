"""End-to-end command-line behavior: JSON envelopes, verdict exit codes,
error handling, and the shipped schema."""

import json
import os
from importlib import resources

import jsonschema
import pytest

from folichar.cli import main

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


def test_darboux_command(run):
    code, out = run(DIAG_SESSION, "darboux", "--max-deg", "1", "--json")
    payload = json.loads(out)
    assert code == 0
    pairs = {(p["g"], p["cofactor"]) for p in payload["result"]["pairs"]}
    assert pairs == {("x1", "1"), ("x2", "2")}


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


def test_unknown_name_exits_two(run):
    code, out = run(DIAG_SESSION, "classify", "K", "--json")
    assert code == 2


def test_budget_exhaustion_exits_three(run):
    source = (
        "vars: x1 x2 x3\n"
        "J: ideal(x1^2 + x2*x3, x2^2 + x1*x3, x3^2 + x1*x2)\n"
    )
    code, out = run(source, "gb", "J", "--json", "--budget", "5")
    assert code == 3
    assert json.loads(out)["result"]["error"] == "BudgetExceeded"


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
