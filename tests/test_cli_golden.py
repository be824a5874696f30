"""Frozen CLI corpus: every subcommand end to end, byte for byte.

``data/cli_golden.json`` holds, for each case, a session file, the command
line after the session path, and what the CLI printed: the exit code, the
JSON envelope without ``timings``, the human text and anything written to
stderr (argparse usage errors).  The cases cover a success for every
subcommand, the negative verdicts (exit 1), input errors (exit 2) and budget
exhaustion (exit 3) over Q, Q(sqrt 2) and Q(i) sessions.
"""

import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from folichar.cli import main

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)
SCHEMA = json.loads(resources.files("folichar").joinpath("schema.json").read_text())


@pytest.fixture
def invoke(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    monkeypatch.delenv("FOLICHAR_BUDGET", raising=False)

    def _invoke(case, *extra):
        path = "absent.fol"
        if case["session"] is not None:
            path = "session.fol"
            (tmp_path / path).write_text(CORPUS["sessions"][case["session"]])
        command, *rest = case["argv"]
        try:
            code = main([command, path, *rest, *extra])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _invoke


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda c: c["id"])
def test_cli_output_is_frozen(invoke, case):
    code, out, err = invoke(case, "--json")
    assert (code, err) == (case["exit"], case["stderr"])
    if case["json"] is None:
        assert out == ""
    else:
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        del payload["timings"]
        # dumps compares key order too
        assert json.dumps(payload) == json.dumps(case["json"])

    code, out, err = invoke(case)
    assert (code, out, err) == (case["exit"], case["human"], case["stderr"])
