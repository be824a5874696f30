"""The package surface: lazily resolved exports, and the modules that a
bare import and each CLI run load (the package's own, and ``dataclasses``,
which no run needs)."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import folichar

SRC = str(Path(folichar.__file__).parents[1])

_REPORT = ('print("modules:", *sorted(m for m in sys.modules'
           ' if m.startswith("folichar.") or m == "dataclasses"), file=sys.stderr)')

# runs ``python -m folichar.cli ARGS`` and reports its modules at exit
_RUN_CLI = f"""\
import atexit, runpy, sys
atexit.register(lambda: {_REPORT})
sys.argv[0] = "folichar"
runpy.run_module("folichar.cli", run_name="__main__", alter_sys=True)
"""

_DOMAIN = {"foliations", "forms", "singularities", "weyl"}


def _loaded(tmp_path, code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("modules:"), proc.stderr
    return proc, {m.removeprefix("folichar.") for m in last.split()[1:]}


@pytest.mark.parametrize("session, args, absent", [
    ("vars: x1 x2\nJ: ideal(x1^2 - x2, x1*x2)\n", ["gb", "J"], _DOMAIN),
    ("vars: x1 x2\nxi: x1*d1 + 2*x2*d2\nJ: ideal(x2, y1)\n", ["classify", "J"],
     {"singularities", "forms"}),
    ("vars: x1 x2 x3\nw: x2*dx1 + dx3\n", ["form-int", "w"],
     {"weyl", "foliations", "singularities"}),
    ("vars: x1 x2\nxi: x1*d1 + 2*x2*d2\n", ["eigen", "0,0"], {"forms"}),
    ("vars: x1 x2\nxi: x1^2*d1 + x1*x2*d2\n", ["degree"], {"singularities", "forms"}),
], ids=["gb", "classify", "form-int", "eigen", "degree"])
def test_cli_loads_only_what_its_subcommand_uses(tmp_path, session, args, absent):
    (tmp_path / "s.fol").write_text(session)
    proc, loaded = _loaded(tmp_path, _RUN_CLI, args[0], "s.fol", *args[1:], "--json")
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)["command"] == args[0]
    assert {"parser", "reports"} <= loaded
    assert loaded & _DOMAIN == _DOMAIN - absent
    assert "dataclasses" not in loaded


def test_bare_import_loads_no_submodule_but_errors(tmp_path):
    _, loaded = _loaded(tmp_path, f"import sys, folichar\n{_REPORT}\n")
    assert loaded <= {"errors"}


def test_exports_resolve_to_their_modules():
    table = folichar._EXPORTS
    assert folichar.__all__ == [name for names in table.values() for name in names]
    assert len(set(folichar.__all__)) == len(folichar.__all__)
    for module, names in table.items():
        mod = importlib.import_module(f"folichar.{module}")
        for name in names:
            assert getattr(folichar, name) is getattr(mod, name)
    assert set(folichar.__all__) <= set(dir(folichar))
    namespace = {}
    exec("from folichar import *", namespace)
    assert set(folichar.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        folichar.no_such_name


def test_no_module_imports_dataclasses_or_typing():
    # records are named tuples: collections is loaded before folichar is
    for path in Path(folichar.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.partition(".")[0]}
            else:
                continue
            assert not roots & {"dataclasses", "typing"}, (path.name, node.lineno)
