"""Statements of ``src/folichar`` that neither the tests nor the benchmark run.

    python3 tools/line_trace.py

Installs a ``sys.settrace`` line tracer (standard library only), runs the
tier-1 suite in this process with ``pytest.main``, then the ``groebner``,
``pipelines`` and ``cli`` query sets of ``tools/answer_digest.py`` for each
seed in ``SEEDS``.  A statement counts as run when one of the lines its own
code sits on (its header, for a compound statement) fired a line event;
statements that compile to no code (docstrings, ``global``) are never
reported.  A statement counts as run when any part of its line runs, so an
unreached arm of a one-line conditional expression (``return x if t else
y``) or of a short-circuit ``and``/``or`` is invisible to it.  Prints one
``path:line: source`` entry per statement that never ran, then their count.
Tracing starts before ``folichar`` is imported, so module-level statements
are seen too; code run in child processes is not.  The hypothesis tests
run with seed ``HYPOTHESIS_SEED``, so two runs print the same list.  Run it
from the root of a checkout; it takes a few times as long as the suite
alone.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "folichar"
SEEDS = (0, 1, 2)
HYPOTHESIS_SEED = 0


def _code_lines(code):
    """Lines that carry bytecode in ``code`` and the code objects nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _statements(tree):
    """(first line, last line of its own span) of every statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # a compound statement: its header
            yield node.lineno, body[0].lineno - 1
        else:
            yield node.lineno, node.end_lineno


def never_run(executed):
    """(path, line, source) of each statement with code and no line event."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        has_code = _code_lines(compile(source, str(path), "exec"))
        ran = executed.get(str(path), set())
        for first, last in sorted(set(_statements(ast.parse(source)))):
            span = set(range(first, max(first, last) + 1))
            if span & has_code and not span & ran:
                yield path.relative_to(ROOT), first, lines[first - 1].strip()


def main():
    executed = defaultdict(set)
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            executed[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.settrace(global_)
    threading.settrace(global_)
    try:
        import pytest
        code = pytest.main(["-q", "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}",
                            str(ROOT / "tests")])
        sys.path.insert(0, str(ROOT / "tools"))
        import answer_digest
        for seed in SEEDS:
            for _ in (*answer_digest.answer_lines(seed), *answer_digest.cli_lines(seed)):
                pass
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = list(never_run(executed))
    for path, line, text in missing:
        print(f"{path}:{line}: {text}")
    print(f"{len(missing)} statements never ran (suite exit code {int(code)})")


if __name__ == "__main__":
    main()
