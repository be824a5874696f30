"""Digest of every benchmark answer, for comparing two checkouts.

    python3 tools/answer_digest.py --seeds 0,1,2

Builds the ``groebner``, ``pipelines`` and ``cli`` query sets of
``perfbench`` for each seed.  Every in-process query runs once with a fresh
``StepBudget(10**6)``; every ``cli`` query runs once through
``folichar.cli.main`` in this process, on its session written to a
temporary directory, with ``--json --budget 10**6`` and its output
captured.  Prints one line per query (workload, seed, label, sha256 of its
fingerprint or of the error it raised, ``budget.used``), then the sha256 of
all those lines, then the sha256 of the same lines without ``budget.used``.
A ``cli`` fingerprint is the exit code and the JSON envelope without
``timings``; ``main`` builds its own budget, so the steps column of a
``cli`` line reads ``-``.  Two checkouts that give the same answers and
charge the same steps print the same two digests, so a refactor is checked
by one diff of the outputs; a change that moves steps but no answer keeps
the last digest.  Run it from the root of a checkout;
it imports ``folichar`` from ``src`` and only reads ``perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from folichar import cli  # noqa: E402
from folichar.ideals import StepBudget  # noqa: E402
from perfbench import cli_workload, workloads  # noqa: E402

STEP_LIMIT = 10 ** 6
BUILDERS = (("groebner", workloads.groebner_queries),
            ("pipelines", workloads.pipeline_queries))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def answer_lines(seed):
    """One line per query of both in-process workloads at ``seed``."""
    for name, build in BUILDERS:
        for q in build(seed):
            budget = StepBudget(STEP_LIMIT)
            try:
                text = str(q.fingerprint(q.run(budget)))
            except Exception as exc:  # a raising query is part of its answer
                text = f"{type(exc).__name__}: {exc}"
            yield f"{name} {seed} {q.label} {_sha(text)[:16]} {budget.used}"


def cli_lines(seed):
    """One line per ``cli`` query at ``seed``, each run through ``cli.main``."""
    queries = cli_workload.cli_queries(seed)
    with tempfile.TemporaryDirectory() as tmp:
        cli_workload.write_sessions(queries, tmp)
        for q in queries:
            cmd, *rest = q.args
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main([cmd, q.path, *rest, "--json", "--budget", str(STEP_LIMIT)])
                except SystemExit as exc:
                    code = exc.code
            try:
                payload = json.loads(out.getvalue())
                payload.pop("timings", None)
                text = f"{code} {json.dumps(payload)}"
            except ValueError:  # argparse or another non-JSON exit
                text = f"{code} {out.getvalue()}"
            yield f"cli {seed} {q.label} {_sha(text)[:16]} -"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0", help="comma-separated seeds (default 0)")
    args = ap.parse_args(argv)
    lines = [line for seed in map(int, args.seeds.split(","))
             for line in (*answer_lines(seed), *cli_lines(seed))]
    text = "\n".join(lines)
    print(text)
    print(f"{len(lines)} queries, sha256 {_sha(text)}")
    answers = "\n".join(line.rsplit(" ", 1)[0] for line in lines)
    print(f"{len(lines)} answers without steps, sha256 {_sha(answers)}")


if __name__ == "__main__":
    main()
