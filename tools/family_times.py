"""Time each query family of a perfbench in-process workload, in one or two checkouts.

    python3 tools/family_times.py [--workload pipelines|groebner] [--seeds 0] \
        [--rounds 7] [OTHER_CHECKOUT]

A family is the part of a query label before its first ``/`` (``eigen``,
``nonres``, ``classify``, ...); a label without ``/`` is its own family.
Each round starts one child process per checkout with ``python3 -B`` and
alternates which checkout goes first.  The child imports ``folichar`` from
its checkout's ``src`` and ``perfbench`` from its root, builds the
workload's queries for every seed, and runs each query once with a fresh
``StepBudget(10**6)``.  It reports, per family, the query count, the steps
(``budget.used``), a sha256 of the fingerprints (or of the error a query
raised) and the milliseconds spent in the queries.

For each family the table gives the query count, the steps, a short sha256
and the best-of-rounds milliseconds of the checkout this script lives in
(``this``); with OTHER_CHECKOUT, also the best-of-rounds milliseconds there
and the ratio this/other, and ``DIFFERS`` with the other side's steps and
sha256 when either differs.  Standard library only; it only reads the
checkouts and writes nothing into them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STEP_LIMIT = 10 ** 6


def child(checkout, workload, seeds):
    """Run the workload once in this process and print its families as JSON."""
    sys.path[:0] = [str(checkout), str(checkout / "src")]
    from folichar.ideals import StepBudget
    from perfbench import workloads

    build = workloads.groebner_queries if workload == "groebner" else workloads.pipeline_queries
    families = {}
    for seed in seeds:
        for q in build(seed):
            budget = StepBudget(STEP_LIMIT)
            t0 = perf_counter()
            try:
                answer, error = q.run(budget), None
            except Exception as exc:  # a raising query is part of its answer
                answer, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            text = error if error is not None else str(q.fingerprint(answer))
            fam = families.setdefault(q.label.split("/", 1)[0],
                                      {"queries": 0, "steps": 0, "ms": 0.0,
                                       "sha": hashlib.sha256()})
            fam["queries"] += 1
            fam["steps"] += budget.used
            fam["ms"] += elapsed * 1000
            fam["sha"].update(f"{q.label} {text}\n".encode())
    for fam in families.values():
        fam["sha"] = fam["sha"].hexdigest()[:12]
    print(json.dumps(families))


def run_child(checkout, args):
    argv = [sys.executable, "-B", str(Path(__file__).resolve()), "--child", str(checkout),
            "--workload", args.workload, "--seeds", args.seeds]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: child failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("pipelines", "groebner"), default="pipelines")
    ap.add_argument("--seeds", default="0", help="comma-separated seeds (default 0)")
    ap.add_argument("--rounds", type=int, default=7, help="child processes per checkout")
    ap.add_argument("other", nargs="?", help="a second checkout to compare with")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.child:
        return child(Path(args.child), args.workload, seeds)
    sides = [ROOT] + ([Path(args.other).resolve()] if args.other else [])
    facts = [None] * len(sides)
    best = [{} for _ in sides]
    for r in range(args.rounds):
        for k in (range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))):
            families = run_child(sides[k], args)
            facts[k] = {name: (f["queries"], f["steps"], f["sha"]) for name, f in families.items()}
            for name, f in families.items():
                best[k][name] = min(best[k].get(name, f["ms"]), f["ms"])

    names = list(dict.fromkeys([*facts[0], *(facts[1] if args.other else ())]))
    w = max(map(len, names + ["family"]))
    header = f"{'family':<{w}} {'queries':>7} {'steps':>9} {'sha256':<12} {'this ms':>9}"
    print(header + (f" {'other ms':>9} {'ratio':>6}" if args.other else ""))
    for name in names:
        count, steps, sha = facts[0].get(name, (0, 0, "-"))
        line = f"{name:<{w}} {count:>7} {steps:>9} {sha:<12} {best[0].get(name, 0):>9.2f}"
        if args.other:
            ms = best[1].get(name, 0)
            line += f" {ms:>9.2f} {best[0].get(name, 0) / ms if ms else 0:>6.2f}"
            theirs = facts[1].get(name, (0, 0, "-"))
            if theirs[1:] != (steps, sha):
                line += f"  DIFFERS: other steps {theirs[1]}, sha256 {theirs[2]}"
        print(line)
    totals = [sum(side.values()) for side in best]
    print(f"{'total':<{w}} {sum(f[0] for f in facts[0].values()):>7} "
          f"{sum(f[1] for f in facts[0].values()):>9} {'':<12} {totals[0]:>9.2f}"
          + (f" {totals[1]:>9.2f} {totals[0] / totals[1]:>6.2f}" if args.other else ""))


if __name__ == "__main__":
    main()
