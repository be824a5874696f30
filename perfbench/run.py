"""folichar benchmark: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload groebner|pipelines|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a folichar checkout; it imports the package from
``src`` (the package need not be installed).  The load is a closed loop with
one client: queries run one after another, and the ``cli`` workload has at
most one child process alive.  Each run repeats whole passes over the
workload's fixed query set for about S seconds, and at least three.
Times are scaled to a reference host speed measured by a calibration loop
timed before every query (see CALIBRATION_REF_S).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which first times untraced passes for half of S, then traced
passes for the other half.  The lines before it say the same for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
WORKLOADS = ("groebner", "pipelines", "cli")
STEP_LIMIT = 10 ** 6
# standard systems whose step counts and basis sizes are printed
ANCHORS = ("cyclic-5", "katsura-4")
SETUP_REPEATS = 5
PROCESS_REPEATS = 5
TAIL_ABOVE = 10
# The host's speed drifts: the calibration loop below took 1.0 to 2.2 ms
# within two minutes on a 2-core VM.  Times are reported at the speed where
# it takes CALIBRATION_REF_S: raw seconds * CALIBRATION_REF_S / the median
# calibration time of the same pass.
CALIBRATION_REF_S = 1.5e-3
# a median over passes drops a pass slowed by other load only from three on
MIN_PASSES = 3


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def calibration_sample():
    """Seconds taken by a fixed pure-Python loop that imports no folichar."""
    t0 = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        seen[(i % 13, i % 5)] = acc
    return perf_counter() - t0


def speed_scale(samples):
    return CALIBRATION_REF_S / statistics.median(samples)


def tail_percentile(per_pass):
    """Highest whole percentile with at least TAIL_ABOVE of a pass's queries above it."""
    for p in range(99, 0, -1):
        if per_pass - math.ceil(p * per_pass / 100) >= TAIL_ABOVE:
            return p
    raise ValueError(f"{per_pass} queries per pass leave no tail percentile")


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


# ---------------------------------------------------------------------------
# bookkeeping shared by all workloads
# ---------------------------------------------------------------------------

class Ledger:
    """Latencies, pass times, failures and repeat checks of one run."""

    def __init__(self, labels):
        self.labels = labels
        self.pass_times = []
        self.latencies = []
        self.per_query = {}   # query index -> its latencies, one per pass
        self.raw_per_query = {}
        self.scale = 1.0      # speed scale of the pass being recorded
        self.scales = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}       # query index -> (passed its check, fingerprint, steps)
        self.unsteady = []
        self.facts = Counter()
        self.anchors = {}     # standard system -> (steps, basis elements)

    def record(self, i, latency, fingerprint, steps, check):
        """Count one answered query; ``check`` runs only on its first answer."""
        self._latency(i, latency)
        if i not in self.first:
            problems = check()
            for msg in problems:
                self.problems.append(f"{self.labels[i]}: {msg}")
            self.first[i] = (not problems, fingerprint, steps)
        ok, fp, first_steps = self.first[i]
        if fingerprint != fp:
            ok = False
            self.problems.append(f"{self.labels[i]}: answer changed between passes")
        if steps != first_steps:
            self.unsteady.append(f"{self.labels[i]}: steps {first_steps} then {steps}")
        if not ok:
            self.failed += 1

    def error(self, i, latency, message):
        self._latency(i, latency)
        self.failed += 1
        self.problems.append(f"{self.labels[i]}: {message}")

    def _latency(self, i, latency):
        self.attempted += 1
        self.latencies.append(latency * self.scale)
        self.per_query.setdefault(i, []).append(latency * self.scale)
        self.raw_per_query.setdefault(i, []).append(latency)

    def wall(self, raw=False):
        """Seconds to answer every query once: the sum of per-query medians.

        Each query's median over the passes drops the passes that a burst of
        load from other processes on the machine happened to slow down.
        """
        per_query = self.raw_per_query if raw else self.per_query
        return sum(statistics.median(v) for v in per_query.values())

    def end_to_end(self, setup_s, peak_rss_mb):
        n = len(self.labels)
        p = tail_percentile(n)
        metrics = {
            "wall_s": (self.wall(), "s"),
            "query_p50_ms": (statistics.median(self.latencies) * 1000, "ms"),
            "query_tail_ms": (nearest_rank(self.latencies, p) * 1000, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {
            "wall_s": f"sum of {n} per-query medians over {len(self.pass_times)} passes",
            "query_p50_ms": f"{len(self.latencies)} query latencies",
            "query_tail_ms": f"p{p}: {n} queries per pass, {len(self.latencies)} latencies",
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
        }
        return metrics, notes


def _until(seconds, one_pass, ledger, min_passes):
    """Run whole passes for about ``seconds``: at least ``min_passes``, and
    another only while the measured time would end nearer to ``seconds``."""
    measured = 0.0
    while True:
        gc.collect()
        t = one_pass(ledger)
        ledger.pass_times.append(t)
        measured += t
        if len(ledger.pass_times) >= min_passes and measured + t / 2 >= seconds:
            return


def _spawn(argv, out_path, err_path, env=None):
    """Run a child to completion; returns (seconds, exit code, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def measure_setup(workload, seed):
    """Median time from starting a process to its first query being ready,
    at the calibration speed.

    The child imports folichar and builds the inputs (for ``cli``: writes
    the session files), then prints ``ready``.  One untimed child first
    fills the bytecode cache, which users pay for only once.
    """
    argv = [sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times, samples = [], []
    for k in range(SETUP_REPEATS + 1):
        samples.append(calibration_sample())
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        if k:
            times.append(elapsed)
    return statistics.median(times) * speed_scale(samples)


# ---------------------------------------------------------------------------
# in-process workloads: groebner, pipelines
# ---------------------------------------------------------------------------

def build_inprocess(workload, seed):
    from perfbench import workloads

    if workload == "groebner":
        return workloads.groebner_queries(seed)
    return workloads.pipeline_queries(seed)


def run_inprocess(workload, seed, seconds, trace):
    from folichar.ideals import StepBudget

    queries = build_inprocess(workload, seed)
    ledger = Ledger([q.label for q in queries])
    totals = {}

    def one_pass(ledger, tracer=None):
        results = []
        samples = []
        t_start = perf_counter()
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.qid = i
            samples.append(calibration_sample())
            budget = StepBudget(STEP_LIMIT)
            t0 = perf_counter()
            try:
                answer, error = q.run(budget), None
            except Exception as exc:  # a raising query is a failed query
                answer, error = None, f"{type(exc).__name__}: {exc}"
            results.append((perf_counter() - t0, budget.used, answer, error))
        elapsed = perf_counter() - t_start
        ledger.scale = speed_scale(samples)
        ledger.scales.append(ledger.scale)
        steps = basis = 0
        for i, (lat, used, answer, error) in enumerate(results):
            q = queries[i]
            if error is not None:
                ledger.error(i, lat, error)
                continue
            ledger.record(i, lat, q.fingerprint(answer), used, lambda: q.check(answer))
            steps += used
            basis += q.basis_len(answer)
            if q.label in ANCHORS:
                ledger.anchors[q.label] = (used, q.basis_len(answer))
            ledger.facts.update(q.facts(answer))
        totals.update(steps=steps, basis_elements=basis)
        return elapsed

    if not trace:
        _until(seconds, one_pass, ledger, MIN_PASSES)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return ledger, None, totals, peak

    from perfbench import tracing

    _until(seconds / 2, one_pass, ledger, 1)
    traced = Ledger(ledger.labels)
    traced.first = ledger.first
    tracer = tracing.Tracer()
    tracing.install(tracer)
    _until(seconds / 2, lambda lg: one_pass(lg, tracer), traced, 1)
    _merge(ledger, traced)
    write_trace(workload, seed, [tracer.spans])
    names, edges = tracing.summarize(tracer.spans)
    layers = per_layer(names, edges, tracer.counts, len(traced.pass_times))
    layers["ideals.steps"] = (totals["steps"], "count")
    layers["ideals.basis_elements"] = (totals["basis_elements"], "count")
    layers["trace.overhead_s"] = (traced.wall() - ledger.wall(), "s")
    return ledger, layers, totals, None


def write_trace(workload, seed, processes):
    """Keep the spans of a traced run: one list of spans per process."""
    TRACES.mkdir(exist_ok=True)
    with open(TRACES / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"span_fields": ["name", "start", "end", "parent", "query"],
                   "processes": processes}, fh)


def _merge(ledger, other):
    ledger.attempted += other.attempted
    ledger.failed += other.failed
    ledger.problems += other.problems
    ledger.unsteady += other.unsteady
    ledger.facts.update(other.facts)


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------

IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FOLICHAR_BUDGET", None)
    return env


def build_cli(seed, work):
    from perfbench import cli_workload

    queries = cli_workload.cli_queries(seed)
    cli_workload.write_sessions(queries, work)
    return queries


def _import_seconds(stderr):
    """Cumulative import time of folichar and folichar.cli from -X importtime."""
    total = 0
    for line in stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m and m.group(2) in ("folichar", "folichar.cli"):
            total += int(m.group(1))
    return total / 1e6


def run_cli(seed, seconds, trace, work):
    queries = build_cli(seed, work)
    ledger = Ledger([q.label for q in queries])
    env = _child_env()
    out_path, err_path = os.path.join(work, "out"), os.path.join(work, "err")
    peak = [0.0]
    children = []     # spans and counts written by each traced child
    imports = []

    def one_pass(ledger, traced=False):
        results = []
        samples = []
        for q in queries:
            cmd, *rest = q.args
            tail = [cmd, q.path, *rest, "--json", "--budget", str(STEP_LIMIT)]
            if traced:
                trace_path = os.path.join(work, f"trace-{len(children)}.json")
                argv = [sys.executable, "-X", "importtime",
                        str(ROOT / "perfbench" / "cli_entry.py"), trace_path, *tail]
            else:
                argv = [sys.executable, "-m", "folichar.cli", *tail]
            samples.append(calibration_sample())
            lat, code, rss = _spawn(argv, out_path, err_path, env)
            with open(out_path, encoding="utf-8") as fh:
                stdout = fh.read()
            with open(err_path, encoding="utf-8") as fh:
                stderr = fh.read()
            if traced and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    children.append(json.load(fh))
                imports.append(_import_seconds(stderr))
            elif not traced:
                peak[0] = max(peak[0], rss)
            results.append((lat, code, stdout, stderr))
        ledger.scale = speed_scale(samples)
        ledger.scales.append(ledger.scale)
        for i, (lat, code, stdout, stderr) in enumerate(results):
            q = queries[i]
            if "Traceback" in stderr:
                ledger.error(i, lat, "printed a traceback")
                continue
            try:
                payload = json.loads(stdout)
            except ValueError:
                ledger.error(i, lat, f"exit {code}, no JSON report")
                continue
            fp = (code, payload.get("verdict"), json.dumps(payload.get("result"), sort_keys=True))

            def check(payload=payload, code=code, q=q):
                if payload.get("schema") != 1:
                    return [f"schema {payload.get('schema')!r}"]
                return q.check(payload, code, q.session)

            ledger.record(i, lat, fp, 0, check)
        return sum(r[0] for r in results)

    # fill the bytecode cache before timing: users compile only once
    _spawn([sys.executable, "-m", "folichar.cli", "ch", queries[0].path, "--json"],
           out_path, err_path, env)
    if not trace:
        _until(seconds, one_pass, ledger, MIN_PASSES)
        return ledger, None, {}, peak[0]

    from perfbench import tracing

    _until(seconds / 2, one_pass, ledger, 1)
    traced = Ledger(ledger.labels)
    traced.first = ledger.first
    _until(seconds / 2, lambda lg: one_pass(lg, True), traced, 1)
    _merge(ledger, traced)
    write_trace("cli", seed, [child["spans"] for child in children])
    names, edges, counts = {}, Counter(), Counter()
    for child in children:
        n, e = tracing.summarize(child["spans"])
        for name, row in n.items():
            acc = names.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        edges.update(e)
        counts.update(child["counts"])
    layers = per_layer(names, edges, counts, len(traced.pass_times))
    bare = []
    for _ in range(PROCESS_REPEATS):
        bare.append(_spawn([sys.executable, "-c", "pass"], out_path, err_path, env)[0])
    layers["cli.process_s"] = (statistics.median(bare), "s")
    layers["cli.import_s"] = (statistics.median(imports), "s")
    layers["trace.overhead_s"] = (traced.wall() - ledger.wall(), "s")
    return ledger, layers, {}, None


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIMES = [
    "ideals.buchberger", "ideals.reduce_poly", "polynomials.mul", "scalars.nf_arith",
    "ideals.radical_membership", "ideals.eliminate", "ideals.normal_form",
    "ideals.rational_points", "foliations.darboux_search",
    "foliations.classify_ch_subvariety", "foliations.ch_singular_locus",
    "foliations.singular_scheme", "singularities.jacobian_eigendata",
    "scalars.upoly_rational_roots", "cli.main", "parser.parse_input",
    "scalars.make_number_field", "reports.json_text", "forms.is_integrable",
    "weyl.principal_symbol",
]
CALLS = ["ideals.reduce_poly", "polynomials.mul", "scalars.nf_arith",
         "ideals.buchberger", "ideals.radical_membership"]


def per_layer(names, edges, counts, passes):
    """Per-pass layer metrics from span summaries and hook counts."""
    def calls(name):
        return names.get(name, [0])[0]

    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (names.get(name, [0, 0.0, 0.0])[2] / passes, "s")
    for name in CALLS:
        out[f"{name}.calls"] = (calls(name) / passes, "count")
    out["polynomials.order_key.calls"] = (counts["order_key"] / passes, "count")
    spairs = counts["spair_reductions"]
    out["ideals.reduce_poly.zero_ratio"] = (
        counts["spair_zero"] / spairs if spairs else 0.0, "ratio")
    basis_calls = counts["basis_calls"]
    out["ideals.basis.cache_hit_ratio"] = (
        counts["basis_hits"] / basis_calls if basis_calls else 0.0, "ratio")
    searches = calls("foliations.darboux_search")
    out["foliations.darboux_search.branches"] = (
        edges[("foliations.darboux_search", "ideals.rational_points")] / searches
        if searches else 0.0, "count")
    # measured outside the spans: each workload fills in those it runs
    for name in ("ideals.steps", "ideals.basis_elements", "cli.import_s", "cli.process_s"):
        out[name] = (0, "count" if name.startswith("ideals") else "s")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def _report(workload, seed, ledger, metrics, notes, layers, totals):
    print(f"workload {workload}, seed {seed}: closed loop, one client, "
          f"{len(ledger.labels)} queries per pass, {len(ledger.pass_times)} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"  host speed scale = {statistics.median(ledger.scales):.4g} "
          f"(median over passes); wall_s before scaling = {ledger.wall(raw=True):.6g} s")
    print(f"  fail_ratio = {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.6g}")
    if totals:
        print(f"  steps per pass = {totals['steps']}, basis elements per pass = "
              f"{totals['basis_elements']}")
    for label, (steps, size) in ledger.anchors.items():
        print(f"  {label}: {steps} steps, {size} basis elements")
    for fact, n in sorted(ledger.facts.items()):
        print(f"  {n} answers: {fact}")
    for msg in ledger.problems[:20]:
        print(f"  FAILED {msg}")
    for msg in ledger.unsteady[:20]:
        print(f"  UNSTEADY {msg}")
    if layers:
        print("per-layer metrics (per traced pass):")
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "folichar" / "__init__.py").is_file():
        print(f"perfbench: no folichar sources under {SRC}; run from a folichar checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        if args.setup_probe:
            if args.workload == "cli":
                build_cli(args.seed, work)
            else:
                build_inprocess(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        if args.workload == "cli":
            ledger, layers, totals, peak = run_cli(args.seed, args.seconds, args.trace, work)
        else:
            ledger, layers, totals, peak = run_inprocess(
                args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, notes = ledger.end_to_end(setup_s, peak)
    if args.trace:
        metrics = {k: v for k, v in metrics.items() if k not in ("setup_s", "peak_rss_mb")}
    _report(args.workload, args.seed, ledger, metrics, notes, layers, totals)
    chosen = layers if args.trace else metrics
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
