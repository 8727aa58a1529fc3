"""docsynth benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload forum_search --seed 1 --seconds 35 --trace 0

A request takes one task's JSON text to a verified query plus its MongoDB
pipeline, through the library API only: task_from_json, synthesize,
eval_query on every example, translate, optimize and render_shell, then
render_query and parse_query, which must give the query back. The client
sends the next request when the previous one has returned. Requests come in
rounds, each a seeded shuffle of the workload's distinct requests (see
workloads.py), and the loop stops at the end of the first round that ends
after --seconds.

Every answer is then checked by checker.py against the task's expected
outputs with the independent replay oracle in tests/oracles.py. A timeout,
an exhausted search, an exception, a failed verification or a rejected
answer counts as a failed request.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run that
alternates untraced and traced rounds, reports per-layer self times and
counts per traced request from spans recorded by tracing.py, and writes the
spans to perfbench/out/<workload>.spans.tsv.gz. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time
from types import SimpleNamespace

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is repeated and its median reported, so one slow start on a busy
# host does not decide the figure.
SETUP_REPEATS = 9

# The tail is the highest percentile with at least this many samples above it.
TAIL_SAMPLES = 10

MODULES = ("interp", "mongo", "synth", "taskio", "text", "values")

# Run in a fresh interpreter: import docsynth and build the default search
# config, and print the seconds that took.
SETUP_CODE = f"""
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import docsynth
{"; ".join("import docsynth." + m for m in MODULES)}
docsynth.synth.SynthesisConfig()
print(perf_counter() - t0)
"""


def setup_seconds() -> float:
    """Median seconds a new server process takes to import docsynth and prepare.

    Each set-up runs in its own interpreter, so the standard library modules
    docsynth needs are loaded as well, and nothing of the benchmark's own
    client code is timed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, os.path.join(ROOT, "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def load_modules():
    return SimpleNamespace(**{name: importlib.import_module("docsynth." + name) for name in MODULES})


def serve(mods, text: str, cfg) -> SimpleNamespace:
    """One request: task JSON text in, verified query and Mongo pipeline out."""
    task = mods.taskio.task_from_json(json.loads(text))
    result = mods.synth.synthesize(task, cfg)
    out = SimpleNamespace(status=result.status, stats=result.stats, query=result.query,
                          verified=False, stages_out=0, shell="")
    if result.status != "success":
        return out
    q = result.query
    out.verified = all(
        mods.values.collection_eq(mods.interp.eval_query(ex.input, q), ex.output)
        for ex in task.examples
    )
    collection, pipeline = mods.mongo.translate(q)
    optimized = mods.mongo.optimize(pipeline)
    out.shell = mods.mongo.render_shell(collection, optimized)
    out.stages_out = len(optimized)
    out.verified = out.verified and mods.text.parse_query(mods.text.render_query(q)) == q
    return out


class Loop:
    """Closed-loop client state for one run.

    Answers are checked after the measured loop, so the checker's replay
    costs neither wall time nor CPU time of the client.
    """

    def __init__(self, mods, requests, seed, tracer=None):
        self.mods = mods
        self.rounds = workloads.rounds(requests, seed)
        self.cfg = mods.synth.SynthesisConfig()
        self.tracer = tracer
        self.answers = []     # (request, outcome), outcome None when serve raised
        self.failed = 0
        self.ast_sizes = []
        self.stages_out = []
        self.counts = {}      # request name -> counts of its first accepted answer
        self.unstable = set()  # request names whose counts changed between repeats

    @property
    def attempted(self) -> int:
        return len(self.answers)

    def run_round(self, traced: bool) -> list:
        """Serve one round; returns (request name, wall seconds) per request."""
        walls = []
        tracer = self.tracer if traced else None
        for req in next(self.rounds):
            out = None
            t0 = perf_counter()
            try:
                if tracer is not None:
                    tracer.current_request = len(self.answers)
                    sid = tracer.open("request")
                    try:
                        out = serve(self.mods, req.text, self.cfg)
                    finally:
                        tracer.close(sid)
                else:
                    out = serve(self.mods, req.text, self.cfg)
            except Exception:  # a crashing request is a failed request, the run goes on
                print(f"request {req.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            walls.append((req.name, perf_counter() - t0))
            self.answers.append((req, out))
            if tracer is not None and out is not None:
                tracer.counts["synth.sketches"] += out.stats["sketchesExplored"]
                tracer.counts["synth.completions"] += out.stats["programsCompleted"]
        return walls

    def check(self):
        """Check every answer with the independent checker; identical answers once."""
        import checker

        verdicts = {}
        for req, out in self.answers:
            ok = out is not None and out.status == "success" and out.verified
            if ok:
                key = (req.name, out.query)
                if key not in verdicts:
                    verdicts[key] = checker.accepts(req.task, out.query)
                ok = verdicts[key]
            if not ok:
                if self.failed == 0:
                    status = "exception" if out is None else f"{out.status}, verified={out.verified}"
                    print(f"request {req.name} failed ({status})", file=sys.stderr)
                self.failed += 1
                continue
            counts = (out.stats["sketchesExplored"], out.stats["programsCompleted"],
                      out.stats["astSize"], out.stages_out)
            if self.counts.setdefault(req.name, counts) != counts:
                self.unstable.add(req.name)
            self.ast_sizes.append(out.stats["astSize"])
            self.stages_out.append(out.stages_out)


def tail(samples: list):
    """(value, percentile) of the highest percentile with TAIL_SAMPLES samples above it.

    With too few samples for that, the maximum (percentile 100)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_SAMPLES:
        return xs[-1], 100.0
    k = n - TAIL_SAMPLES  # rank of the value with exactly TAIL_SAMPLES above it
    return xs[k - 1], 100.0 * k / n


def measure(loop: Loop, seconds: float) -> tuple:
    walls = []
    c0, t0 = process_time(), perf_counter()
    while True:
        walls.extend(loop.run_round(traced=False))
        if perf_counter() - t0 >= seconds:
            break
    elapsed, cpu = perf_counter() - t0, process_time() - c0
    return walls, elapsed, cpu


def end_to_end(loop: Loop, timed, elapsed, cpu, setup_s, peak_rss_mb) -> dict:
    by_name = {}
    for name, seconds in timed:
        by_name.setdefault(name, []).append(seconds)
    for name, xs in sorted(by_name.items()):
        print(f"request {name} n={len(xs)} p50={statistics.median(xs):.6f}s")
    walls = [seconds for _, seconds in timed]
    n = len(walls)
    tail_s, tail_pct = tail(walls)
    print(f"task_s.tail is p{tail_pct:.2f} of {n} samples")
    return {
        "task_s.p50": (statistics.median(walls), "s"),
        "task_s.tail": (tail_s, "s"),
        "tasks_per_s": (n / elapsed, "1/s"),
        "cpu_s_per_task": (cpu / n, "s"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ast_size.mean": (_mean(loop.ast_sizes), "nodes"),
        "mongo_stages.mean": (_mean(loop.stages_out), "stages"),
    }


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def measure_traced(loop: Loop, seconds: float, workload: str) -> dict:
    """Alternate untraced and traced rounds; per-layer figures per traced request."""
    tracer = loop.tracer
    untraced, traced = [], []
    t0 = perf_counter()
    i = 0
    while True:
        if i % 2:
            tracer.attach()
            try:
                traced.extend(loop.run_round(traced=True))
            finally:
                tracer.detach()
        else:
            untraced.extend(loop.run_round(traced=False))
        i += 1
        if perf_counter() - t0 >= seconds and traced:
            break

    n = len(traced)
    self_s = tracer.self_times()
    counts = tracer.counts
    path = os.path.join(HERE, "out", f"{workload}.spans.tsv.gz")
    tracer.write(path)
    print(f"wrote {len(tracer.start)} spans to {os.path.relpath(path, ROOT)}")

    def per(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    layers = ("taskio", "types.compute_schema", "synth", "deduce", "absint.abs_eval",
              "abstraction.concretizes", "complete", "predicates", "lenient_type",
              "interp.apply_stage", "interp.eval_query", "mongo", "text", "request")
    m = {f"{name}.self_s": (per(self_s.get(name, 0.0)), "s") for name in layers}
    m.update({
        "synth.sketches": (per(counts["synth.sketches"]), "count"),
        "synth.completions": (per(counts["synth.completions"]), "count"),
        "synth.feasible": (per(counts["deduce.calls"] - counts["deduce.pruned"]), "count"),
        "deduce.calls": (per(counts["deduce.calls"]), "count"),
        "deduce.prune_ratio": (ratio(counts["deduce.pruned"], counts["deduce.calls"]), "ratio"),
        "absint.abs_eval.calls": (per(counts["absint.abs_eval.calls"]), "count"),
        "abstraction.concretizes.calls": (per(counts["abstraction.concretizes.calls"]), "count"),
        "complete.calls": (per(counts["complete.calls"]), "count"),
        "complete.useful_ratio": (ratio(counts["complete.solved"], counts["complete.calls"]), "ratio"),
        "predicates.yielded": (per(counts["predicates.yielded"]), "count"),
        "lenient_type.calls": (per(counts["lenient_type.calls"]), "count"),
        "interp.apply_stage.calls": (per(counts["interp.apply_stage.calls"]), "count"),
        "interp.apply_stage.docs_in": (per(counts["interp.apply_stage.docs_in"]), "docs"),
        "mongo.stages_in": (per(counts["mongo.stages_in"]), "stages"),
        "mongo.stages_out": (per(counts["mongo.stages_out"]), "stages"),
        "trace.spans": (per(len(tracer.start)), "count"),
    })
    wall = statistics.fmean(s for _, s in traced)
    base = statistics.fmean(s for _, s in untraced)
    self_sum = per(sum(self_s.values()))
    m.update({
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.untraced_wall_s": (base, "s"),
        "trace.overhead_s": (wall - base, "s"),
    })
    gap = wall - self_sum
    print(f"self times sum to {self_sum:.6f} s per traced request against a traced wall of "
          f"{wall:.6f} s: gap {gap:.6f} s, tracing overhead {wall - base:.6f} s "
          f"over {len(untraced)} untraced / {n} traced requests")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    requests = workloads.build(args.workload, args.seed, ROOT)
    mods = load_modules()
    setup_s = setup_seconds()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, mods)
    loop = Loop(mods, requests, args.seed, tracer)

    if args.trace:
        metrics = measure_traced(loop, args.seconds, args.workload)
        loop.check()
    else:
        walls, elapsed, cpu = measure(loop, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.check()
        metrics = end_to_end(loop, walls, elapsed, cpu, setup_s, peak_rss_mb)

    for name, (sketches, completions, ast, stages) in sorted(loop.counts.items()):
        stable = "no" if name in loop.unstable else "yes"
        print(f"counts {name} sketches={sketches} completions={completions} "
              f"ast_size={ast} mongo_stages={stages} repeatable={stable}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
