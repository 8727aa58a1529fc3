"""Run the reference searches and write their answers, or compare two runs.

    python3 scripts/same_answers.py OUT.json [--against OTHER.json]

The reference searches are 74: the 12 shipped tasks under the default
configuration, the 11 other than reddit_posts (whose search without type
abstraction is far slower) under `disable_size_abstraction` and under
`disable_type_abstraction`, and the generated depth-6 tasks of seeds 0-39
(`tests.generators.task_of`) with a 15 s timeout. An answer is the status,
the rendered query, every stat but `elapsedSeconds`, and the sha256 of the
search's `trace=` stream: each visited spine's stage kinds and its
deduction verdict, in order. So the same answers also mean the same spine
order and the same verdict on every spine. A timeout keeps its status
only, since how far a search gets before its deadline depends on the
machine.

A change that claims the same answers runs this on its parent and on
itself. With `--against`, the answers just written are compared with
OTHER.json: every search whose answer differs is listed, and the exit
status is 1 if any does.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]  # docsynth, and tests.generators

from docsynth.synth import SynthesisConfig, synthesize
from docsynth.taskio import load_task
from docsynth.text import render_query

from tests.generators import task_of

TASKS_DIR = os.path.join(ROOT, "tasks")
ABLATIONS = {
    "no_size": SynthesisConfig(disable_size_abstraction=True),
    "no_type": SynthesisConfig(disable_type_abstraction=True),
}
SEEDS = range(40)
SEED_CONFIG = SynthesisConfig(timeout_seconds=15)


def searches():
    """Every reference search as (name, task, config)."""
    names = sorted(f[:-len(".json")] for f in os.listdir(TASKS_DIR) if f.endswith(".json"))
    for name in names:
        yield f"{name}/default", load_task(os.path.join(TASKS_DIR, name + ".json")), SynthesisConfig()
    for setting, cfg in ABLATIONS.items():
        for name in names:
            if name != "reddit_posts":
                yield f"{name}/{setting}", load_task(os.path.join(TASKS_DIR, name + ".json")), cfg
    for seed in SEEDS:
        yield f"seed{seed}/depth6", task_of(seed, max_depth=6, for_synthesis=True)[0], SEED_CONFIG


def answer(task, cfg) -> dict:
    digest = hashlib.sha256()

    def trace(ops, feasible):
        digest.update(f"{' '.join(ops)}:{'feasible' if feasible else 'pruned'}\n".encode())

    result = synthesize(task, cfg, trace=trace)
    if result.status == "timeout":
        return {"status": "timeout"}
    return {
        "status": result.status,
        "query": render_query(result.query) if result.query is not None else None,
        "stats": {k: v for k, v in result.stats.items() if k != "elapsedSeconds"},
        "trace": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="where to write the answers (JSON)")
    ap.add_argument("--against", help="answers written earlier, to compare with")
    args = ap.parse_args(argv)
    answers = {name: answer(task, cfg) for name, task, cfg in searches()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
    print(f"{len(answers)} searches written to {args.out}")
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        other = json.load(fh)
    differ = sorted(n for n in answers.keys() | other.keys() if answers.get(n) != other.get(n))
    for name in differ:
        print(f"{name}: {other.get(name)} -> {answers.get(name)}")
    print(f"{len(differ)} of {len(answers.keys() | other.keys())} searches differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
