"""Count-stability check for the benchmark's deterministic figures.

Runs every workload twice in separate processes, on two different seeds,
and requires the per-task counts (sketches explored, programs completed,
AST size, optimized pipeline stages) and the run means ast_size.mean and
mongo_stages.mean to be identical between the two runs. The seed only
reorders requests and, on wide_examples, changes values that the search
does not depend on, so any difference is a nondeterminism in the program or
the benchmark. It also pins the counts of the two search-heavy shipped tasks
to the values the repository reports for them.

Run from the repository root; exits 1 on any mismatch:

    python3 perfbench/check_counts.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# task -> (sketches, completions, ast_size)
PINNED = {
    "reddit_posts": (11213, 34924, 22),
    "hard_unwind_group": (197, 296, 11),
}

DETERMINISTIC = ("ast_size.mean", "mongo_stages.mean")

SEEDS = (1, 2)


def run_once(workload: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    counts = {}
    for line in lines:
        if line.startswith("counts "):
            _, name, *fields = line.split()
            counts[name] = dict(f.split("=") for f in fields)
    means = {k: result["metrics"][k]["value"] for k in DETERMINISTIC}
    return result["correct"], counts, means


def main() -> int:
    problems = []
    seen = set()
    for workload in WORKLOADS:
        first, second = (run_once(workload, seed) for seed in SEEDS)
        for label, (correct, counts, means) in (("first", first), ("second", second)):
            if not correct:
                problems.append(f"{workload}: {label} run reported incorrect answers")
            for name, c in counts.items():
                if c["repeatable"] != "yes":
                    problems.append(f"{workload}: {name} counts changed within the {label} run")
        if first[1] != second[1]:
            problems.append(f"{workload}: per-task counts differ between runs: {first[1]} vs {second[1]}")
        if first[2] != second[2]:
            problems.append(f"{workload}: means differ between runs: {first[2]} vs {second[2]}")
        for name, c in sorted(first[1].items()):
            print(f"{workload} {name} sketches={c['sketches']} completions={c['completions']} "
                  f"ast_size={c['ast_size']} mongo_stages={c['mongo_stages']}")
            seen.add(name)
            want = PINNED.get(name)
            got = (int(c["sketches"]), int(c["completions"]), int(c["ast_size"]))
            if want is not None and got != want:
                problems.append(f"{name}: counts {got} differ from the pinned {want}")
        print(f"{workload} " + " ".join(f"{k}={v}" for k, v in first[2].items()))

    problems += [f"{name}: no answer to compare with the pinned counts" for name in PINNED if name not in seen]
    for p in problems:
        print(f"MISMATCH {p}")
    print("counts stable" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
