"""Request streams of the three benchmark workloads.

Every request is the text of one task file, exactly as a client would send
it. A workload is a fixed list of distinct requests; the benchmark replays
it in rounds, each round a seeded shuffle of the whole list, so every run
sees each request equally often and the per-request means of deterministic
counts do not depend on how many rounds fit in the measured time.

  forum_search   tasks/reddit_posts.json: the deepest search the repository
                 ships (11,213 spines, 34,924 completions on three posts).
  wide_examples  generated tasks on four shipped query shapes, with example
                 databases scaled to tens to thousands of documents.
  suite          the other eleven shipped tasks: per-request overheads
                 (parsing, typing, translation, rendering) dominate.

The wide_examples generator keeps the structure of each task fixed and lets
the seed choose values, labels and document order. Structure means how many
documents there are, which comparisons against the task's constants hold,
and which documents share a group key. The search explores the same
candidates on every seed, so the cost of a request does not depend on the
seed beyond what its values change.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

WORKLOADS = ("forum_search", "wide_examples", "suite")

FORUM_TASK = "reddit_posts"

SUITE_TASKS = (
    "addfields_arith",
    "group_two_keys",
    "hard_unwind_group",
    "identity",
    "lookup_join",
    "match_exists",
    "match_simple",
    "project_nested",
    "sizeeq_tags",
    "unwind_basic",
    "unwind_group_count",
)


@dataclass(frozen=True)
class Request:
    name: str
    text: str   # task JSON, the request body
    task: dict  # the same task decoded once, for the answer checker


def build(workload: str, seed: int, root: str) -> list:
    """The distinct requests of one workload; `root` is the repository root."""
    if workload == "forum_search":
        return [_shipped(root, FORUM_TASK)]
    if workload == "suite":
        return [_shipped(root, name) for name in SUITE_TASKS]
    if workload == "wide_examples":
        return _generated(seed, root)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def rounds(requests: list, seed: int):
    """Endless seeded rounds, each a permutation of all requests."""
    rng = random.Random(seed)
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield order


def _generated(seed: int, root: str) -> list:
    """wide_examples, made in a child process so the generator's memory is not the server's."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), str(seed)], cwd=root,
                          stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return [Request(name, text, json.loads(text)) for name, text in json.loads(proc.stdout)]


def _shipped(root: str, name: str) -> Request:
    with open(os.path.join(root, "tasks", name + ".json"), encoding="utf-8") as fh:
        text = fh.read()
    return Request(name, text, json.loads(text))


# ---------------------------------------------------------------------------
# wide_examples
# ---------------------------------------------------------------------------

# (shape, size arguments of each example). The two unwind_match_group tasks
# take about the same time and are the slowest in a round, so the tail falls
# inside their block rather than on its edge. The other three take about
# the same time as each other, so the median falls among them and mixes
# parsing and typing (group_two_keys), interpretation (lookup_join) and
# expression enumeration (addfields_arith) rather than hanging on one task.
WIDE_TASKS = (
    ("unwind_match_group", ((16, 8),)),
    ("unwind_match_group", ((10, 8), (6, 8))),
    ("group_two_keys", ((12, 10, 45),)),
    ("lookup_join", ((1000, 120), (120, 12))),
    ("addfields_arith", ((3000,),)),
)


def wide_examples(seed: int) -> list:
    """Generate the wide_examples tasks for one seed.

    Each task's expected outputs come from evaluating its intended query with
    the interpreter, cross-checked against the independent replay oracle, as
    scripts/freeze_tasks.py does for the shipped tasks.
    """
    from docsynth.interp import eval_query
    from docsynth.values import collection_eq, value_to_json
    from tests import oracles

    rng = random.Random(seed)
    out = []
    for shape, sizes in WIDE_TASKS:
        make = _SHAPES[shape]
        examples = []
        for i, size in enumerate(sizes):
            db, query, stages, collection, constants = make(rng, *size, tag=f"e{i}")
            output = eval_query(db, query)
            check = oracles.replay(db, collection, stages)
            if not collection_eq(output, check):
                raise AssertionError(f"{shape}{sizes}: interpreter and oracle disagree")
            examples.append({"input": db, "output": [value_to_json(d) for d in output]})
        task = {"collection": collection}
        if constants:
            task["constants"] = constants
        task["examples"] = examples
        label = "x".join(str(n) for n in sizes[0])
        if len(sizes) > 1:
            label += f"+{len(sizes) - 1}"
        out.append(Request(f"{shape}.{label}", json.dumps(task), task))
    return out


def _unwind_match_group(rng, hosts, samples, tag):
    """hard_unwind_group scaled up: per host, count the samples over 100 ms.

    Host i has 1 + i % samples slow samples and a rank that is a fixed
    function of i. Slow samples are distinct values over 100 and fast ones
    distinct values from 10 to 99, so every comparison with the task's
    constants and every grouping splits the documents the same way on every
    seed. Hosts stay in index order because the completer reads candidate
    constants from the output in order, and the output order follows the
    input order.
    """
    from docsynth.lang import CollectionRef, Cmp, Count, Group, Match, Unwind
    from tests import oracles

    n_slow = sum(1 + i % samples for i in range(hosts))
    slow_ms = iter(rng.sample(range(101, 1000), n_slow))
    fast_ms = iter(rng.sample(range(10, 100), hosts * samples - n_slow))
    docs = []
    for i in range(hosts):
        slow = 1 + i % samples
        ms = [next(slow_ms) for _ in range(slow)] + [next(fast_ms) for _ in range(samples - slow)]
        rng.shuffle(ms)
        docs.append({
            "host": f"{tag}-h{i}-{rng.randrange(1 << 24):06x}",
            "rank": 1 + (3 * i) % 7,
            "samples": [{"ms": m} for m in ms],
        })
    query = Group(
        Match(Unwind(CollectionRef("metrics"), ("samples",)), Cmp(("samples", "ms"), ">", 100)),
        (("host",),), ("slow",), (Count(),),
    )
    stages = [
        ("unwind", "samples"),
        ("match", lambda d: d["samples"]["ms"] > 100),
        ("group", ["host"], [("slow", oracles.agg_count)]),
    ]
    return {"metrics": docs}, query, stages, "metrics", [100]


def _group_two_keys(rng, classes, names, per_pair, tag):
    """group_two_keys scaled up: total score per (class, name) pair."""
    from docsynth.lang import CollectionRef, Group, Sum
    from tests import oracles

    docs = [
        {"name": f"n{j}", "class": f"{tag}-c{c}", "score": rng.randint(1, 99)}
        for c in range(classes) for j in range(names) for _ in range(per_pair)
    ]
    rng.shuffle(docs)
    query = Group(CollectionRef("scores"), (("class",), ("name",)), ("total",), (Sum(("score",)),))
    stages = [("group", ["class", "name"], [("total", oracles.agg_sum("score"))])]
    return {"scores": docs}, query, stages, "scores", []


def _lookup_join(rng, orders, customers, tag):
    """lookup_join scaled up: attach each order's customer document.

    Order ids and customer ids come from disjoint ranges, so only the join on
    the customer id matches anything.
    """
    from docsynth.lang import CollectionRef, Lookup

    cust = [{"cust": 1000 + j, "name": f"{tag}-{rng.randrange(1 << 24):06x}"} for j in range(customers)]
    rng.shuffle(cust)
    docs = [{"oid": i + 1, "cust": 1000 + rng.randrange(customers)} for i in range(orders)]
    rng.shuffle(docs)
    query = Lookup(CollectionRef("orders"), ("cust",), ("cust",), "customers", "customer")
    stages = [("lookup", "cust", "cust", "customers", "customer")]
    return {"orders": docs, "customers": cust}, query, stages, "orders", []


def _addfields_arith(rng, items, tag):
    """addfields_arith scaled up: total = a + b over positive integers."""
    from docsynth.lang import AddFields, Arith, CollectionRef

    docs = [{"a": rng.randint(1, 999), "b": rng.randint(1, 999)} for _ in range(items)]
    query = AddFields(CollectionRef("items"), (("total",),), (Arith(("a",), "+", ("b",)),))
    stages = [("addfields", [("total", lambda d: d["a"] + d["b"])])]
    return {"items": docs}, query, stages, "items", []


_SHAPES = {
    "unwind_match_group": _unwind_match_group,
    "group_two_keys": _group_two_keys,
    "lookup_join": _lookup_join,
    "addfields_arith": _addfields_arith,
}


if __name__ == "__main__":
    # python3 perfbench/workloads.py SEED, from the repository root, prints the
    # wide_examples requests of that seed as a JSON list of [name, text].
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath(".")]
    print(json.dumps([[r.name, r.text] for r in wide_examples(int(sys.argv[1]))]))
