"""Regenerate the bundled task files under tasks/.

Each task's expected output is computed by evaluating the intended query
with the interpreter, then cross-checked against the independent
stage-by-stage replay in tests/oracles.py before being written out.
Run from the repository root:

    python3 scripts/freeze_tasks.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]  # docsynth, and tests.oracles

from docsynth.interp import eval_query
from docsynth.lang import (
    AddFields, Arith, Cmp, CollectionRef, Count, Exists, Group, Lookup,
    Match, PathExpr, Project, SizeEq, Sum, Unwind,
)
from docsynth.text import render_query
from docsynth.types import compute_schema, schema_to_json
from docsynth.values import collection_eq, database_to_json, value_to_json

from tests import oracles

with open(os.path.join(ROOT, "tests", "golden", "replay_stages.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)
FORUM_DB = GOLDEN["input"]


def forum_query():
    q = CollectionRef("posts")
    q = Unwind(q, ("replies",))
    q = Match(q, Cmp(("replies", "depth"), ">", 0))
    q = Group(q, (("_id",), ("title",)), ("reply_count",), (Count(),))
    q = AddFields(q, (("title",),), (PathExpr(("_id", "title")),))
    q = Match(q, Cmp(("reply_count",), ">", 1))
    return Project(q, (("reply_count",), ("title",)))


def forum_oracle():
    return [
        ("unwind", "replies"),
        ("match", lambda d: d["replies"]["depth"] > 0),
        ("group", ["_id", "title"], [("reply_count", oracles.agg_count)]),
        ("addfields", [("title", lambda d: d["_id"]["title"])]),
        ("match", lambda d: d["reply_count"] > 1),
        ("project", ["reply_count", "title"]),
    ]


TASKS = [
    {
        "name": "reddit_posts",
        "db": FORUM_DB,
        "collection": "posts",
        "constants": [0, 1],
        "query": forum_query(),
        "oracle": forum_oracle(),
    },
    {
        "name": "identity",
        "db": {"items": [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]},
        "collection": "items",
        "query": CollectionRef("items"),
        "oracle": [],
    },
    {
        "name": "match_simple",
        "db": {"items": [{"a": 1}, {"a": 6}, {"a": 8}, {"a": 4}]},
        "collection": "items",
        "constants": [5],
        "query": Match(CollectionRef("items"), Cmp(("a",), ">", 5)),
        "oracle": [("match", lambda d: d["a"] > 5)],
    },
    {
        "name": "project_nested",
        "db": {
            "people": [
                {"pid": 1, "info": {"name": "ada", "score": 9}, "tag": "x"},
                {"pid": 2, "info": {"name": "bob", "score": 4}, "tag": "y"},
            ]
        },
        "collection": "people",
        "query": Project(CollectionRef("people"), ((("info", "name")),)),
        "oracle": [("project", ["info.name"])],
    },
    {
        "name": "unwind_basic",
        "db": {
            "posts": [
                {"name": "p1", "tags": ["red", "blue"]},
                {"name": "p2", "tags": ["green", "red"]},
            ]
        },
        "collection": "posts",
        "query": Unwind(CollectionRef("posts"), ("tags",)),
        "oracle": [("unwind", "tags")],
    },
    {
        "name": "group_two_keys",
        "db": {
            "scores": [
                {"name": "A", "class": "c1", "score": 3},
                {"name": "A", "class": "c1", "score": 5},
                {"name": "B", "class": "c1", "score": 7},
                {"name": "A", "class": "c2", "score": 2},
            ]
        },
        "collection": "scores",
        "query": Group(
            CollectionRef("scores"),
            (("class",), ("name",)),
            ("total",),
            (Sum(("score",)),),
        ),
        "oracle": [
            ("group", ["class", "name"], [("total", oracles.agg_sum("score"))])
        ],
    },
    {
        "name": "lookup_join",
        "db": {
            "orders": [
                {"oid": 1, "cust": 10},
                {"oid": 2, "cust": 20},
                {"oid": 3, "cust": 10},
            ],
            "customers": [
                {"cust": 10, "name": "ada"},
                {"cust": 20, "name": "bob"},
            ],
        },
        "collection": "orders",
        "query": Lookup(CollectionRef("orders"), ("cust",), ("cust",), "customers", "customer"),
        "oracle": [("lookup", "cust", "cust", "customers", "customer")],
    },
    {
        "name": "addfields_arith",
        "db": {"items": [{"a": 1, "b": 2}, {"a": 4, "b": 1}, {"a": 3, "b": 3}]},
        "collection": "items",
        "query": AddFields(CollectionRef("items"), (("total",),), (Arith(("a",), "+", ("b",)),)),
        "oracle": [("addfields", [("total", lambda d: d["a"] + d["b"])])],
    },
    {
        "name": "match_exists",
        "db": {
            "contacts": [
                {"name": "ada", "email": "ada@example.com"},
                {"name": "bob"},
                {"name": "eve", "email": "eve@example.com"},
            ]
        },
        "collection": "contacts",
        "explicit_schema": True,
        "query": Match(CollectionRef("contacts"), Exists(("email",))),
        "oracle": [("match", lambda d: "email" in d)],
    },
    {
        "name": "sizeeq_tags",
        "db": {
            "boxes": [
                {"name": "b1", "tags": ["x", "y"]},
                {"name": "b2", "tags": ["x"]},
                {"name": "b3", "tags": ["y", "z"]},
                {"name": "b4", "tags": []},
            ]
        },
        "collection": "boxes",
        "constants": [2],
        "query": Match(CollectionRef("boxes"), SizeEq(("tags",), 2)),
        "oracle": [("match", lambda d: len(d["tags"]) == 2)],
    },
    {
        "name": "unwind_group_count",
        "db": {
            "feed": [
                {"tags": ["a", "b", "a"]},
                {"tags": ["b", "a"]},
            ]
        },
        "collection": "feed",
        "query": Group(
            Unwind(CollectionRef("feed"), ("tags",)),
            (("tags",),),
            ("n",),
            (Count(),),
        ),
        "oracle": [
            ("unwind", "tags"),
            ("group", ["tags"], [("n", oracles.agg_count)]),
        ],
    },
    {
        "name": "hard_unwind_group",
        "db": {
            "metrics": [
                {"host": "h1", "rank": 4, "samples": [{"ms": 40}, {"ms": 180}, {"ms": 220}, {"ms": 90}]},
                {"host": "h2", "rank": 2, "samples": [{"ms": 300}, {"ms": 20}, {"ms": 150}, {"ms": 110}]},
                {"host": "h3", "rank": 7, "samples": [{"ms": 101}, {"ms": 99}, {"ms": 100}, {"ms": 250}]},
                {"host": "h4", "rank": 1, "samples": [{"ms": 500}, {"ms": 60}, {"ms": 105}, {"ms": 70}]},
            ]
        },
        "collection": "metrics",
        "constants": [100],
        "query": Group(
            Match(Unwind(CollectionRef("metrics"), ("samples",)), Cmp(("samples", "ms"), ">", 100)),
            (("host",),),
            ("slow",),
            (Count(),),
        ),
        "oracle": [
            ("unwind", "samples"),
            ("match", lambda d: d["samples"]["ms"] > 100),
            ("group", ["host"], [("slow", oracles.agg_count)]),
        ],
    },
]


def build(spec) -> dict:
    """The task file of one spec, its output cross-checked against the oracle replay."""
    db = spec["db"]
    output = eval_query(db, spec["query"])
    check = oracles.replay(db, spec["collection"], spec["oracle"])
    assert collection_eq(output, check), f"{spec['name']}: interpreter and oracle disagree"

    task = {"collection": spec["collection"]}
    if spec.get("explicit_schema"):
        task["schema"] = schema_to_json(compute_schema(db))
    if spec.get("constants"):
        task["constants"] = spec["constants"]
    task["examples"] = [
        {"input": database_to_json(db), "output": [value_to_json(d) for d in output]}
    ]
    return task


def main():
    out_dir = os.path.join(ROOT, "tasks")
    os.makedirs(out_dir, exist_ok=True)
    for spec in TASKS:
        task = build(spec)
        path = os.path.join(out_dir, spec["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(task, fh, indent=2)
            fh.write("\n")
        n = len(task["examples"][0]["output"])
        print(f"{spec['name']}: {n} output docs  ({render_query(spec['query'])})")


if __name__ == "__main__":
    main()
