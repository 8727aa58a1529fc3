"""Independent answer checker.

A returned query is accepted only if replaying it with the naive oracle in
tests/oracles.py reproduces every expected output of the task, in order.
The query's AST is translated into the oracle's stage specs here, with
predicate, expression and aggregator semantics written out again from the
language's documented rules (README, interp module docstring) over the
task's plain JSON data. Nothing in docsynth.interp is used, so a defect in
the interpreter cannot approve its own answer.

Known limit: the oracle builds a group's _id from the key paths themselves,
so a query grouping on a nested or missing key is rejected even when the
interpreter would produce the expected output. No task in the benchmark
groups on such a key.
"""

from __future__ import annotations

import math

from tests import oracles

_MISSING = oracles._MISSING


def accepts(task: dict, query) -> bool:
    """Whether `query` reproduces every example output of the decoded task."""
    collection, stages = _stages(query)
    for ex in task["examples"]:
        try:
            got = oracles.replay(ex["input"], collection, stages)
        except (AssertionError, KeyError, TypeError):
            return False
        want = ex["output"]
        if len(got) != len(want) or not all(oracles.same_value(g, w) for g, w in zip(got, want)):
            return False
    return True


def _path(p) -> str:
    return ".".join(p)


def _stages(query):
    nodes = []
    q = query
    while type(q).__name__ != "CollectionRef":
        nodes.append(q)
        q = q.source
    nodes.reverse()
    return q.name, [_stage(node) for node in nodes]


def _stage(node):
    kind = type(node).__name__
    if kind == "Project":
        return ("project", [_path(p) for p in node.paths])
    if kind == "Match":
        return ("match", _pred(node.pred))
    if kind == "AddFields":
        return ("addfields", [(_path(p), _expr(e)) for p, e in zip(node.paths, node.exprs)])
    if kind == "Unwind":
        return ("unwind", _path(node.path))
    if kind == "Group":
        return ("group", [_path(k) for k in node.keys],
                [(name, _agg(a)) for name, a in zip(node.names, node.aggs)])
    if kind == "Lookup":
        return ("lookup", _path(node.local_path), _path(node.foreign_path), node.foreign_coll, node.as_attr)
    raise ValueError(f"not a query stage: {node!r}")


# --- plain-data semantics ----------------------------------------------------

def _read(doc, path):
    """An absent path reads as null."""
    v = oracles.get_path(doc, path)
    return None if v is _MISSING else v


def _plain(c):
    """A query constant as plain JSON data (dates and object ids tagged)."""
    kind = type(c).__name__
    if kind == "Datetime":
        return {"$date": c.value}
    if kind == "ObjectId":
        return {"$oid": c.value}
    return c


def _kind(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "num"
    if isinstance(v, str):
        return "str"
    if isinstance(v, list):
        return "array"
    if isinstance(v, dict) and len(v) == 1 and ("$date" in v or "$oid" in v):
        return "date" if "$date" in v else "oid"
    return "doc"


def _less(a, b) -> bool:
    """< holds only between two values of one ordered kind."""
    ka, kb = _kind(a), _kind(b)
    if ka != kb or ka in ("null", "array", "doc"):
        return False
    if ka in ("date", "oid"):
        return next(iter(a.values())) < next(iter(b.values()))
    return a < b


def _pred(p):
    kind = type(p).__name__
    if kind == "TruePred":
        return lambda d: True
    if kind == "FalsePred":
        return lambda d: False
    if kind == "Cmp":
        path, op, c = _path(p.path), p.op, _plain(p.value)
        tests = {
            "=": lambda v: oracles.same_value(v, c),
            "!=": lambda v: not oracles.same_value(v, c),
            "<": lambda v: _less(v, c),
            ">": lambda v: _less(c, v),
            "<=": lambda v: _less(v, c) or oracles.same_value(v, c),
            ">=": lambda v: _less(c, v) or oracles.same_value(v, c),
        }
        test = tests[op]
        return lambda d: test(_read(d, path))
    if kind == "SizeEq":
        path, n = _path(p.path), p.size
        return lambda d: isinstance(_read(d, path), list) and len(_read(d, path)) == n
    if kind == "Exists":
        path = _path(p.path)
        return lambda d: oracles.get_path(d, path) is not _MISSING
    if kind in ("And", "Or"):
        left, right = _pred(p.left), _pred(p.right)
        if kind == "And":
            return lambda d: left(d) and right(d)
        return lambda d: left(d) or right(d)
    if kind == "Not":
        inner = _pred(p.pred)
        return lambda d: not inner(d)
    raise ValueError(f"not a predicate: {p!r}")


def _num(v):
    return v if _kind(v) == "num" else None


def _expr(e):
    kind = type(e).__name__
    if kind == "PathExpr":
        path = _path(e.path)
        return lambda d: _read(d, path)
    if kind == "Arith":
        left, right, op = _path(e.left), _path(e.right), e.op
        return lambda d: _arith(_num(_read(d, left)), op, _num(_read(d, right)))
    if kind == "FnCall":
        path, fn = _path(e.path), {"abs": abs, "floor": math.floor, "ceil": math.ceil}[e.fn]
        return lambda d: None if _num(_read(d, path)) is None else fn(_read(d, path))
    raise ValueError(f"not an expression: {e!r}")


def _arith(a, op, b):
    """Null in, null out; division and modulus by zero give null."""
    if a is None or b is None:
        return None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        return None
    both_int = isinstance(a, int) and isinstance(b, int)
    if op == "/":
        return a // b if both_int and a % b == 0 else a / b
    r = math.fmod(a, b)
    return int(r) if both_int else r


def _agg(a):
    kind = type(a).__name__
    if kind == "Count":
        return oracles.agg_count
    path = _path(a.path)
    return {"Sum": oracles.agg_sum, "Min": oracles.agg_min, "Max": oracles.agg_max,
            "Avg": oracles.agg_avg}[kind](path)
