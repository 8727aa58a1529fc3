"""Reference interpreter for the query language.

Null discipline, in one place:
  * an absent path reads as Null everywhere except Exists and Unwind
  * = and != compare directly, so null = null holds
  * < and > are false whenever either side is Null or the kinds differ
  * <= and >= are the disjunction with equality, so null <= null holds
  * arithmetic propagates Null; division or modulo by zero yields Null
  * Sum counts Null as 0; Min/Max/Avg ignore Nulls and yield Null when
    nothing remains; Count just counts documents
"""

from __future__ import annotations

import math

from .errors import UnknownCollectionError, UnwindNonArrayError
from .lang import (
    AddFields,
    And,
    Arith,
    Avg,
    CollectionRef,
    Cmp,
    Count,
    Exists,
    FalsePred,
    FnCall,
    Group,
    Lookup,
    Match,
    Max,
    Min,
    Not,
    Or,
    PathExpr,
    Project,
    SizeEq,
    Sum,
    TruePred,
    Unwind,
)
from .values import (
    ABSENT,
    add_attrs,
    extract_attrs,
    get_path,
    has_path,
    kind_of,
    order_key,
    path_str,
    value_eq,
    value_key,
    value_lt,
)


def read_path(doc, path):
    """The value at path; an absent path reads as Null."""
    v = get_path(doc, path)
    return None if v is ABSENT else v


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def compare(v, op: str, c) -> bool:
    """`v op c` for a comparison atom; v is the value read at its path."""
    if op == "=":
        return value_eq(v, c)
    if op == "!=":
        return not value_eq(v, c)
    if op == "<":
        return value_lt(v, c)
    if op == ">":
        return value_lt(c, v)
    if op == "<=":
        return value_lt(v, c) or value_eq(v, c)
    return value_lt(c, v) or value_eq(v, c)


def eval_pred(doc, p) -> bool:
    if isinstance(p, TruePred):
        return True
    if isinstance(p, FalsePred):
        return False
    if isinstance(p, Cmp):
        return compare(read_path(doc, p.path), p.op, p.value)
    if isinstance(p, SizeEq):
        v = read_path(doc, p.path)
        return isinstance(v, list) and len(v) == p.size
    if isinstance(p, Exists):
        return has_path(doc, p.path)
    if isinstance(p, And):
        return eval_pred(doc, p.left) and eval_pred(doc, p.right)
    if isinstance(p, Or):
        return eval_pred(doc, p.left) or eval_pred(doc, p.right)
    if isinstance(p, Not):
        return not eval_pred(doc, p.pred)
    raise TypeError(f"not a predicate: {p!r}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _num(v):
    return v if v is not None and kind_of(v) == "num" else None


def eval_expr(doc, e):
    if isinstance(e, PathExpr):
        return read_path(doc, e.path)
    if isinstance(e, Arith):
        a = _num(read_path(doc, e.left))
        b = _num(read_path(doc, e.right))
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                return None
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return a // b
            return a / b
        # '%' truncates toward zero, int result when both operands are ints
        if b == 0:
            return None
        r = math.fmod(a, b)
        return int(r) if isinstance(a, int) and isinstance(b, int) else r
    if isinstance(e, FnCall):
        v = _num(read_path(doc, e.path))
        if v is None:
            return None
        if e.fn == "abs":
            return abs(v)
        if e.fn == "floor":
            return math.floor(v)
        return math.ceil(v)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Aggregators
# ---------------------------------------------------------------------------

def eval_agg(docs, a):
    if isinstance(a, Count):
        return len(docs)
    values = [read_path(d, a.path) for d in docs]
    if isinstance(a, Sum):
        return sum(v for v in values if _num(v) is not None)
    if isinstance(a, (Min, Max)):
        pool = [v for v in values if v is not None]
        if not pool:
            return None
        pick = min if isinstance(a, Min) else max
        return pick(pool, key=order_key)
    if isinstance(a, Avg):
        non_null = [v for v in values if v is not None]
        if not non_null:
            return None
        total = sum(v for v in non_null if _num(v) is not None)
        n = len(non_null)
        if isinstance(total, int) and total % n == 0:
            return total // n
        return total / n
    raise TypeError(f"not an aggregator: {a!r}")


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def flatten(doc, path):
    """One document per element of the array at `path`.

    Absent or Null values drop the document; anything else non-array is an
    evaluation error. An empty array yields no documents.
    """
    v = get_path(doc, path)
    if v is ABSENT or v is None:
        return []
    if not isinstance(v, list):
        raise UnwindNonArrayError(f"cannot unwind non-array at {path_str(path)}")
    return [add_attrs(doc, [path], [elem]) for elem in v]


def _group(db, src, q):
    groups = {}  # value_key tuple -> (key_doc, [members])
    for d in src:
        vals = [read_path(d, k) for k in q.keys]
        gk = tuple(value_key(v) for v in vals)
        if gk not in groups:
            key_doc = {k[-1]: v for k, v in zip(q.keys, vals)}
            groups[gk] = (key_doc, [])
        groups[gk][1].append(d)
    out = []
    # newest group first
    for key_doc, members in reversed(list(groups.values())):
        row = {"_id": key_doc}
        for name, agg in zip(q.names, q.aggs):
            row[name] = eval_agg(members, agg)
        out.append(row)
    return out


def apply_stage(db, src, q):
    """Run one operator over already-evaluated source documents.

    The operator's own source field is ignored; `db` is only consulted for
    Lookup's foreign collection.
    """
    if isinstance(q, Project):
        return [extract_attrs(d, q.paths) for d in src]
    if isinstance(q, Match):
        return [d for d in src if eval_pred(d, q.pred)]
    if isinstance(q, AddFields):
        return [add_attrs(d, q.paths, [eval_expr(d, e) for e in q.exprs]) for d in src]
    if isinstance(q, Unwind):
        out = []
        for d in src:
            out.extend(flatten(d, q.path))
        return out
    if isinstance(q, Group):
        return _group(db, src, q)
    if isinstance(q, Lookup):
        if q.foreign_coll not in db:
            raise UnknownCollectionError(f"unknown collection {q.foreign_coll!r}")
        foreign = db[q.foreign_coll]
        out = []
        for d in src:
            local = read_path(d, q.local_path)
            joined = [f for f in foreign if value_eq(read_path(f, q.foreign_path), local)]
            out.append(add_attrs(d, [(q.as_attr,)], [joined]))
        return out
    raise TypeError(f"not an operator: {q!r}")


def eval_query(db, q):
    if isinstance(q, CollectionRef):
        if q.name not in db:
            raise UnknownCollectionError(f"unknown collection {q.name!r}")
        return list(db[q.name])
    if not hasattr(q, "source"):
        raise TypeError(f"not a query: {q!r}")
    return apply_stage(db, eval_query(db, q.source), q)
