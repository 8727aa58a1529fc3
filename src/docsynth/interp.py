"""Reference interpreter for the query language.

Null discipline, in one place:
  * an absent path reads as Null everywhere except Exists and Unwind
  * every comparison is one lookup of the three-way outcome
    `values.value_cmp(v, c)` in the table HOLDS_ON, so null = null and
    null <= null hold, while < and > are false whenever either side is Null
    or the kinds differ
  * arithmetic propagates Null; division or modulo by zero yields Null
  * arithmetic, Sum and Avg also yield Null where they would need a float
    beyond the float range: an integer above it met by a float or by `%`,
    which works in floats, or an inexact integer quotient above it
    (10**400 + 1.5, 10**400 % 3, 10**400 / 3)
  * non-finite numbers (NaN, ±Infinity, which JSON input can carry) follow
    IEEE arithmetic, as in MongoDB: floor and ceil return them unchanged,
    and modulo of an infinite dividend is NaN
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
    value_cmp,
    value_key,
)


def read_path(doc, path):
    """The value at path; an absent path reads as Null."""
    v = get_path(doc, path)
    return None if v is ABSENT else v


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

# The value_cmp outcomes under which each operator holds (None: unequal and unordered)
HOLDS_ON = {"=": (0,), "<": (-1,), "<=": (-1, 0), ">": (1,), ">=": (1, 0), "!=": (-1, 1, None)}


def compare(v, op: str, c) -> bool:
    """`v op c` for a comparison atom; v is the value read at its path."""
    return value_cmp(v, c) in HOLDS_ON[op]


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
        try:
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
            if isinstance(a, float) and math.isinf(a):
                return math.nan
            r = math.fmod(a, b)
            return int(r) if isinstance(a, int) and isinstance(b, int) else r
        except OverflowError:
            return None
    if isinstance(e, FnCall):
        v = _num(read_path(doc, e.path))
        if v is None:
            return None
        if e.fn == "abs":
            return abs(v)
        if isinstance(v, float) and not math.isfinite(v):
            return v
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
    if isinstance(a, (Min, Max)):
        pool = [v for v in values if v is not None]
        if not pool:
            return None
        pick = min if isinstance(a, Min) else max
        return pick(pool, key=order_key)
    try:
        if isinstance(a, Sum):
            return sum(v for v in values if _num(v) is not None)
        if isinstance(a, Avg):
            non_null = [v for v in values if v is not None]
            if not non_null:
                return None
            total = sum(v for v in non_null if _num(v) is not None)
            n = len(non_null)
            if isinstance(total, int) and total % n == 0:
                return total // n
            return total / n
    except OverflowError:
        return None
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


def group_by(docs, keys):
    """The groups of `docs` by their values at `keys` (absent reads as Null),
    newest first, as (key document, members): each key under its last segment."""
    names = [k[-1] for k in keys]
    groups = {}  # value_key tuple -> (key document, members)
    for d in docs:
        vals = [read_path(d, k) for k in keys]
        gk = tuple(map(value_key, vals))
        if gk in groups:
            groups[gk][1].append(d)
        else:
            groups[gk] = (dict(zip(names, vals)), [d])
    return list(reversed(groups.values()))


def group_rows(groups, names, aggs):
    """A Group's output from its partition `groups` (see `group_by`): per
    group, its key document under `_id`, then each named aggregate."""
    out = []
    for key_doc, members in groups:
        row = {"_id": key_doc}
        for name, agg in zip(names, aggs):
            row[name] = eval_agg(members, agg)
        out.append(row)
    return out


def _lookup(db, src, q):
    if q.foreign_coll not in db:
        raise UnknownCollectionError(f"unknown collection {q.foreign_coll!r}")
    buckets = {}
    for f in db[q.foreign_coll]:
        buckets.setdefault(value_key(read_path(f, q.foreign_path)), []).append(f)
    as_path = [(q.as_attr,)]
    return [
        add_attrs(d, as_path, [list(buckets.get(value_key(read_path(d, q.local_path)), ()))])
        for d in src
    ]


def apply_stage(db, src, q):
    """Run one operator over already-evaluated source documents.

    The operator's own source field is ignored; `db` is only consulted for
    Lookup's foreign collection.

    Lookup is a hash join. The foreign collection is bucketed once per call
    by the value_key of the foreign path, each bucket in foreign order, and
    each local document reads the bucket of its own value's key. value_key
    is equal exactly when value_eq holds, so the join is the nested scan's:
    null meets null and absent, 1 meets 1.0 but not True, and NaN meets
    nothing. Each output document gets its own list.
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
        return group_rows(group_by(src, q.keys), q.names, q.aggs)
    if isinstance(q, Lookup):
        return _lookup(db, src, q)
    raise TypeError(f"not an operator: {q!r}")


def eval_query(db, q):
    if isinstance(q, CollectionRef):
        if q.name not in db:
            raise UnknownCollectionError(f"unknown collection {q.name!r}")
        return list(db[q.name])
    if not hasattr(q, "source"):
        raise TypeError(f"not a query: {q!r}")
    return apply_stage(db, eval_query(db, q.source), q)
