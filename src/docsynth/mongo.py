"""Translation to MongoDB aggregation-pipeline syntax.

One-way and syntax-directed: each operator becomes one pipeline stage,
innermost first. `optimize` merges adjacent $addFields stages, composable
adjacent $project stages, and an $addFields directly followed by a $project
that keeps every added field. `reconstruct_query` maps emitted stage shapes
(including the merged ones) back into the language so tests can replay an
optimized pipeline through the reference interpreter; it raises
MalformedQueryError on any other shape.

`_id` follows the interpreter: a `$group` `_id` is always the key document
`{last segment: "$path", ...}`, and a `$project` excludes `_id` exactly when
no kept path is `_id` or lies below it. `reconstruct_query` refuses any
other `_id` form, since a server would return a different shape for it.

Rendering conventions follow the house style for pipeline listings: keys
that look like identifiers stay bare, everything else is quoted; path
references are "$a.b" strings; stages print one per line inside
`db.<coll>.aggregate([...])`.
"""

from __future__ import annotations

import json
import math
import re

from .errors import InvalidDocumentError, MalformedQueryError
from .lang import (
    AddFields, And, Arith, Avg, Cmp, CollectionRef, Count, Exists, FALSE,
    FalsePred, FnCall, Group, Lookup, Match, Max, Min, Not, Or, PathExpr,
    Project, SizeEq, Sum, TRUE, TruePred, Unwind, stages as query_stages,
    source_collection,
)
from .values import path_str, parse_path, value_to_json

_CMP_TO_MONGO = {"=": "$eq", "!=": "$ne", "<": "$lt", "<=": "$lte", ">": "$gt", ">=": "$gte"}
_MONGO_TO_CMP = {v: k for k, v in _CMP_TO_MONGO.items()}
_ARITH_TO_MONGO = {"+": "$add", "-": "$subtract", "*": "$multiply", "/": "$divide", "%": "$mod"}
_MONGO_TO_ARITH = {v: k for k, v in _ARITH_TO_MONGO.items()}
_FN_TO_MONGO = {"abs": "$abs", "floor": "$floor", "ceil": "$ceil"}
_MONGO_TO_FN = {v: k for k, v in _FN_TO_MONGO.items()}


def _ref(path) -> str:
    return "$" + path_str(path)


def _pred_doc(p):
    if isinstance(p, TruePred):
        return {}
    if isinstance(p, FalsePred):
        return {"$nor": [{}]}
    if isinstance(p, Cmp):
        return {path_str(p.path): {_CMP_TO_MONGO[p.op]: p.value}}
    if isinstance(p, SizeEq):
        return {path_str(p.path): {"$size": p.size}}
    if isinstance(p, Exists):
        return {path_str(p.path): {"$exists": True}}
    if isinstance(p, And):
        return {"$and": [_pred_doc(p.left), _pred_doc(p.right)]}
    if isinstance(p, Or):
        return {"$or": [_pred_doc(p.left), _pred_doc(p.right)]}
    if isinstance(p, Not):
        inner = p.pred
        # field-level negation where MongoDB allows it
        if isinstance(inner, (Cmp, SizeEq)):
            doc = _pred_doc(inner)
            key, op_doc = next(iter(doc.items()))
            return {key: {"$not": op_doc}}
        if isinstance(inner, Exists):
            return {path_str(inner.path): {"$exists": False}}
        return {"$nor": [_pred_doc(inner)]}
    raise MalformedQueryError(f"not a predicate: {p!r}")


def _expr_doc(e):
    if isinstance(e, PathExpr):
        return _ref(e.path)
    if isinstance(e, Arith):
        return {_ARITH_TO_MONGO[e.op]: [_ref(e.left), _ref(e.right)]}
    if isinstance(e, FnCall):
        return {_FN_TO_MONGO[e.fn]: _ref(e.path)}
    raise MalformedQueryError(f"not an expression: {e!r}")


def _agg_doc(a):
    if isinstance(a, Count):
        return {"$count": {}}
    tag = {Sum: "$sum", Avg: "$avg", Min: "$min", Max: "$max"}[type(a)]
    return {tag: _ref(a.path)}


def _project_spec(paths):
    """The $project inclusion spec keeping the dotted `paths`. A server keeps
    `_id` unless told otherwise, so `_id: 0` is added exactly when no kept
    path is `_id` or lies below it."""
    spec = {} if any(_overlaps(p, "_id") for p in paths) else {"_id": 0}
    spec.update(dict.fromkeys(paths, 1))
    return spec


def _stage_doc(op):
    if isinstance(op, Project):
        return {"$project": _project_spec([path_str(p) for p in op.paths])}
    if isinstance(op, Match):
        return {"$match": _pred_doc(op.pred)}
    if isinstance(op, AddFields):
        return {"$addFields": {path_str(p): _expr_doc(e) for p, e in zip(op.paths, op.exprs)}}
    if isinstance(op, Unwind):
        return {"$unwind": _ref(op.path)}
    if isinstance(op, Group):
        # the key document that interp builds: each key under its last segment
        spec = {"_id": {k[-1]: _ref(k) for k in op.keys}}
        for name, agg in zip(op.names, op.aggs):
            spec[name] = _agg_doc(agg)
        return {"$group": spec}
    if isinstance(op, Lookup):
        return {"$lookup": {
            "from": op.foreign_coll,
            "localField": path_str(op.local_path),
            "foreignField": path_str(op.foreign_path),
            "as": op.as_attr,
        }}
    raise MalformedQueryError(f"not an operator: {op!r}")


def translate(q):
    """Query -> (collection name, pipeline as a list of stage documents)."""
    return source_collection(q), [_stage_doc(op) for op in query_stages(q)]


# ---------------------------------------------------------------------------
# Stage merging
# ---------------------------------------------------------------------------

def _project_paths(spec):
    return [k for k, v in spec.items() if not (k == "_id" and v == 0)]


def _keeps(included, path) -> bool:
    """Whether a $project inclusion list retains `path` (directly or via an
    ancestor attribute)."""
    segs = path.split(".")
    return any(".".join(segs[:i]) in included for i in range(1, len(segs) + 1))


def _expr_refs(doc):
    if isinstance(doc, str) and doc.startswith("$"):
        yield doc[1:]
    elif isinstance(doc, dict):
        for v in doc.values():
            yield from _expr_refs(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _expr_refs(v)


def _overlaps(p, q) -> bool:
    return p == q or p.startswith(q + ".") or q.startswith(p + ".")


def _merge_pair(a, b):
    if "$addFields" in a and "$addFields" in b:
        # all expressions of one stage see the pre-stage document, so the
        # second stage must not read anything the first created
        targets = list(a["$addFields"])
        refs = [r for v in b["$addFields"].values() for r in _expr_refs(v)]
        if any(_overlaps(t, r) for t in targets for r in refs):
            return None
        merged = dict(a["$addFields"])
        merged.update(b["$addFields"])
        return {"$addFields": merged}
    if "$project" in a and "$project" in b:
        sa, sb = a["$project"], b["$project"]
        if any(not isinstance(v, int) for v in sa.values()) or \
           any(not isinstance(v, int) for v in sb.values()):
            return None  # computed stages: leave alone
        included_a = _project_paths(sa)
        # an `_id` that the first stage dropped is absent, so the second
        # stage's request for it keeps nothing
        wanted = [p for p in _project_paths(sb) if p != "_id" or "_id" in included_a]
        if not wanted or not all(_keeps(included_a, p) for p in wanted):
            return None
        return {"$project": _project_spec(wanted)}
    if "$addFields" in a and "$project" in b:
        added = a["$addFields"]
        spec = b["$project"]
        # every added field must be projected by name, or its expression
        # would be lost
        if not all(f in spec and spec[f] == 1 for f in added):
            return None
        out = {}
        for k, v in spec.items():
            out[k] = added.get(k, v)
        return {"$project": out}
    return None


def optimize(pipeline):
    """Apply the merge rules until none fires. Never grows the pipeline."""
    stages = list(pipeline)
    changed = True
    while changed:
        changed = False
        for i in range(len(stages) - 1):
            merged = _merge_pair(stages[i], stages[i + 1])
            if merged is not None:
                stages[i:i + 2] = [merged]
                changed = True
                break
    return stages


# ---------------------------------------------------------------------------
# Reconstruction (for replay-equivalence tests)
# ---------------------------------------------------------------------------

def _path_of_ref(ref):
    """The path that `_ref` spelled as `ref`."""
    if not (isinstance(ref, str) and ref.startswith("$")):
        raise MalformedQueryError(f"not a path reference: {ref!r}")
    return parse_path(ref[1:])


def _pred_from_doc(doc):
    if doc == {}:
        return TRUE
    if doc == {"$nor": [{}]}:
        return FALSE
    (key, body), = doc.items()
    if key in ("$and", "$or"):
        left, right = body
        return (And if key == "$and" else Or)(_pred_from_doc(left), _pred_from_doc(right))
    if key == "$nor":
        inner, = body
        return Not(_pred_from_doc(inner))
    if key.startswith("$"):
        raise MalformedQueryError(f"unrecognized query operator: {key}")
    path = parse_path(key)
    (op, arg), = body.items()
    if op == "$not":
        return Not(_pred_from_doc({key: arg}))
    if op == "$size":
        return SizeEq(path, arg)
    if op == "$exists" and isinstance(arg, bool):
        return Exists(path) if arg else Not(Exists(path))
    return Cmp(path, _MONGO_TO_CMP[op], arg)


def _expr_from_doc(doc):
    if isinstance(doc, str):
        return PathExpr(_path_of_ref(doc))
    (op, arg), = doc.items()
    if op in _MONGO_TO_ARITH:
        left, right = arg
        return Arith(_path_of_ref(left), _MONGO_TO_ARITH[op], _path_of_ref(right))
    if op in _MONGO_TO_FN:
        return FnCall(_MONGO_TO_FN[op], _path_of_ref(arg))
    raise MalformedQueryError(f"unrecognized expression document: {doc!r}")


def _agg_from_doc(doc):
    (op, arg), = doc.items()
    if op == "$count":
        return Count()
    make = {"$sum": Sum, "$avg": Avg, "$min": Min, "$max": Max}[op]
    return make(_path_of_ref(arg))


def _op_from_doc(q, stage):
    """The operator over `q` that the stage document `stage` describes."""
    (tag, spec), = stage.items()
    if tag == "$match":
        return Match(q, _pred_from_doc(spec))
    if tag == "$unwind":
        return Unwind(q, _path_of_ref(spec))
    if tag == "$addFields":
        return AddFields(q, tuple(parse_path(k) for k in spec),
                         tuple(_expr_from_doc(v) for v in spec.values()))
    if tag == "$project":
        computed = {k: v for k, v in spec.items() if not isinstance(v, int)}
        if computed:
            q = AddFields(q,
                          tuple(parse_path(k) for k in computed),
                          tuple(_expr_from_doc(v) for v in computed.values()))
        kept = _project_paths(spec)
        if _project_spec(kept) != {k: 1 if k in computed else v for k, v in spec.items()}:
            raise MalformedQueryError(f"unrecognized $project spec: {spec!r}")
        return Project(q, tuple(parse_path(k) for k in kept))
    if tag == "$group" and isinstance(spec["_id"], dict):
        keys = tuple(_path_of_ref(v) for v in spec["_id"].values())
        names = tuple(k for k in spec if k != "_id")
        op = Group(q, keys, names, tuple(_agg_from_doc(spec[n]) for n in names))
    elif tag == "$lookup":
        op = Lookup(q, parse_path(spec["localField"]),
                    parse_path(spec["foreignField"]), spec["from"], spec["as"])
    else:
        raise MalformedQueryError(f"unrecognized stage: {tag}")
    # e.g. a group key not under its last segment, or an extra lookup option
    if _stage_doc(op) != stage:
        raise MalformedQueryError(f"unrecognized {tag} spec: {spec!r}")
    return op


def reconstruct_query(collection, pipeline):
    """Rebuild a language query from emitted (possibly merged) stages."""
    q = CollectionRef(collection)
    for stage in pipeline:
        try:
            q = _op_from_doc(q, stage)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, InvalidDocumentError):
            raise MalformedQueryError(f"unrecognized stage: {stage!r}") from None
    return q


# ---------------------------------------------------------------------------
# Rendering and serialization
# ---------------------------------------------------------------------------

_BARE_KEY = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")


def _render_value(v):
    if isinstance(v, dict):
        inner = ", ".join(f"{_render_key(k)}: {_render_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_render_value(x) for x in v) + "]"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if isinstance(v, float) and not math.isfinite(v):
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"  # JS globals
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return json.dumps(v)
    return _render_value(value_to_json(v))  # datetime / object id via extended tags


def _render_key(k):
    return k if _BARE_KEY.match(k) else json.dumps(k)


def render_stage(stage) -> str:
    return _render_value(stage)


def render_shell(collection, pipeline) -> str:
    """`db.<coll>.aggregate([...])` with one stage per line."""
    if not pipeline:
        return f"db.{collection}.aggregate([])"
    lines = [f"db.{collection}.aggregate(["]
    for i, stage in enumerate(pipeline):
        tail = "," if i < len(pipeline) - 1 else "])"
        lines.append("  " + render_stage(stage) + tail)
    return "\n".join(lines)

