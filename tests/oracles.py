"""Independent reference implementations used as test oracles.

Everything in here is deliberately naive and exhaustive. These functions are
written against plain Python data (dicts, lists, None) and never import the
package under test, so they can be used to freeze expected values and to
cross-check the real implementations. The one exception is
`predicates_by_enumeration`, which evaluates with the package's `eval_pred`
because it checks the order and deduplication of predicate enumeration, not
the predicate semantics.

`replay_pipeline` replays a MongoDB pipeline, the artifact the user runs,
from its stage documents alone: it reads the shapes that `translate` and
`optimize` emit into `replay` stages, so tests can compare an optimized
pipeline with the query it came from.
"""

import math
from itertools import product

# ---------------------------------------------------------------------------
# Size image oracle: compose per-size images on explicit sets of sizes.
#
# IMAGES maps each stage kind to the sizes one stage of that kind can
# produce from n documents, among PROBES: a Match keeps any subset, an
# Unwind drops documents whose array is empty or absent and multiplies the
# others, and a Group keeps an empty collection empty and must merge
# something in a non-empty one, so one document has no Group at all.
# ---------------------------------------------------------------------------

PROBES = range(13)

IMAGES = {
    "project": lambda n: {n},
    "add_fields": lambda n: {n},
    "lookup": lambda n: {n},
    "match": lambda n: set(range(n + 1)),
    "unwind": lambda n: set(PROBES),
    "group": lambda n: {0} if n == 0 else set(range(1, n)),
}


def sizes_by_enumeration(n, tags, cap=40):
    """The sizes that n documents can become through stages of kinds `tags`,
    innermost first, with Unwind's unbounded image cut at `cap`."""
    sizes = {n}
    for tag in tags:
        if tag == "unwind":
            sizes = set(range(cap + 1)) if sizes else set()
        else:
            sizes = set().union(*(IMAGES[tag](s) for s in sizes))
    return sizes


def reachable_by_enumeration(n, tags, m, cap=40):
    return m in sizes_by_enumeration(n, tags, cap)


# ---------------------------------------------------------------------------
# Pipeline replay oracle.
#
# Operates on plain JSON-like data: documents are dicts, null is None,
# collections are lists. Stages are small tuples:
#   ("project", [path, ...])
#   ("match", predfn)            predfn: dict -> bool
#   ("addfields", [(path, exprfn), ...])
#   ("unwind", path)
#   ("group", keys, [(name, aggfn)])   aggfn: list[dict] -> value
#        keys: [key_path, ...], or keyfn: dict -> key document
#   ("lookup", local, foreign, coll_name, as_attr)
# Paths are dot-joined strings.
# ---------------------------------------------------------------------------

_MISSING = object()


def get_path(doc, path):
    cur = doc
    for seg in path.split("."):
        if not isinstance(cur, dict) or seg not in cur:
            return _MISSING
        cur = cur[seg]
    return cur


def same_value(a, b):
    """Equality with bool/number kept apart (True is not 1 here)."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if type(a) is not type(b):
        return False
    return a == b


def extract_attrs(doc, paths):
    out = {}
    for path in paths:
        val = get_path(doc, path)
        if val is _MISSING:
            continue
        segs = path.split(".")
        cur = out
        for seg in segs[:-1]:
            cur = cur.setdefault(seg, {})
        cur[segs[-1]] = val
    return out


def add_attrs(doc, pairs):
    out = {k: v for k, v in doc.items()}
    for path, val in pairs:
        segs = path.split(".")
        cur = out
        for seg in segs[:-1]:
            nxt = cur.get(seg)
            if not isinstance(nxt, dict):
                nxt = {}
            else:
                nxt = dict(nxt)
            cur[seg] = nxt
            cur = nxt
        cur[segs[-1]] = val
    return out


def cut_to_type(v, tj):
    """`v` without the attributes, at any depth, that the type `tj` does not
    have. `tj` is a type in its JSON form ({"kind": "doc", "fields": ..},
    {"kind": "array", "elem": ..}); each array element is cut by `elem`."""
    if isinstance(v, dict) and tj["kind"] == "doc":
        return {k: cut_to_type(x, tj["fields"][k]) for k, x in v.items() if k in tj["fields"]}
    if isinstance(v, list) and tj["kind"] == "array":
        return [cut_to_type(x, tj["elem"]) for x in v]
    return v


class _NaN:
    """Key of one NaN, equal to no other key: a NaN equals no value."""


def _key_of(v):
    """Group key: equal for two values exactly when `same_value` holds."""
    if isinstance(v, dict):
        return ("d", tuple(sorted((k, _key_of(x)) for k, x in v.items())))
    if isinstance(v, list):
        return ("a", tuple(_key_of(x) for x in v))
    if isinstance(v, bool):
        return ("b", v)
    if v is None:
        return ("n",)
    if isinstance(v, (int, float)):
        # exact: 2**53 + 1 is not 2**53, and each NaN is a group of its own
        return ("f", _NaN() if v != v else v)
    return (type(v).__name__, v)


def replay(db, coll_name, stages):
    docs = [dict(d) for d in db[coll_name]]
    for stage in stages:
        kind = stage[0]
        if kind == "project":
            docs = [extract_attrs(d, stage[1]) for d in docs]
        elif kind == "match":
            docs = [d for d in docs if stage[1](d)]
        elif kind == "addfields":
            docs = [add_attrs(d, [(p, fn(d)) for p, fn in stage[1]]) for d in docs]
        elif kind == "unwind":
            path = stage[1]
            out = []
            for d in docs:
                arr = get_path(d, path)
                if arr is _MISSING or arr is None:
                    continue
                assert isinstance(arr, list), "oracle replay only unwinds arrays"
                for elem in arr:
                    out.append(add_attrs(d, [(path, elem)]))
            docs = out
        elif kind == "group":
            keys, aggs = stage[1], stage[2]
            key_doc = keys if callable(keys) else lambda d: extract_attrs(d, keys)
            order = []
            groups = {}
            for d in docs:
                g = key_doc(d)
                k = _key_of(g)
                if k not in groups:
                    groups[k] = (g, [])
                    order.append(k)
                groups[k][1].append(d)
            # groups are emitted newest-first (reverse of first occurrence)
            docs = []
            for k in reversed(order):
                g, members = groups[k]
                row = {"_id": g}
                for name, fn in aggs:
                    row[name] = fn(members)
                docs.append(row)
        elif kind == "lookup":
            _, local, foreign, fcoll, as_attr = stage
            out = []
            for d in docs:
                lv = get_path(d, local)
                lv = None if lv is _MISSING else lv
                joined = []
                for f in db[fcoll]:
                    fv = get_path(f, foreign)
                    fv = None if fv is _MISSING else fv
                    if same_value(lv, fv):
                        joined.append(f)
                out.append(add_attrs(d, [(as_attr, joined)]))
            docs = out
        else:
            raise ValueError(kind)
    return docs


# Aggregator helpers for replay stages, following the interpreter. Null
# contributes 0 to sum, is skipped by min/max/avg, and an all-null (or empty)
# group yields None. Avg sums only the numbers but divides by the count of
# every non-null value.

def agg_count(members):
    return len(members)


def agg_sum(path):
    """The sum of the numbers, or null where it needs a float beyond the float range."""
    def fn(members):
        total = 0
        for d in members:
            v = get_path(d, path)
            if v is _MISSING or v is None or isinstance(v, bool):
                continue
            if isinstance(v, (int, float)):
                try:
                    total += v
                except OverflowError:
                    return None
        return total
    return fn


def agg_min(path):
    """The least non-null value in the interpreter's order (`_minmax_key`);
    arrays and documents are out of scope and raise TypeError."""
    return _pick(path, min)


def agg_max(path):
    """The greatest non-null value, as `agg_min` orders them."""
    return _pick(path, max)


_MINMAX_RANK = {"num": 1, "str": 2, "oid": 3, "bool": 4, "date": 5}


def _minmax_key(v):
    """Min/Max order across kinds, ranked as the interpreter ranks them:
    number < string < object id < boolean < date (null is skipped before).
    Two dates, or two object ids, compare by their strings."""
    kind = _kind(v)
    if kind not in _MINMAX_RANK:
        raise TypeError(f"Min/Max over a {kind} value is out of scope")
    if kind in ("date", "oid"):
        return _MINMAX_RANK[kind], next(iter(v.values()))
    return _MINMAX_RANK[kind], v


def _pick(path, pick):
    def fn(members):
        vals = [get_path(d, path) for d in members]
        vals = [v for v in vals if v is not _MISSING and v is not None]
        return pick(vals, key=_minmax_key) if vals else None
    return fn


def agg_avg(path):
    """The sum of the numbers over the count of the non-null values, or
    null where either needs a float beyond the float range."""
    def fn(members):
        vals = [get_path(d, path) for d in members]
        vals = [v for v in vals if v is not _MISSING and v is not None]
        if not vals:
            return None
        try:
            total = sum(v for v in vals if _kind(v) == "num")
            if isinstance(total, int) and total % len(vals) == 0:
                return total // len(vals)
            return total / len(vals)
        except OverflowError:
            return None
    return fn


# ---------------------------------------------------------------------------
# Pipeline reader: the stage documents that `translate` and `optimize` emit,
# read into replay stages. The semantics are the language's plain-data rules,
# written out as in perfbench/checker.py: an absent path reads as null, $eq is
# `same_value`, < and its kin hold only between two values of one ordered
# kind, and arithmetic gives null unless both operands are numbers and the
# divisor of / or % is not 0. As on a server, a $project keeps `_id` unless
# it names `_id` or a path below it, and an $addFields or $project that sets
# both a path and a path below it is refused. Dates and object ids are the
# tagged documents {"$date": ..} and {"$oid": ..}. Any other shape raises
# ValueError.
# ---------------------------------------------------------------------------

def replay_pipeline(db, coll_name, pipeline):
    """Replay the stage documents `pipeline` on `db[coll_name]`."""
    return replay(db, coll_name, [s for stage in pipeline for s in _read_stage(stage)])


def _one(doc):
    """The one (key, value) pair of a one-key document."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError(f"not a one-key document: {doc!r}")
    return next(iter(doc.items()))


def _ref(v):
    """The path that the reference "$a.b" names."""
    if not isinstance(v, str) or len(v) < 2 or v[0] != "$":
        raise ValueError(f"not a path reference: {v!r}")
    return v[1:]


def _read(doc, path):
    v = get_path(doc, path)
    return None if v is _MISSING else v


_LOOKUP_KEYS = {"from", "localField", "foreignField", "as"}


def _read_stage(stage):
    """The replay stages, one or two, that the stage document `stage` is."""
    tag, spec = _one(stage)
    if tag == "$match":
        return [("match", _query(spec))]
    if tag == "$unwind":
        return [("unwind", _ref(spec))]
    if not isinstance(spec, dict):
        raise ValueError(f"unknown stage: {stage!r}")
    if tag in ("$addFields", "$project") and any(p.startswith(q + ".") for p in spec for q in spec):
        raise ValueError(f"path collision: {stage!r}")
    if tag == "$addFields":
        return [("addfields", [(p, _expr(e)) for p, e in spec.items()])]
    if tag == "$project":
        return _project(spec)
    if tag == "$group" and isinstance(spec.get("_id"), dict):
        keys = [(name, _ref(v)) for name, v in spec["_id"].items()]
        aggs = [(name, _accumulator(a)) for name, a in spec.items() if name != "_id"]
        return [("group", lambda d: {name: _read(d, p) for name, p in keys}, aggs)]
    if tag == "$lookup" and set(spec) == _LOOKUP_KEYS:
        return [("lookup", spec["localField"], spec["foreignField"], spec["from"], spec["as"])]
    raise ValueError(f"unknown stage: {stage!r}")


def _project(spec):
    """An inclusion $project: computed fields read the input document."""
    kept, computed = [], []
    for path, v in spec.items():
        if isinstance(v, (str, dict)):
            computed.append((path, _expr(v)))
        elif v == 1:
            kept.append(path)
        elif v != 0 or path != "_id":
            raise ValueError(f"not an inclusion $project: {spec!r}")
    if not any(p == "_id" or p.startswith("_id.") for p in spec):
        kept.insert(0, "_id")
    project = ("project", kept + [p for p, _ in computed])
    return [("addfields", computed), project] if computed else [project]


_CONNECTIVES = {"$and": all, "$or": any, "$nor": lambda tests: not any(tests)}


def _query(doc):
    """A $match query document as a test of one document."""
    if not isinstance(doc, dict):
        raise ValueError(f"not a query document: {doc!r}")
    clauses = [_clause(key, body) for key, body in doc.items()]
    return lambda d: all(c(d) for c in clauses)


def _clause(key, body):
    if key in _CONNECTIVES and isinstance(body, list):
        parts, combine = [_query(x) for x in body], _CONNECTIVES[key]
        return lambda d: combine(p(d) for p in parts)
    if key.startswith("$"):
        raise ValueError(f"unknown query operator: {key}")
    test = _field(body)
    return lambda d: test(get_path(d, key))


def _field(body):
    """A field's operator document as a test of the value there (_MISSING if absent)."""
    if not isinstance(body, dict) or not body:
        raise ValueError(f"not an operator document: {body!r}")
    tests = [_operator(op, arg) for op, arg in body.items()]
    return lambda v: all(t(v) for t in tests)


_COMPARISONS = {
    "$eq": same_value,
    "$ne": lambda v, c: not same_value(v, c),
    "$lt": lambda v, c: _less(v, c),
    "$gt": lambda v, c: _less(c, v),
    "$lte": lambda v, c: _less(v, c) or same_value(v, c),
    "$gte": lambda v, c: _less(c, v) or same_value(v, c),
}


def _operator(op, arg):
    if op in _COMPARISONS:
        holds = _COMPARISONS[op]
        return lambda v: holds(None if v is _MISSING else v, arg)
    if op == "$size" and type(arg) is int:
        return lambda v: isinstance(v, list) and len(v) == arg
    if op == "$exists" and isinstance(arg, bool):
        return lambda v: (v is not _MISSING) == arg
    if op == "$not":
        test = _field(arg)
        return lambda v: not test(v)
    raise ValueError(f"unknown query operator: {op}")


_ARITH = {"$add": "+", "$subtract": "-", "$multiply": "*", "$divide": "/", "$mod": "%"}
def _rounding(fn):
    """floor or ceil, which keep NaN and ±Infinity as they are."""
    return lambda v: v if isinstance(v, float) and not math.isfinite(v) else fn(v)


_FNS = {"$abs": abs, "$floor": _rounding(math.floor), "$ceil": _rounding(math.ceil)}


def _expr(e):
    """An $addFields or computed $project expression as a function of the document."""
    if isinstance(e, str):
        path = _ref(e)
        return lambda d: _read(d, path)
    op, arg = _one(e)
    if op in _ARITH and isinstance(arg, list) and len(arg) == 2:
        left, right, sym = _expr(arg[0]), _expr(arg[1]), _ARITH[op]
        return lambda d: _arith(_num(left(d)), sym, _num(right(d)))
    if op in _FNS:
        inner, fn = _expr(arg), _FNS[op]
        return lambda d: None if _num(inner(d)) is None else fn(inner(d))
    raise ValueError(f"unknown expression: {e!r}")


def _accumulator(doc):
    op, arg = _one(doc)
    if op == "$count" and arg == {}:
        return agg_count
    make = {"$sum": agg_sum, "$avg": agg_avg, "$min": agg_min, "$max": agg_max}.get(op)
    if make is None:
        raise ValueError(f"unknown accumulator: {op}")
    return make(_ref(arg))


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


def _num(v):
    return v if _kind(v) == "num" else None


def _arith(a, op, b):
    """Null in, null out; division and modulus by zero give null, the
    modulus of an infinite dividend is NaN, and a result that needs a float
    beyond the float range is null."""
    if a is None or b is None:
        return None
    try:
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
        if isinstance(a, float) and math.isinf(a):
            return math.nan
        r = math.fmod(a, b)
        return int(r) if both_int else r
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# Augmented-type match oracle: try every partition of the leftover attributes
# across the placeholders.
# ---------------------------------------------------------------------------

def match_by_enumeration(doc_attrs, named, ones, manys, accepts):
    """Decide Def.-style matching by exhaustive assignment.

    doc_attrs: {name: type_token}
    named:     {name: type_token_or_ANY}
    ones/manys: lists of type tokens (or ANY) for the two placeholder kinds
    accepts(concrete, want) -> bool decides per-attribute compatibility.
    """
    rest = dict(doc_attrs)
    for name, want in named.items():
        if name not in rest or not accepts(rest[name], want):
            return False
        del rest[name]
    slots = [("one", t) for t in ones] + [("many", t) for t in manys]
    names = sorted(rest)
    if not slots:
        return not names
    for assign in product(range(len(slots)), repeat=len(names)):
        used = [0] * len(slots)
        ok = True
        for attr, s in zip(names, assign):
            kind, want = slots[s]
            if not accepts(rest[attr], want):
                ok = False
                break
            used[s] += 1
        if not ok:
            continue
        for (kind, _), n in zip(slots, used):
            if kind == "one" and n != 1:
                ok = False
            if kind == "many" and n < 1:
                ok = False
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Operator spine of a query AST, for tests that check deduction on the spine
# of a known query.
# ---------------------------------------------------------------------------

_SPINE_TAGS = {
    "Project": "project", "Match": "match", "AddFields": "add_fields",
    "Unwind": "unwind", "Group": "group", "Lookup": "lookup",
}


def skeleton(q):
    """The spine of a query: its operator tags, innermost first."""
    ops = []
    while hasattr(q, "source"):
        ops.append(_SPINE_TAGS[type(q).__name__])
        q = q.source
    return tuple(reversed(ops))


# ---------------------------------------------------------------------------
# Predicate enumeration oracle: build every atom, then deduplicate.
# ---------------------------------------------------------------------------

def predicates_by_enumeration(docs, in_type, constants):
    """The predicates the synthesizer enumerates over `docs`, the slow way.

    Every atom of the documented tier order is built, subject to the type
    filter: True, False; Exists per path; SizeEq constant-major over array
    paths; comparisons constant-major, then path, then operator, where a
    non-null constant is compared only with paths of its own kind and null
    only by = and !=. Each atom is evaluated with `eval_pred` on every
    document and the first atom per truth vector is kept. Then come the
    negations of those atoms, then And and Or over every ordered pair of
    kept atoms and negations.
    """
    from docsynth.interp import eval_pred
    from docsynth.lang import FALSE, TRUE, And, Cmp, Exists, Not, Or, SizeEq
    from docsynth.types import ArrayT, DocT, PrimT
    from docsynth.values import kind_of

    typed = []  # (path, type) for every path that does not enter an array

    def walk(prefix, t):
        for name, vt in t.fields:
            typed.append((prefix + (name,), vt))
            if isinstance(vt, DocT):
                walk(prefix + (name,), vt)

    walk((), in_type)
    typed.sort(key=lambda e: e[0])

    atoms = [TRUE, FALSE] + [Exists(h) for h, _ in typed]
    for c in constants:
        if isinstance(c, int) and not isinstance(c, bool) and c >= 0:
            atoms += [SizeEq(h, c) for h, t in typed if isinstance(t, ArrayT)]
    for c in constants:
        for h, t in typed:
            if c is None:
                ops = ("=", "!=")
            elif isinstance(t, PrimT) and t.kind == kind_of(c):
                ops = ("=", "<", "<=", ">", ">=", "!=")
            else:
                continue
            atoms += [Cmp(h, op, c) for op in ops]

    seen, out, reps = set(), [], []

    def keep(p):
        vector = tuple(eval_pred(d, p) for d in docs)
        if vector in seen:
            return False
        seen.add(vector)
        out.append(p)
        return True

    for a in atoms:
        if keep(a):
            reps.append(a)
    for a in list(reps):
        if keep(Not(a)):
            reps.append(Not(a))
    for left in reps:
        for right in reps:
            keep(And(left, right))
            keep(Or(left, right))
    return out
