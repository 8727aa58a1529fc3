"""Independent reference implementations used as test oracles.

Everything in here is deliberately naive and exhaustive. These functions are
written against plain Python data (dicts, lists, None) and never import the
package under test, so they can be used to freeze expected values and to
cross-check the real implementations. The exceptions are `skeleton`, a
test helper that reads a query AST into the package's `Sketch`, and
`predicates_by_enumeration`, which evaluates with the package's `eval_pred`
because it checks the order and deduplication of predicate enumeration, not
the predicate semantics.
"""

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
#   ("group", [key_path, ...], [(name, aggfn)])   aggfn: list[dict] -> value
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
            order = []
            groups = {}
            for d in docs:
                g = extract_attrs(d, keys)
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


# Aggregator helpers for replay stages. Null contributes 0 to sum, is skipped
# by min/max/avg, and an all-null (or empty) group yields None.

def agg_count(members):
    return len(members)


def agg_sum(path):
    def fn(members):
        total = 0
        for d in members:
            v = get_path(d, path)
            if v is _MISSING or v is None or isinstance(v, bool):
                continue
            if isinstance(v, (int, float)):
                total += v
        return total
    return fn


def agg_min(path):
    def fn(members):
        vals = [get_path(d, path) for d in members]
        vals = [v for v in vals if v is not _MISSING and v is not None]
        return min(vals) if vals else None
    return fn


def agg_max(path):
    def fn(members):
        vals = [get_path(d, path) for d in members]
        vals = [v for v in vals if v is not _MISSING and v is not None]
        return max(vals) if vals else None
    return fn


def agg_avg(path):
    def fn(members):
        vals = [get_path(d, path) for d in members]
        vals = [v for v in vals if v is not _MISSING and v is not None]
        if not vals:
            return None
        total = sum(vals)
        if isinstance(total, int) and total % len(vals) == 0:
            return total // len(vals)
        return total / len(vals)
    return fn


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
    """The Sketch of a query: its leaf collection and its operator tags, innermost first."""
    from docsynth.absint import Sketch

    ops = []
    while hasattr(q, "source"):
        ops.append(_SPINE_TAGS[type(q).__name__])
        q = q.source
    return Sketch(q.name, tuple(reversed(ops)))


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
