"""Independent reference implementations used as test oracles.

Everything in here is deliberately naive and exhaustive. These functions are
written against plain Python data (dicts, lists, None) and never import the
package under test, so they can be used to freeze expected values and to
cross-check the real implementations. The one exception is `skeleton`, a
test helper that reads a query AST into the package's `Sketch`.
"""

from itertools import product

# ---------------------------------------------------------------------------
# Size formula oracle: enumerate assignments.
#
# A formula is described as a list of atoms:
#   ("ground", c)          meaning l0 = c
#   (op, j, i)             meaning l_j <op> l_i, op in "=", "<=", ">=", "<"
# A probe is an optional (var, value) pair pinning one extra variable.
# ---------------------------------------------------------------------------

_OPS = {
    "=": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
}


def sat_by_enumeration(atoms, n_vars, probe=None, bound=20):
    """Decide satisfiability over nonnegative integers by exhaustive search.

    Variables are assigned in index order, checking every atom as soon as all
    of its variables are bound, so infeasible prefixes are cut off early. The
    search bound is raised above every constant that occurs plus one level of
    headroom per variable: chains can always shrink toward 0 and only >=
    atoms force growth, one step per atom, so the bounded domain is complete
    for the chain-shaped formulas under test.

    Every relational atom ties a variable to its neighbour, so whether the
    variables from k on can be assigned depends only on k and the value of
    variable k - 1. Pairs (k, previous value) that failed are remembered,
    which keeps the search polynomial in the bound.
    """
    consts = [a[1] for a in atoms if a[0] == "ground"]
    if probe is not None:
        consts.append(probe[1])
    limit = max([bound] + consts) + n_vars + 1

    by_var = {k: [] for k in range(n_vars)}
    for a in atoms:
        if a[0] != "ground" and abs(a[1] - a[2]) != 1:
            raise ValueError(f"atom {a!r} does not tie neighbouring variables")
        top = 0 if a[0] == "ground" else max(a[1], a[2])
        by_var[top].append(a)

    def check(assign, k):
        for a in by_var[k]:
            if a[0] == "ground":
                if assign[0] != a[1]:
                    return False
            else:
                op, j, i = a
                if not _OPS[op](assign[j], assign[i]):
                    return False
        if probe is not None and probe[0] == k and assign[k] != probe[1]:
            return False
        return True

    assign = [0] * n_vars
    failed = set()  # (k, value of variable k - 1) with no satisfying extension

    def go(k):
        if k == n_vars:
            return True
        key = (k, assign[k - 1] if k else None)
        if key in failed:
            return False
        for v in range(limit + 1):
            assign[k] = v
            if check(assign, k) and go(k + 1):
                return True
        failed.add(key)
        return False

    return go(0)


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


def _key_of(v):
    if isinstance(v, dict):
        return ("d", tuple(sorted((k, _key_of(x)) for k, x in v.items())))
    if isinstance(v, list):
        return ("a", tuple(_key_of(x) for x in v))
    if isinstance(v, bool):
        return ("b", v)
    if v is None:
        return ("n",)
    if isinstance(v, (int, float)):
        return ("f", float(v))
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
