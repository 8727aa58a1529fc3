"""Sketch-and-complete synthesis of aggregation queries from examples.

The search visits sketches (operator spines) breadth first. Its FIFO
frontier holds visited spines whose children are still to be visited: the
six children of a dequeued spine are built and visited then, so the deepest
spines are never queued. Each visited sketch is first screened by abstract
deduction: the observed output must be a possible instance of some abstract
collection the sketch can produce, both in document type (placeholder
matching) and in collection size (chain formula satisfiability). Feasible
sketches are handed to an enumerative completer that instantiates arguments
stage by stage, evaluating concretely on every example as it goes and
accepting the first full query that reproduces every output exactly.

Enumeration order is load-bearing for reproducibility: candidates are tried
in the documented tier order and the first satisfying query wins, so any
reordering changes which of several observationally equal queries is
returned. The orders are fixed as follows.

  predicates   True, False; Exists per path; SizeEq (constant-major, then
               path); comparisons constant-major, then path, then op in
               (=, <, <=, >, >=, !=); negations of discovered class
               representatives; And then Or over representative pairs.
               Classes are truth vectors over all stage documents.
  constants    user-supplied, then numeric values in output-encounter
               order, then null, 0, 1; first occurrence kept.
  add fields   target sets ascending by size; per target equal-typed paths,
               then arithmetic (left path, op, right path), then unary math
               functions; per-target dedup by value vector.
  group        key sets descending by size (lexicographic within a size),
               aggregate-name sets ascending with the empty set first,
               aggregators Count, Sum, Avg, Min, Max per name, argument
               paths drawn from top-level numeric attributes.
  unwind       array-typed paths, lexicographic.
  lookup       foreign collections in schema order, output array attributes,
               then (local, foreign) path pairs of equal primitive type.

The facts that stay fixed while one task is searched (abstract databases,
output types, the constant pool, the deadline and the counters) are built
once, in `Search`, and so are the memos of deduction: per example, an
`absint.AbsEvalContext` that holds the Λ of every spine evaluated so far, and
the two halves of the `concretizes` verdict, the size check per formula and
the type check per document type. `refine`
prepends the new stage at the leaf, while abstract evaluation folds from the
leaf outward, so a spine's parent for deduction is `ops[:-1]`, not the spine
it was refined from; breadth first, both were visited earlier, and deduction
takes one abstract step per spine. The layer functions (`deduce`,
`abs_eval`, `concretizes`, `complete_sketch`, `enumerate_predicates`,
`lenient_doc_type`, `apply_stage`) are called through this module's globals,
because perfbench/tracing.py rebinds those names to time each layer.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import combinations, product

from .absint import OPERATOR_TAGS, AbsEvalContext, Sketch, abs_eval, sketch_formula
from .abstraction import abstract_db_of, concretizes
from .errors import EvalError, TaskError
from .interp import apply_stage, compare, eval_agg, eval_expr, eval_pred, read_path
from .lang import (
    AddFields, And, Arith, Avg, Cmp, CollectionRef, Count, Exists, FALSE,
    FnCall, Group, Lookup, MATH_FNS, Match, Max, Min, Not, Or, PathExpr,
    Project, SizeEq, Sum, TRUE, Unwind, ast_size,
)
from .sizes import is_sat
from .types import ArrayT, DocT, NUM, conforms, doc_paths, infer_value_type, type_of_path
from .values import collection_eq, kind_of, value_key

_CMP_ORDER = ("=", "<", "<=", ">", ">=", "!=")


@dataclass(frozen=True)
class SynthesisConfig:
    timeout_seconds: float = 300.0
    max_pipeline_depth: int = 6
    max_group_keys: int = 2
    disable_size_abstraction: bool = False
    disable_type_abstraction: bool = False

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise TaskError("timeout_seconds must be positive")
        for name in ("max_pipeline_depth", "max_group_keys"):
            if getattr(self, name) < 1:
                raise TaskError(f"{name} must be at least 1")


@dataclass(frozen=True)
class Example:
    input: dict
    output: list


@dataclass(frozen=True)
class SynthesisTask:
    schema: dict
    collection: str
    examples: tuple
    constants: tuple = ()

    def __post_init__(self):
        if not self.examples:
            raise TaskError("at least one example is required")
        if self.collection not in self.schema:
            raise TaskError(f"collection {self.collection!r} not in schema")
        for i, ex in enumerate(self.examples):
            for name, coll_type in self.schema.items():
                docs = ex.input.get(name, [])
                if not conforms(docs, coll_type):
                    raise TaskError(f"examples[{i}].input[{name!r}] does not conform to the schema")


@dataclass
class SynthesisResult:
    query: object
    status: str  # success | timeout | exhausted
    stats: dict = field(default_factory=dict)


class _DeadlineReached(Exception):
    pass


class Search:
    """What stays fixed while one task's spines are searched, plus its counters."""

    def __init__(self, task: SynthesisTask, cfg: SynthesisConfig):
        self.task = task
        self.cfg = cfg
        self.start = time.monotonic()
        self.deadline = self.start + cfg.timeout_seconds
        # per example: abstract evaluation context, lenient output type,
        # output documents, concretizes verdicts per formula and per type
        self.per_example = []
        for ex in task.examples:
            adb = abstract_db_of(ex.input, task.schema)
            out_type = lenient_doc_type(ex.output)
            ctx = AbsEvalContext(adb, out_type, cfg.max_group_keys)
            self.per_example.append((ctx, out_type, ex.output, ({}, {})))
        self.inputs = [ex.input for ex in task.examples]
        self.outputs = [ex.output for ex in task.examples]
        self.out_type = lenient_doc_type([d for ex in task.examples for d in ex.output])
        self.pool = constant_pool(task.constants, task.examples)
        self.output_nums = {
            value_key(v)
            for v in _primitive_leaves({"_": task.examples[0].output})
            if kind_of(v) == "num"
        }
        self.sketches = 0
        self.completions = 0

    def check_deadline(self):
        if time.monotonic() > self.deadline:
            raise _DeadlineReached()

    def result(self, query, status: str) -> SynthesisResult:
        return SynthesisResult(query, status, {
            "sketchesExplored": self.sketches,
            "programsCompleted": self.completions,
            "astSize": ast_size(query) if query is not None else 0,
            "elapsedSeconds": time.monotonic() - self.start,
        })


def refine(sk: Sketch):
    """The six sketches wrapping a fresh operator around the leaf."""
    return [Sketch(sk.collection, (tag,) + sk.ops) for tag in OPERATOR_TAGS]


# ---------------------------------------------------------------------------
# Lenient typing of intermediate collections.
#
# Candidate enumeration only needs paths and rough types; attributes whose
# values disagree in kind (or that are only ever null / empty arrays) are
# silently dropped rather than failing the whole stage. Any imprecision is
# harmless because every candidate query is verified exactly.
# ---------------------------------------------------------------------------

def lenient_doc_type(docs):
    attrs = {}  # name -> list of non-absent values
    order = []
    for d in docs:
        for name, v in d.items():
            if name not in attrs:
                attrs[name] = []
                order.append(name)
            attrs[name].append(v)
    fields = []
    for name in order:
        t = _lenient_value_type(attrs[name])
        if t is not None:
            fields.append((name, t))
    return DocT(fields)


def _lenient_value_type(values):
    kinds = {kind_of(v) for v in values if v is not None}
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind == "doc":
        return lenient_doc_type([v for v in values if v is not None])
    if kind == "array":
        elems = [e for v in values if v is not None for e in v]
        if not elems:
            return None
        try:
            inner = infer_value_type(elems[0])
        except Exception:
            inner = None
        for e in elems:
            try:
                if infer_value_type(e) != inner:
                    return None
            except Exception:
                return None
        return ArrayT(inner) if inner is not None else None
    try:
        return infer_value_type(values[0])
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Deduction
# ---------------------------------------------------------------------------

def deduce(search: Search, sk: Sketch) -> bool:
    cfg = search.cfg
    if cfg.disable_size_abstraction and cfg.disable_type_abstraction:
        return True
    if cfg.disable_type_abstraction:
        # size reasoning alone: the chain formula is determined by the spine
        for ctx, _, out_docs, _ in search.per_example:
            f = sketch_formula(sk, ctx.adb[sk.collection].formula)
            if not is_sat(f, probe=len(out_docs)):
                return False
        return True
    check_size = not cfg.disable_size_abstraction
    for ctx, out_type, out_docs, (by_formula, by_type) in search.per_example:
        lam = abs_eval(ctx, sk)
        if not lam:
            return False
        # Every collection in Λ has the spine's formula, and concretizes is
        # its size check and then its type check, so each half is memoized
        # on its own: the size verdict per formula (ctx interns one per
        # collection and atom sequence, so its id names it), the type
        # verdict per document type.
        key = id(lam[0].formula)
        sized = by_formula.get(key)
        if sized is None:
            sized = by_formula[key] = concretizes(
                out_docs, lam[0], check_type=False, check_size=check_size,
            )
        if not sized:
            return False
        for ac in lam:
            typed = by_type.get(ac.doc_type)
            if typed is None:
                typed = by_type[ac.doc_type] = concretizes(
                    out_docs, ac, doc_type=out_type if out_docs else None, check_size=False,
                )
            if typed:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Predicate enumeration
# ---------------------------------------------------------------------------

def constant_pool(constants, examples):
    pool = []
    seen = set()

    def add(v):
        k = (kind_of(v), value_key(v))
        if k not in seen:
            seen.add(k)
            pool.append(v)

    for c in constants:
        add(c)
    # numeric output values are hints; string and other literals must be
    # supplied by the user
    for ex in examples:
        for doc in ex.output:
            for v in _primitive_leaves(doc):
                if kind_of(v) == "num":
                    add(v)
    for extra in (None, 0, 1):
        add(extra)
    return pool


def _primitive_leaves(v):
    kind = kind_of(v)
    if kind == "doc":
        for child in v.values():
            yield from _primitive_leaves(child)
    elif kind == "array":
        for child in v:
            yield from _primitive_leaves(child)
    elif kind != "null":
        yield v


def enumerate_predicates(docs, paths, constants, in_type=None):
    """Lazily yield one representative per truth-equivalence class.

    Connectives combine two representatives, so no predicate has more than
    two atoms.
    """
    seen = {}
    reps = []
    columns = {}  # path -> its value in every document, read on first use

    def vector(p):
        bits = 0
        if isinstance(p, Cmp):
            col = columns.get(p.path)
            if col is None:
                col = columns[p.path] = [read_path(d, p.path) for d in docs]
            op, c = p.op, p.value
            for v in col:
                bits = (bits << 1) | (1 if compare(v, op, c) else 0)
            return bits
        for d in docs:
            bits = (bits << 1) | (1 if eval_pred(d, p) else 0)
        return bits

    def emit(p):
        v = vector(p)
        if v in seen:
            return None
        seen[v] = p
        reps.append((p, v))
        return p

    for atom in _atom_order(paths, constants, in_type):
        p = emit(atom)
        if p is not None:
            yield p
    # negations of the representatives discovered so far
    full = (1 << len(docs)) - 1
    for p, v in list(reps):
        nv = full & ~v
        if nv not in seen:
            np = Not(p)
            seen[nv] = np
            reps.append((np, nv))
            yield np
    # And then Or over every ordered pair of representatives
    for lp, lv in reps:
        for rp, rv in reps:
            for build, bv in ((And, lv & rv), (Or, lv | rv)):
                if bv not in seen:
                    p = build(lp, rp)
                    seen[bv] = p
                    yield p


def _atom_order(paths, constants, in_type):
    yield TRUE
    yield FALSE
    for h in paths:
        yield Exists(h)
    array_paths = [
        h for h in paths
        if in_type is None or isinstance(type_of_path(in_type, h), ArrayT)
    ]
    for c in constants:
        if isinstance(c, int) and not isinstance(c, bool) and c >= 0:
            for h in array_paths:
                yield SizeEq(h, c)
    for c in constants:
        c_kind = kind_of(c)
        for h in paths:
            if in_type is not None:
                t = type_of_path(in_type, h)
                if c_kind != "null" and _KIND_OF_TYPE.get(type(t).__name__) != c_kind:
                    continue
            ops = ("=", "!=") if c_kind == "null" else _CMP_ORDER
            for op in ops:
                yield Cmp(h, op, c)


_KIND_OF_TYPE = {
    "NumT": "num", "StringT": "str", "BoolT": "bool",
    "DatetimeT": "datetime", "ObjectIdT": "objectid",
}


# ---------------------------------------------------------------------------
# Per-operator candidate generators. Each yields operator nodes whose source
# is a dummy reference; the completer rebinds sources during assembly.
# ---------------------------------------------------------------------------

_HOLE = CollectionRef("_")


def _common_paths(tin: DocT, tout: DocT, prefix=()):
    out = []
    for name, ot in tout.fields:
        it = tin.get(name)
        if it is None:
            continue
        path = prefix + (name,)
        if it == ot:
            out.append(path)
        elif isinstance(it, DocT) and isinstance(ot, DocT):
            out.extend(_common_paths(it, ot, path))
    return sorted(out)


def _gen_project(state):
    paths = _common_paths(state.in_type, state.search.out_type)
    if paths:
        yield Project(_HOLE, tuple(paths))


def _gen_match(state):
    paths = doc_paths(state.in_type)
    for pred in enumerate_predicates(state.docs, paths, state.search.pool, state.in_type):
        yield Match(_HOLE, pred)


def _gen_unwind(state):
    for path in doc_paths(state.in_type):
        if isinstance(type_of_path(state.in_type, path), ArrayT):
            yield Unwind(_HOLE, path)


def _absent_targets(tin: DocT, tout: DocT, prefix=()):
    out = []
    for name, ot in tout.fields:
        path = prefix + (name,)
        it = tin.get(name)
        if it is None:
            out.append(path)
        elif isinstance(it, DocT) and isinstance(ot, DocT):
            out.extend(_absent_targets(it, ot, path))
    return sorted(out)


def _expr_candidates(state, target):
    """Type-correct expressions for one new attribute, deduped by values."""
    want = type_of_path(state.search.out_type, target)
    num_paths = [p for p in doc_paths(state.in_type) if type_of_path(state.in_type, p) == NUM]
    seen = {}

    def emit(e):
        vec = tuple(value_key(eval_expr(d, e)) for d in state.docs)
        if vec in seen:
            return None
        seen[vec] = e
        return e

    for p in doc_paths(state.in_type):
        if type_of_path(state.in_type, p) == want:
            e = emit(PathExpr(p))
            if e is not None:
                yield e
    if want == NUM:
        for p1 in num_paths:
            for op in ("+", "-", "*", "/", "%"):
                for p2 in num_paths:
                    e = emit(Arith(p1, op, p2))
                    if e is not None:
                        yield e
        for fn in MATH_FNS:
            for p in num_paths:
                e = emit(FnCall(fn, p))
                if e is not None:
                    yield e


def _gen_add_fields(state):
    targets = _absent_targets(state.in_type, state.search.out_type)
    built = {}  # target -> its expression pool, built on first use

    def pool_of(target):
        if target not in built:
            built[target] = list(_expr_candidates(state, target))
        return built[target]

    for size in range(1, len(targets) + 1):
        for subset in combinations(targets, size):
            pools = [pool_of(t) for t in subset]
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                yield AddFields(_HOLE, subset, combo)


def _gen_group(state):
    paths = doc_paths(state.in_type)
    if not paths:
        return
    num_out_attrs = [
        name for name, t in state.search.out_type.fields if t == NUM and name != "_id"
    ]
    # accumulator arguments range over top-level numeric attributes only,
    # matching the top-level rule Unwind already follows
    num_paths = [(name,) for name, t in state.in_type.fields if t == NUM]
    agg_pool = [Count()]
    agg_pool += [make(p) for make in (Sum, Avg, Min, Max) for p in num_paths]
    first_docs = state.first_docs
    output_nums = state.search.output_nums

    max_size = min(state.search.cfg.max_group_keys, len(paths))
    for size in range(max_size, 0, -1):
        for keys in combinations(paths, size):
            if len({k[-1] for k in keys}) != size:
                continue
            groups = _group_members(first_docs, keys)
            if first_docs and len(groups) >= len(first_docs):
                continue
            kept = [
                a for a in agg_pool
                if _agg_plausible(a, groups, output_nums)
            ]
            for nsize in range(0, len(num_out_attrs) + 1):
                for names in combinations(num_out_attrs, nsize):
                    if not names:
                        yield Group(_HOLE, keys, (), ())
                        continue
                    if not kept:
                        continue
                    for aggs in product(kept, repeat=len(names)):
                        yield Group(_HOLE, keys, names, aggs)


def _group_members(docs, keys):
    groups = {}
    for d in docs:
        gk = tuple(value_key(read_path(d, k)) for k in keys)
        groups.setdefault(gk, []).append(d)
    return list(groups.values())


def _agg_plausible(agg, groups, output_nums):
    """Keep an accumulator only if one of its group values shows up in the output."""
    if not groups:
        return True
    for members in groups:
        v = eval_agg(members, agg)
        if v is not None and kind_of(v) == "num" and value_key(v) in output_nums:
            return True
    return False


def _gen_lookup(state):
    in_paths = doc_paths(state.in_type)
    for fname, coll_type in state.search.task.schema.items():
        ftype = coll_type.elem
        for as_attr, ot in state.search.out_type.fields:
            if not isinstance(ot, ArrayT) or ot.elem != ftype:
                continue
            if state.in_type.get(as_attr) is not None:
                continue
            fpaths = doc_paths(ftype)
            for local in in_paths:
                lt = type_of_path(state.in_type, local)
                if type(lt).__name__ not in _KIND_OF_TYPE:
                    continue
                for foreign in fpaths:
                    if type_of_path(ftype, foreign) == lt:
                        yield Lookup(_HOLE, local, foreign, fname, as_attr)


_GENERATORS = {
    "project": _gen_project,
    "match": _gen_match,
    "add_fields": _gen_add_fields,
    "unwind": _gen_unwind,
    "group": _gen_group,
    "lookup": _gen_lookup,
}


@dataclass
class _StageState:
    docs: list            # all current documents across examples, in order
    in_type: DocT
    first_docs: list      # first example's current documents
    search: Search


# ---------------------------------------------------------------------------
# Completion
# ---------------------------------------------------------------------------

def complete_sketch(search: Search, sk: Sketch):
    colls = [list(db.get(sk.collection, [])) for db in search.inputs]
    return _fill(search, sk, [None] * len(sk.ops), 0, colls)


def _fill(search: Search, sk: Sketch, chosen: list, k: int, colls: list):
    """Choose stages k.. of sk, given every example's collection before stage k."""
    if k == len(sk.ops):
        search.completions += 1
        if all(collection_eq(c, o) for c, o in zip(colls, search.outputs)):
            return _assemble(sk.collection, chosen)
        return None
    docs = [d for c in colls for d in c]
    state = _StageState(docs, lenient_doc_type(docs), colls[0], search)
    for cand in _GENERATORS[sk.ops[k]](state):
        search.check_deadline()
        try:
            nxt = [apply_stage(db, coll, cand) for db, coll in zip(search.inputs, colls)]
        except EvalError:
            continue
        if isinstance(cand, Group) and any(
            coll and len(new) >= len(coll) for coll, new in zip(colls, nxt)
        ):
            # grouping must merge something; the size reasoning that
            # admitted this spine assumed a strict decrease per stage
            continue
        chosen[k] = cand
        got = _fill(search, sk, chosen, k + 1, nxt)
        if got is not None:
            return got
    return None


def _assemble(collection, stage_nodes):
    q = CollectionRef(collection)
    for node in stage_nodes:
        q = replace(node, source=q)
    return q


# ---------------------------------------------------------------------------
# The worklist loop
# ---------------------------------------------------------------------------

def synthesize(task: SynthesisTask, cfg: SynthesisConfig = None, trace=None) -> SynthesisResult:
    search = Search(task, cfg or SynthesisConfig())
    frontier = deque()  # visited spines whose children are not yet visited
    batch = [Sketch(task.collection, ())]
    try:
        while True:
            for sk in batch:
                search.check_deadline()
                search.sketches += 1
                feasible = deduce(search, sk)
                if trace is not None:
                    trace(sk, feasible)
                if feasible:
                    q = complete_sketch(search, sk)
                    if q is not None:
                        return search.result(q, "success")
                if sk.depth < search.cfg.max_pipeline_depth:
                    frontier.append(sk)
            if not frontier:
                return search.result(None, "exhausted")
            batch = refine(frontier.popleft())
    except _DeadlineReached:
        return search.result(None, "timeout")
