"""Sketch-and-complete synthesis of aggregation queries from examples.

The search visits sketches (operator spines) breadth first. Its FIFO
frontier holds visited spines whose children are still to be visited: the
six children of a dequeued spine are built and visited then, so the deepest
spines are never queued. Each visited sketch is first screened by abstract
deduction: the observed output must be a possible instance of some abstract
collection the sketch can produce, both in document type (placeholder
matching) and in collection size (each example's input size folded through
the spine's stage kinds by `sizes.reachable`). Feasible
sketches are handed to an enumerative completer that instantiates arguments
stage by stage, evaluating concretely on every example as it goes and
accepting the first full query that reproduces every output exactly.

Completion carries the size half down to partial programs. Once stage k's
candidate is applied, every example's collection has a concrete size, and
`sizes.reachable` folds it through the operator kinds still to be chosen;
when some example's output size is out of reach, the partial program is
dropped with everything below it, before its collection is typed. Spines
and prefixes read the same per-kind images, those of the interpreter and
the candidate generators (see `sizes`): Unwind may drop documents whose
array is empty or absent, and Group keeps an empty example empty and has no
candidate on a one-document collection. The check only drops partial
programs that have no satisfying completion, so it never changes which
query comes first. `disable_size_abstraction` turns it off with the
spine-level size half, so the ablations measure both.

A Match candidate is applied from its truth vector, which predicate
enumeration already holds over the concatenated documents of all examples.
Each example's slice of the vector gives the child's size by popcount, the
size check runs on those counts, and only a child that passes is built, by
bit selection; no Match runs through `eval_pred` during the search.

Completion also remembers where it failed, by the observed state rather
than by the program that reached it. What `_fill` finds from stage k depends
only on the stage kinds still to choose, on every example's collection
before stage k, and on the fixed facts in `Search`: the stages already
chosen are read only to assemble a success, which ends the search, and a
deadline raises rather than returns. So a call that finds nothing records
the pair (stages left, collections), and a later call with an equal pair
returns nothing at once. Equal states are common, since `Match(True)` or a
Project that keeps every path gives back its input. The key holds the
collections by value: each document is interned by its repr, which keeps 1,
1.0 and True apart and reads the attribute order, and each example keeps its
own tuple of document ints. No digest stands in for a value, so two states
that a generator or the output check could tell apart never share a key.
The memo lives in one `Search` under every ablation setting; it cannot
change the first query found, the sketches visited or the `complete_sketch`
calls, only lower `programsCompleted` and `prefixesPruned`, and
`statesReused` counts its hits.

Enumeration order is load-bearing for reproducibility: candidates are tried
in the documented tier order and the first satisfying query wins, so any
reordering changes which of several observationally equal queries is
returned. The orders are fixed as follows.

  predicates   True, False; Exists per path; SizeEq (constant-major, then
               array path); comparisons constant-major, then path of the
               constant's kind (every path for null, with = and != only),
               then op in (=, <, <=, >, >=, !=); negations of discovered
               class representatives; And then Or over representative
               pairs. Classes are truth vectors over all stage documents.
               Vectors come first: each path is read once into a column,
               one value_cmp per document serves all six operators, and a
               node is built only when its vector is a new class.
  constants    user-supplied, then numeric values in output-encounter
               order, then null, 0, 1; first occurrence kept.
  add fields   target sets ascending by size; per target equal-typed paths,
               then arithmetic (left path, op, right path), then unary math
               functions; per-target dedup by value vector.
  group        key sets descending by size (lexicographic within a size),
               skipping a set that merges no documents of some non-empty
               example, as the size images assume (n >= 1 documents
               group into 1..n - 1);
               aggregate-name sets ascending with the empty set first,
               aggregators Count, Sum, Avg, Min, Max per name, argument
               paths drawn from top-level numeric attributes.
  unwind       array-typed paths, lexicographic.
  lookup       foreign collections in schema order, output array attributes,
               then (local, foreign) path pairs of equal primitive type.

The facts that stay fixed while one task is searched (the examples' inputs
and outputs, output types, the constant pool, the deadline and the
counters) are built once, in `Search`. Deduction's type state lives in one
`absint.AbsEvalContext` per example: the lenient type of its output, the
interned abstract steps taken so far, and a `concretizes` verdict per
abstract document type. `deduce` runs each half unless its ablation flag is
set. The size half folds each example's input size through the spine's
stage kinds to its output size; it never reads Λ, so it is the same with
types off. `refine` prepends the new stage at the leaf, while abstract
evaluation folds from the leaf outward, so a spine's parent for deduction
is `ops[:-1]`, not the spine it was refined from; breadth first, both were
visited earlier, and deduction takes one new abstract step per spine. The
layer functions (`deduce`, `abs_eval`, `concretizes`, `complete_sketch`,
`enumerate_predicates`, `apply_stage`, and `lenient_doc_type`, which
`types` defines and which types each intermediate collection in one call)
are called through this module's globals, because perfbench/tracing.py
rebinds those names to time each layer.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import combinations, product

from .absint import OPERATOR_TAGS, AbsEvalContext, Sketch, abs_eval
from .abstraction import concretizes
from .errors import EvalError, TaskError
from .interp import HOLDS_ON, apply_stage, eval_agg, eval_expr, read_path
from .lang import (
    AddFields, And, Arith, Avg, Cmp, CollectionRef, Count, Exists, FalsePred,
    FnCall, Group, Lookup, MATH_FNS, Match, Max, Min, Not, Or, PathExpr,
    Project, SizeEq, Sum, TruePred, Unwind, ast_size,
)
from .sizes import reachable
from .types import (
    KIND_OF_TYPE, NUM, ArrayT, DocT, conforms, lenient_doc_type, type_of_path, typed_paths,
)
from .values import ABSENT, collection_eq, get_path, kind_of, value_cmp, value_key

_CMP_ORDER = ("=", "<", "<=", ">", ">=", "!=")


@dataclass(frozen=True)
class SynthesisConfig:
    timeout_seconds: float = 300.0
    max_pipeline_depth: int = 6
    max_group_keys: int = 2
    disable_size_abstraction: bool = False
    disable_type_abstraction: bool = False

    def __post_init__(self):
        t = self.timeout_seconds
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not t > 0:  # also NaN
            raise TaskError("timeout_seconds must be a positive number")
        for name in ("max_pipeline_depth", "max_group_keys"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise TaskError(f"{name} must be an integer of at least 1")


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
            if not isinstance(ex.output, list) or not all(isinstance(d, dict) for d in ex.output):
                raise TaskError(f"examples[{i}].output must be a list of documents")
            for name, coll_type in self.schema.items():
                docs = ex.input.get(name)
                if docs is None:
                    # the search reads every schema collection, through Lookup
                    raise TaskError(f"examples[{i}].input: missing collection {name!r}")
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
        self.contexts = [  # one deduction context per example
            AbsEvalContext(task.schema, lenient_doc_type(ex.output), cfg.max_group_keys)
            for ex in task.examples
        ]
        self.inputs = [ex.input for ex in task.examples]
        self.outputs = [ex.output for ex in task.examples]
        self.out_sizes = [len(out) for out in self.outputs]
        self.out_type = lenient_doc_type([d for ex in task.examples for d in ex.output])
        self.pool = constant_pool(task.constants, task.examples)
        self.output_nums = {
            value_key(v)
            for v in _primitive_leaves({"_": task.examples[0].output})
            if kind_of(v) == "num"
        }
        self.sketches = 0
        self.completions = 0
        self.prefixes_pruned = 0
        # completion's failure memo (see _fill). Documents, states and stage
        # suffixes are interned as small ints, and `failed` holds each pair
        # (state, stages left) from which nothing was found. It is a dict,
        # not a set: at a few thousand keys its table is a third the size.
        self.doc_ids = {}     # repr of a document -> int
        self.state_ids = {}   # the document ints of each example -> int
        self.suffix_ids = {}  # the stage kinds still to choose -> int
        self.failed = {}      # (state int, suffix int) -> None
        self.states_reused = 0

    def check_deadline(self):
        if time.monotonic() > self.deadline:
            raise _DeadlineReached()

    def result(self, query, status: str) -> SynthesisResult:
        return SynthesisResult(query, status, {
            "sketchesExplored": self.sketches,
            "programsCompleted": self.completions,
            "prefixesPruned": self.prefixes_pruned,
            "statesReused": self.states_reused,
            "astSize": ast_size(query) if query is not None else 0,
            "elapsedSeconds": time.monotonic() - self.start,
        })


def refine(sk: Sketch):
    """The six sketches wrapping a fresh operator around the leaf."""
    return [Sketch(sk.collection, (tag,) + sk.ops) for tag in OPERATOR_TAGS]


# ---------------------------------------------------------------------------
# Deduction
# ---------------------------------------------------------------------------

def deduce(search: Search, sk: Sketch) -> bool:
    """Whether every example's output can be an instance of some abstract
    collection the spine produces, by the halves the config leaves on."""
    check_size = not search.cfg.disable_size_abstraction
    check_type = not search.cfg.disable_type_abstraction
    for ctx, db, out in zip(search.contexts, search.inputs, search.outputs):
        # the type half's empty-Λ prune comes first; the halves commute, so
        # the order only decides which half a pruned spine is charged to
        if check_type:
            lam = abs_eval(ctx, sk)
            if not lam:
                return False
        if check_size and not reachable(len(db[sk.collection]), sk.ops, len(out)):
            return False
        if check_type:
            for t in lam:
                typed = ctx.typed.get(t)
                if typed is None:
                    typed = ctx.typed[t] = concretizes(out, t, doc_type=ctx.out_type)
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


def enumerate_predicates(docs, paths, constants):
    """Lazily yield one (representative, truth vector) per truth-equivalence class.

    `paths` pairs each path with its type. Bit i of a vector is the
    predicate's truth on docs[i]. Every atom's vector is computed before its
    node, which is built only for a new class. Connectives combine two
    representatives, so no predicate has more than two atoms.
    """
    seen = set()
    reps = []
    for bits, node, args in _atom_vectors(docs, paths, constants):
        if bits not in seen:
            seen.add(bits)
            p = node(*args)
            reps.append((p, bits))
            yield p, bits
    # negations of the representatives discovered so far
    full = (1 << len(docs)) - 1
    for p, v in list(reps):
        nv = full & ~v
        if nv not in seen:
            np = Not(p)
            seen.add(nv)
            reps.append((np, nv))
            yield np, nv
    # And then Or over every ordered pair of representatives
    for lp, lv in reps:
        for rp, rv in reps:
            for build, bv in ((And, lv & rv), (Or, lv | rv)):
                if bv not in seen:
                    seen.add(bv)
                    yield build(lp, rp), bv


def _atom_vectors(docs, paths, constants):
    """Every atom in tier order as (truth vector, node class, node arguments).

    Bit i of a vector is the atom's truth on document i. Each path is read
    once into a column that keeps ABSENT for Exists.
    """
    yield (1 << len(docs)) - 1, TruePred, ()
    yield 0, FalsePred, ()
    columns = [(h, t, [get_path(d, h) for d in docs]) for h, t in paths]
    for h, _, col in columns:
        yield sum(1 << i for i, v in enumerate(col) if v is not ABSENT), Exists, (h,)
    for c in constants:
        if isinstance(c, int) and not isinstance(c, bool) and c >= 0:
            for h, t, col in columns:
                if isinstance(t, ArrayT):
                    sized = (isinstance(v, list) and len(v) == c for v in col)
                    yield sum(1 << i for i, f in enumerate(sized) if f), SizeEq, (h, c)
    # comparisons read an absent path as Null and skip paths of another kind
    compared = [
        (h, KIND_OF_TYPE.get(type(t)), [None if v is ABSENT else v for v in col])
        for h, t, col in columns
    ]
    for c in constants:
        c_kind = kind_of(c)
        ops = ("=", "!=") if c_kind == "null" else _CMP_ORDER
        for h, kind, col in compared:
            if c_kind != "null" and kind != c_kind:
                continue
            # one three-way comparison per document serves every operator
            by_outcome = dict.fromkeys((-1, 0, 1, None), 0)
            for i, v in enumerate(col):
                by_outcome[value_cmp(v, c)] |= 1 << i
            for op in ops:
                # the outcome masks are disjoint, so their sum is their union
                yield sum(by_outcome[o] for o in HOLDS_ON[op]), Cmp, (h, op, c)


# ---------------------------------------------------------------------------
# Per-operator candidate generators. Each yields (operator node, truth vector)
# pairs. A node's source is a dummy reference, which the completer rebinds
# during assembly. The vector is a Match predicate's over the stage's
# documents, bit i for docs[i], and None for the other operators.
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
        yield Project(_HOLE, tuple(paths)), None


def _gen_match(state):
    paths = typed_paths(state.in_type)
    for pred, bits in enumerate_predicates(state.docs, paths, state.search.pool):
        yield Match(_HOLE, pred), bits


def _gen_unwind(state):
    for path, t in typed_paths(state.in_type):
        if isinstance(t, ArrayT):
            yield Unwind(_HOLE, path), None


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


def _expr_candidates(state, paths, target):
    """Type-correct expressions for one new attribute, deduped by values."""
    want = type_of_path(state.search.out_type, target)
    num_paths = [p for p, t in paths if t == NUM]
    seen = {}

    def emit(e):
        vec = tuple(value_key(eval_expr(d, e)) for d in state.docs)
        if vec in seen:
            return None
        seen[vec] = e
        return e

    for p, t in paths:
        if t == want:
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
    paths = typed_paths(state.in_type)
    built = {}  # target -> its expression pool, built on first use

    def pool_of(target):
        if target not in built:
            built[target] = list(_expr_candidates(state, paths, target))
        return built[target]

    for size in range(1, len(targets) + 1):
        for subset in combinations(targets, size):
            pools = [pool_of(t) for t in subset]
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                yield AddFields(_HOLE, subset, combo), None


def _gen_group(state):
    paths = [p for p, _ in typed_paths(state.in_type)]
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
    colls = state.colls
    output_nums = state.search.output_nums

    max_size = min(state.search.cfg.max_group_keys, len(paths))
    for size in range(max_size, 0, -1):
        for keys in combinations(paths, size):
            if len({k[-1] for k in keys}) != size:
                continue  # lang.Group refuses keys that share a last segment
            # grouping must merge something in every non-empty example, as
            # the size images (sizes.reachable) that admitted this spine and
            # prefix assume: n >= 1 documents group into 1..n - 1
            members = [_group_members(coll, keys) for coll in colls]
            if any(coll and len(g) >= len(coll) for coll, g in zip(colls, members)):
                continue
            kept = [a for a in agg_pool if _agg_plausible(a, members[0], output_nums)]
            for nsize in range(0, len(num_out_attrs) + 1):
                for names in combinations(num_out_attrs, nsize):
                    if not names:
                        yield Group(_HOLE, keys, (), ()), None
                        continue
                    if not kept:
                        continue
                    for aggs in product(kept, repeat=len(names)):
                        yield Group(_HOLE, keys, names, aggs), None


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
    in_paths = typed_paths(state.in_type)
    for fname, coll_type in state.search.task.schema.items():
        ftype = coll_type.elem
        for as_attr, ot in state.search.out_type.fields:
            if not isinstance(ot, ArrayT) or ot.elem != ftype:
                continue
            if state.in_type.get(as_attr) is not None:
                continue
            fpaths = typed_paths(ftype)
            for local, lt in in_paths:
                if type(lt) not in KIND_OF_TYPE:
                    continue
                for foreign, ft in fpaths:
                    if ft == lt:
                        yield Lookup(_HOLE, local, foreign, fname, as_attr), None


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
    colls: list           # each example's current documents
    search: Search


# ---------------------------------------------------------------------------
# Completion
# ---------------------------------------------------------------------------

def complete_sketch(search: Search, sk: Sketch):
    # deduction has folded the input sizes through the whole spine already
    colls = [list(db[sk.collection]) for db in search.inputs]
    return _fill(search, sk, [None] * len(sk.ops), 0, colls)


def _out_of_reach(search: Search, sizes, rest) -> bool:
    """Whether some example's size cannot reach its output size through the
    stage kinds `rest`, in which case one pruned prefix is counted.

    A full program (no stage left) is not checked here: it is counted as a
    completion and compared with the outputs.
    """
    if not rest or search.cfg.disable_size_abstraction:
        return False
    if all(reachable(n, rest, m) for n, m in zip(sizes, search.out_sizes)):
        return False
    search.prefixes_pruned += 1
    return True


def _fill(search: Search, sk: Sketch, chosen: list, k: int, colls: list):
    """Choose stages k.. of sk, given every example's collection before stage k.

    The prefix up to stage k has passed the size check, at stage 0 in
    deduction and after that here. Each candidate's
    output sizes are checked against the stages after it before anything
    below it is typed or built. A Match candidate comes with its truth
    vector over the concatenated documents, so its sizes are the popcounts
    of the vector's per-example slices and its output is a bit selection;
    a Match rejected by size is never applied. A call that finds nothing is
    recorded by its stages left and its collections, and a later call equal
    in both returns None before typing anything.
    """
    if k == len(sk.ops):
        search.completions += 1
        if all(collection_eq(c, o) for c, o in zip(colls, search.outputs)):
            return _assemble(sk.collection, chosen)
        return None
    # breadth first, every spine completed earlier is another spine no
    # longer than this one, so no earlier failure had all of this spine's
    # stages left: the input state (k = 0) is never in the memo, and its key
    # is built only to record a failure
    key = _memo_key(search, sk.ops[k:], colls) if k else None
    if key in search.failed:
        search.states_reused += 1
        return None
    docs = [d for c in colls for d in c]
    state = _StageState(docs, lenient_doc_type(docs), colls, search)
    rest = sk.ops[k + 1:]
    for cand, bits in _GENERATORS[sk.ops[k]](state):
        search.check_deadline()
        if bits is None:
            try:
                nxt = [apply_stage(db, coll, cand) for db, coll in zip(search.inputs, colls)]
            except EvalError:
                continue
            if _out_of_reach(search, [len(c) for c in nxt], rest):
                continue
        else:
            slices = _split_bits(bits, colls)
            sizes = [b.bit_count() for b in slices]
            if _out_of_reach(search, sizes, rest):
                continue
            if not rest and sizes != search.out_sizes:
                search.completions += 1  # a full program that cannot equal the outputs
                continue
            nxt = [_select(coll, b) for coll, b in zip(colls, slices)]
        chosen[k] = cand
        got = _fill(search, sk, chosen, k + 1, nxt)
        if got is not None:
            return got
    if key is None:
        key = _memo_key(search, sk.ops, colls)
    search.failed[key] = None
    return None


def _memo_key(search: Search, ops_left: tuple, colls: list) -> tuple:
    """The failure memo's key for choosing `ops_left` from every example's
    collection `colls`.

    A document is interned by its repr, which keeps apart every two values
    that a candidate generator or the output check can tell apart (1, 1.0
    and True; attribute orders; an integer beyond 2**53 and its float), and
    some they cannot (-0.0 and 0), which only costs a missed hit. Only NaNs
    share a repr, and nothing in the search tells one NaN from another. The
    state is the tuple of each example's document ints, so example
    boundaries count too.
    """
    docs = search.doc_ids
    state = tuple(tuple(docs.setdefault(repr(d), len(docs)) for d in c) for c in colls)
    return (search.state_ids.setdefault(state, len(search.state_ids)),
            search.suffix_ids.setdefault(ops_left, len(search.suffix_ids)))


def _split_bits(bits: int, colls: list) -> list:
    """A vector over the concatenated collections, cut into one per collection."""
    out = []
    for coll in colls:
        n = len(coll)
        out.append(bits & ((1 << n) - 1))
        bits >>= n
    return out


def _select(docs: list, bits: int) -> list:
    """The documents whose bit is set, in order."""
    # bin() reads the most significant bit first; reversed, bit i is at i
    return [d for d, b in zip(docs, bin(bits)[:1:-1]) if b == "1"]


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
