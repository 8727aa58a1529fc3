"""Sketch-and-complete synthesis of aggregation queries from examples.

The search visits sketches (operator spines) breadth first. A spine is its
tuple of stage kinds, innermost first, over the task's one input collection.
Its FIFO frontier holds visited spines whose children are still to be
visited: the six children of a dequeued spine are built and visited then,
so the deepest spines are never queued. Each visited sketch is first
screened by abstract deduction: the observed output must be a possible
instance of some abstract collection the sketch can produce, both in
document type (placeholder matching) and in collection size (each
example's input size folded through the spine's stage kinds by
`sizes.reachable`). Feasible sketches are handed to an enumerative
completer that instantiates arguments stage by stage, evaluating
concretely on every example as it goes and accepting the first full query
that reproduces every output exactly.

Completion carries the size half down to partial programs, by one rule: a
candidate's sizes are checked before its children are built or typed
(`Search.fits`). Before the last stage, `sizes.reachable` folds every
example's size through the kinds still to be chosen, and a miss drops the
partial program and everything below it as one pruned prefix; at the last
stage the sizes must equal the output sizes, and a miss counts one
completion. No candidate is built to be sized. A Match is sized by the
popcounts of its truth vector's per-example slices and built by bit
selection, so none runs through `eval_pred`; a Group is sized by its key
set's partition, and its rows are built from that partition
(`interp.group_rows`); Project, AddFields and Lookup keep one document per
document, and an Unwind makes one per element of the arrays at its path.
Those four are run by `apply_stage` only once their sizes fit. Spines and
prefixes read the same per-kind images (see
`sizes`): Unwind may drop documents whose array is empty or absent, and
Group keeps an empty example empty and has no candidate on a one-document
collection. The check only drops partial programs that have no satisfying
completion, so it never changes which query comes first.
`disable_size_abstraction` turns off the prefix check with the spine-level
size half, so the ablations measure both.

Completion works on interned states. A state is every example's
collection before some stage; the input is state 0, where every spine
starts. Each document is interned by its repr, which keeps 1, 1.0 and True
apart and reads the attribute order, and each example keeps its own tuple
of document ints; no digest stands in for a value, so two states that a
generator or the output check could tell apart are never one state. The
input's documents are repr'd only when another state is interned, so a
search whose answer is one stage deep never reads them. A state gets its
lenient type once, and equal types are shared. Per stage kind it gets a
candidate table: the kind's candidates on that state, in enumeration
order, which do not depend on the stages after it. The kind's generator
fills the table lazily, once per search, from the first time any spine
reaches the (state, kind) pair. A reader takes entry i from the table if
it is there, and else has the generator make it; so every reader replays
the table from the start under its own suffix and applies the size rule
itself, and it sees the candidates, and charges the counters, exactly as a
fresh run of the generator would. A nested reader of the same table, on a
child equal to its parent (a `Match(True)`, or a Project that keeps every
path), is no different. Every entry holds sizes that are read without
building anything. A Match is its predicate and truth vector. A Group key
set holds its sizes and aggregators, and its (names, aggregators) variants
are enumerated only when the sizes fit; a miss charges every variant at
once. Its partitions go only to the reader that made the entry: a replay
whose sizes fit partitions again. The other kinds hold their node and
sizes. Every reader builds a candidate's children on one path, after its
sizes fit, and a candidate that fits keeps the id of its interned child,
so a replay neither builds nor interns it again. The last stage's children
are compared with the outputs and never interned.

A state also keeps its Match origin, the parent state and truth vector of
the Match that made it (None if another kind made it first), and, once it
has a Match table, its atom classes: a table of (vector, predicate), the
first atom of each vector, filled lazily as its readers go, as a candidate
table is. A Match child whose lenient type is its parent's shared type
inherits them (`_atom_table`): its documents are the parent's at the
vector's set bits, every atom is a function of one document, and the typed
paths and the constant pool are the parent's, so its classes are the
parent's with each vector compressed to those bits, the first of each
compressed vector kept, and it shares the parent's predicates. Any other
state reads its documents' columns. The Match table's
`enumerate_predicates` reads the atom table, so that work runs inside its
steps, and builds the negations and connectives from the child's
representatives as before.

Completion also remembers where it failed, by the state rather than by the
program that reached it. What `_fill` finds from stage k depends only on
the stage kinds still to choose, on the state before stage k, and on the
fixed facts in `Search`: the stages already chosen are read only to
assemble a success, which ends the search, and a deadline raises rather
than returns. So a call that finds nothing records the key (state id,
stages left), and a later call with an equal key returns nothing at once;
every call checks and records its key the same way. The memo and the
tables live in one `Search` under every ablation setting. They cannot
change the first query found, the sketches visited or the `complete_sketch`
calls. The tables change no counter; the memo only lowers
`programsCompleted` and `prefixesPruned`, and `statesReused` counts its
hits. `synthesize` drops the tables when it returns, since an unfinished
one holds a generator that refers to the search.

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
               node is built only when its vector is a new class. A state
               keeps its atom classes; a Match child typed as its parent
               compresses the parent's instead of reading any column, which
               gives the same classes in the same order.
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
and outputs and their sizes, output types, the constant pool, the deadline
and the counters) are built once, in `Search`. Deduction's type state lives
in one `absint.AbsEvalContext` per example: the lenient type of its output,
the interned abstract steps taken so far, and a `concretizes` verdict per
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
from itertools import combinations, product, repeat
from operator import itemgetter

from .absint import OPERATOR_TAGS, AbsEvalContext, abs_eval
from .abstraction import concretizes
from .errors import TaskError
from .interp import HOLDS_ON, apply_stage, eval_agg, eval_expr, group_by, group_rows
from .lang import (
    AGGREGATORS, ARITH_OPS, AddFields, And, Arith, Cmp, CollectionRef, Count,
    Exists, FalsePred, FnCall, Group, Lookup, MATH_FNS, Match, Not, Or,
    PathExpr, Project, SizeEq, TruePred, Unwind, ast_size, keys_share_a_name,
)
from .sizes import reachable
from .types import NUM, ArrayT, DocT, PrimT, lenient_doc_type, type_of_path, typed_paths
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


@dataclass
class SynthesisResult:
    query: object
    status: str  # success | timeout | exhausted
    stats: dict = field(default_factory=dict)


class _DeadlineReached(Exception):
    pass


class Search:
    """What stays fixed while one task's spines are searched, plus its counters."""

    def __init__(self, task, cfg: SynthesisConfig):
        self.task = task
        self.cfg = cfg
        self.start = time.monotonic()
        self.deadline = self.start + cfg.timeout_seconds
        out_types = [lenient_doc_type(ex.output) for ex in task.examples]
        self.contexts = [  # one deduction context per example
            AbsEvalContext(task.schema, task.collection, t, cfg.max_group_keys) for t in out_types
        ]
        self.inputs = [ex.input for ex in task.examples]
        self.outputs = [ex.output for ex in task.examples]
        self.out_sizes = tuple(map(len, self.outputs))
        # the type of every output together; one example's is typed already
        self.out_type = out_types[0] if len(out_types) == 1 else lenient_doc_type(
            [d for out in self.outputs for d in out])
        self.pool = constant_pool(task.constants, task.examples)
        self.output_nums = {
            value_key(v)
            for v in _primitive_leaves({"_": task.examples[0].output})
            if kind_of(v) == "num"
        }
        # the names a Group may give its aggregates: the output's numeric ones
        self.group_names = [name for name, t in self.out_type.fields if t == NUM and name != "_id"]
        self.sketches = 0
        self.completions = 0
        self.prefixes_pruned = 0
        # completion's states, candidate tables and failure memo (see the
        # module docstring). State 0 is the input; `_intern` keys it on its
        # first call. `failed` is a dict, not a set: at a few thousand keys
        # its table is a third the size.
        self.doc_ids = {}    # repr of a document -> int
        self.state_ids = {}  # the document ints of each example -> int
        self.states = [_State(0, [db[task.collection] for db in self.inputs])]
        self.tables = {}     # (state int, stage kind) -> _Table
        self.types = {}      # each state type, shared among equal ones
        self.failed = {}     # (state int, stage kinds left) that found nothing -> None
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

    def fits(self, sizes: tuple, rest: tuple, n: int = 1) -> bool:
        """Whether children of these sizes, one per example, can still give
        the outputs through the stage kinds `rest`. A miss counts `n`
        completions at the last stage, where the sizes must be the
        outputs', and `n` pruned prefixes before it: `n` candidates share
        the sizes."""
        self.check_deadline()
        if not rest:
            if sizes == self.out_sizes:
                return True
            self.completions += n
        elif self.cfg.disable_size_abstraction or all(
                reachable(s, rest, m) for s, m in zip(sizes, self.out_sizes)):
            return True
        else:
            self.prefixes_pruned += n
        return False


def refine(ops: tuple):
    """The six spines wrapping a fresh operator around the leaf."""
    return [(tag,) + ops for tag in OPERATOR_TAGS]


# ---------------------------------------------------------------------------
# Deduction
# ---------------------------------------------------------------------------

def deduce(search: Search, ops: tuple) -> bool:
    """Whether every example's output can be an instance of some abstract
    collection the spine `ops` produces, by the halves the config leaves on."""
    check_size = not search.cfg.disable_size_abstraction
    check_type = not search.cfg.disable_type_abstraction
    for ctx, n, m, out in zip(search.contexts, search.states[0].sizes, search.out_sizes,
                              search.outputs):
        # the type half's empty-Λ prune comes first; the halves commute, so
        # the order only decides which half a pruned spine is charged to
        if check_type:
            lam = abs_eval(ctx, ops)
            if not lam:
                return False
        if check_size and not reachable(n, ops, m):
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


def enumerate_predicates(docs, paths, constants, atoms=None):
    """Lazily yield one (representative, truth vector) per truth-equivalence class.

    `paths` pairs each path with its type. Bit i of a vector is the
    predicate's truth on docs[i]. `atoms`, when given, is the stream of
    atom classes of these documents, paths and constants (a state's atom
    table, see `_atom_table`); else they are made here (`_atom_classes`).
    Connectives combine two representatives, so no predicate has more than
    two atoms.
    """
    if atoms is None:
        atoms = _atom_classes(docs, paths, constants)
    reps = []
    for bits, p in atoms:
        reps.append((p, bits))
        yield p, bits
    seen = {v for _, v in reps}
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


def _atom_classes(docs, paths, constants):
    """The first atom of each truth vector in tier order, as (vector,
    predicate). Every atom's vector is computed before its node, which is
    built only for a new class."""
    seen = set()
    for bits, node, args in _atom_vectors(docs, paths, constants):
        if bits not in seen:
            seen.add(bits)
            yield bits, node(*args)


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
        (h, t.kind if isinstance(t, PrimT) else None, [None if v is ABSENT else v for v in col])
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
# Candidate tables. A state's table for one stage kind lists that kind's
# candidates on the state in enumeration order, whatever the stages after
# it, so each generator below runs once per (state, kind) in a search. Each
# yields (entry, made): the entry holds what the size rule reads, with no
# candidate built, and goes into the table, while `made` is what the
# generator built on the way, which only the reader that made the entry
# sees: a Group key set's partitions, else None. The entries:
#
#   match                              (predicate, truth vector)
#   group                              (keys, sizes, kept aggregators)
#   project, add_fields, unwind, lookup  (node, sizes)
#
# A node's source is a dummy reference, which the completer rebinds during
# assembly.
# ---------------------------------------------------------------------------

_HOLE = CollectionRef("_")


class _State:
    """An interned state: every example's collection before some stage, its
    sizes, its lenient type, None until a table on it is made, its atom
    classes, None until its Match table is made (`_atom_table`), and its
    Match origin: the (parent state, truth vector) of the Match that made
    it, or None if another kind did."""

    __slots__ = ("id", "colls", "sizes", "in_type", "atoms", "origin")

    def __init__(self, sid: int, colls: list, origin=None):
        self.id = sid
        self.colls = colls
        self.sizes = tuple(map(len, colls))
        self.in_type = None
        self.atoms = None
        self.origin = origin

    @property
    def docs(self) -> list:
        """All current documents across examples, in order."""
        return [d for c in self.colls for d in c]


class _Table(list):
    """One kind's candidates on one state: the list of entries made so far,
    the generator that makes the rest (None once drained), and `kids`,
    which holds per entry the id of its interned child state, or None (for
    a Group key set, a list of them per variant)."""

    __slots__ = ("source", "kids")

    def __init__(self, source):
        super().__init__()
        self.source = source
        self.kids = []


def _line_up(tin: DocT, tout: DocT):
    """The sorted paths of `tout` that `tin` types alike, and those it lacks.
    Only documents whose types differ are entered: alike ones lack nothing."""
    common, absent = [], []

    def walk(it_doc, ot_doc, prefix):
        for name, ot in ot_doc.fields:
            path = prefix + (name,)
            it = it_doc.get(name)
            if it is None:
                absent.append(path)
            elif it == ot:
                common.append(path)
            elif isinstance(it, DocT) and isinstance(ot, DocT):
                walk(it, ot, path)

    walk(tin, tout, ())
    return sorted(common), sorted(absent)


def _gen_project(search, state):
    paths, _ = _line_up(state.in_type, search.out_type)
    if paths:
        yield (Project(_HOLE, tuple(paths)), state.sizes), None


def _gen_match(search, state):
    docs, paths = state.docs, typed_paths(state.in_type)
    atoms = map(itemgetter(1), _entries(_atom_table(state, docs, paths, search.pool)))
    for entry in enumerate_predicates(docs, paths, search.pool, atoms):
        yield entry, None


def _atom_table(state: _State, docs: list, paths: list, pool: list) -> _Table:
    """The state's atom classes in tier order: (truth vector, predicate),
    the first atom of each vector. The table is made on first use and
    filled as it is read, as a candidate table is.

    Every atom is a function of one document, and a Match child's
    documents are its parent's at the set bits of the Match vector, in
    order. So a Match child typed as its parent, which has the same typed
    paths and the same constant pool, has the parent's atoms with each
    vector compressed to those bits; two atoms equal on the parent stay
    equal, and its classes are the parent's classes compressed, the first
    of each vector kept, with the parent's predicates. Any other state
    computes its atoms' vectors."""
    if state.atoms is None:
        origin = state.origin
        if origin is not None and origin[0].in_type is state.in_type:
            parent, mask = origin  # the parent's Match table made its atom table
            atoms = _compressed(map(itemgetter(1), _entries(parent.atoms)), mask)
        else:
            atoms = _atom_classes(docs, paths, pool)
        # `_entries` reads (entry, made) pairs; an atom class comes with nothing made
        state.atoms = _Table(zip(atoms, repeat(None)))
    return state.atoms


def _compressed(classes, mask: int):
    """The classes with each vector's bits at the set bits of `mask` packed
    together, in order, and the first class of each packed vector kept."""
    runs = []  # (first bit, ones as wide as the run, where it lands) per run of set bits
    at = packed = 0
    while mask:
        skip = (mask & -mask).bit_length() - 1
        mask >>= skip
        at += skip
        width = (mask ^ (mask + 1)).bit_length() - 1
        runs.append((at, (1 << width) - 1, packed))
        mask >>= width
        at += width
        packed += width
    seen = set()
    for bits, p in classes:
        out = 0
        for low, ones, to in runs:
            out |= (bits >> low & ones) << to
        if out not in seen:
            seen.add(out)
            yield out, p


def _gen_unwind(search, state):
    # No Unwind or Lookup candidate raises an EvalError, so none is run to be
    # sized. Lenient typing gives a path an array type only when every
    # non-null value there is an array, so `interp.flatten` makes one
    # document per element, none for a null or absent value, and never
    # raises; and `SynthesisTask` puts every schema collection in every
    # example's input, so a Lookup always finds its foreign collection.
    for path, t in typed_paths(state.in_type):
        if isinstance(t, ArrayT):
            yield (Unwind(_HOLE, path), tuple(_unwound(c, path) for c in state.colls)), None


def _unwound(coll: list, path: tuple) -> int:
    """How many documents Unwind at `path` makes of `coll`: one per element
    of each array there, none for a null or absent value."""
    return sum(len(v) for v in (get_path(d, path) for d in coll) if isinstance(v, list))


def _expr_candidates(search, docs, paths, target):
    """Type-correct expressions for one new attribute, the first per vector of values."""
    want = type_of_path(search.out_type, target)
    exprs = [PathExpr(p) for p, t in paths if t == want]
    if want == NUM:
        num_paths = [p for p, t in paths if t == NUM]
        exprs += [Arith(p1, op, p2) for p1 in num_paths for op in ARITH_OPS for p2 in num_paths]
        exprs += [FnCall(fn, p) for fn in MATH_FNS for p in num_paths]
    kept = {}  # vector of values -> its first expression
    for e in exprs:
        kept.setdefault(tuple(value_key(eval_expr(d, e)) for d in docs), e)
    return list(kept.values())


def _gen_add_fields(search, state):
    _, targets = _line_up(state.in_type, search.out_type)
    docs = state.docs
    paths = typed_paths(state.in_type)
    built = {}  # target -> its expression pool, built on first use

    def pool_of(target):
        if target not in built:
            built[target] = _expr_candidates(search, docs, paths, target)
        return built[target]

    for size in range(1, len(targets) + 1):
        for subset in combinations(targets, size):
            pools = [pool_of(t) for t in subset]
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                yield (AddFields(_HOLE, subset, combo), state.sizes), None


def _gen_group(search, state):
    """One entry per key set: its sizes and the aggregators worth trying,
    made with every example's partition. The (names, aggregators) variants
    are enumerated by `_read_group`, only when the sizes fit."""
    paths = [p for p, _ in typed_paths(state.in_type)]
    if not paths:
        return
    # accumulator arguments range over top-level numeric attributes only,
    # matching the top-level rule Unwind already follows
    num_paths = [(name,) for name, t in state.in_type.fields if t == NUM]
    agg_pool = [Count()]
    agg_pool += [make(p) for make in AGGREGATORS if make is not Count for p in num_paths]
    colls = state.colls
    max_size = min(search.cfg.max_group_keys, len(paths))
    for size in range(max_size, 0, -1):
        for keys in combinations(paths, size):
            if keys_share_a_name(keys):
                continue  # lang.Group refuses them
            groups = [group_by(coll, keys) for coll in colls]
            if not all(reachable(len(c), ("group",), len(g)) for c, g in zip(colls, groups)):
                continue
            kept = tuple(a for a in agg_pool if _agg_plausible(a, groups[0], search.output_nums))
            yield (keys, tuple(map(len, groups)), kept), groups


def _agg_plausible(agg, groups, output_nums):
    """Keep an accumulator only if one of its group values shows up in the output."""
    if not groups:
        return True
    for _, members in groups:
        v = eval_agg(members, agg)
        if v is not None and kind_of(v) == "num" and value_key(v) in output_nums:
            return True
    return False


def _gen_lookup(search, state):
    in_paths = typed_paths(state.in_type)
    for fname, coll_type in search.task.schema.items():
        ftype = coll_type.elem
        for as_attr, ot in search.out_type.fields:
            if not isinstance(ot, ArrayT) or ot.elem != ftype:
                continue
            if state.in_type.get(as_attr) is not None:
                continue
            fpaths = typed_paths(ftype)
            for local, lt in in_paths:
                if not isinstance(lt, PrimT):
                    continue
                for foreign, ft in fpaths:
                    if ft == lt:
                        yield (Lookup(_HOLE, local, foreign, fname, as_attr), state.sizes), None


_GENERATORS = {
    "project": _gen_project,
    "match": _gen_match,
    "add_fields": _gen_add_fields,
    "unwind": _gen_unwind,
    "group": _gen_group,
    "lookup": _gen_lookup,
}


def _table(search: Search, state: _State, kind: str) -> _Table:
    """The state's table for `kind`, made on first use; the first table
    made types the state, and equal types are shared."""
    table = search.tables.get((state.id, kind))
    if table is None:
        if state.in_type is None:
            t = lenient_doc_type(state.docs)
            state.in_type = search.types.setdefault(t, t)
        table = search.tables[state.id, kind] = _Table(_GENERATORS[kind](search, state))
    return table


def _entries(table: _Table):
    """Every entry of `table` from the first, as (position, entry, made):
    what the generator built with a new entry (a Group key set's
    partitions), else None. Entry i is read from the
    table if it is there, else made by the shared generator, so a nested
    reader of the same table, on a child equal to its parent, sees the
    same entries."""
    i = 0
    while True:
        if i < len(table):
            yield i, table[i], None
        elif table.source is None or (new := next(table.source, None)) is None:
            table.source = None
            return
        else:
            entry, made = new
            table.append(entry)
            table.kids.append(None)
            yield i, entry, made
        i += 1


# ---------------------------------------------------------------------------
# Readers: each yields (node, child) for the candidates of one table whose
# sizes fit the stages `rest` after it (`Search.fits`). The child is the
# interned state after the node when stages remain, else every example's
# collection, which is compared with the outputs and never interned. It is
# built by `_child`, only when no child id is kept for the candidate yet.
# ---------------------------------------------------------------------------

def _child(search: Search, kids: list, i: int, build, rest: tuple, origin=None):
    """The child of candidate i, whose state id `kids[i]` holds once it is
    interned: its state if stages remain, else its collections. `build()`
    makes the collections when the child has not been interned yet; a
    state it makes gets the Match `origin`, if any."""
    sid = kids[i]
    if sid is not None:
        state = search.states[sid]
        return state if rest else state.colls
    colls = build()
    if not rest:
        return colls
    state = _intern(search, colls, origin)
    kids[i] = state.id
    return state


def _read_applied(search, state, table, rest):
    for i, (node, sizes), _ in _entries(table):
        if search.fits(sizes, rest):
            yield node, _child(search, table.kids, i, lambda: [
                apply_stage(db, c, node) for db, c in zip(search.inputs, state.colls)], rest)


def _read_match(search, state, table, rest):
    colls = state.colls
    for i, (pred, bits), _ in _entries(table):
        slices = _split_bits(bits, colls)
        if search.fits(tuple(map(int.bit_count, slices)), rest):
            yield Match(_HOLE, pred), _child(search, table.kids, i, lambda: [
                _select(c, b) for c, b in zip(colls, slices)], rest, (state, bits))


def _read_group(search, state, table, rest):
    names_pool = search.group_names
    for i, (keys, sizes, kept), groups in _entries(table):
        # every variant of a key set has its sizes, so a miss is charged once per variant
        variants = (1 + len(kept)) ** len(names_pool)
        if not search.fits(sizes, rest, variants):
            continue
        if groups is None:  # a replay partitions again rather than keep every partition
            groups = [group_by(c, keys) for c in state.colls]
        kids = table.kids[i]
        if kids is None:
            kids = table.kids[i] = [None] * variants
        variant = 0
        for nsize in range(len(names_pool) + 1):
            for names in combinations(names_pool, nsize):
                for aggs in product(kept, repeat=nsize):
                    yield Group(_HOLE, keys, names, aggs), _child(search, kids, variant, lambda: [
                        group_rows(g, names, aggs) for g in groups], rest)
                    variant += 1


_READERS = {
    "project": _read_applied,
    "match": _read_match,
    "add_fields": _read_applied,
    "unwind": _read_applied,
    "group": _read_group,
    "lookup": _read_applied,
}


# ---------------------------------------------------------------------------
# Completion
# ---------------------------------------------------------------------------

def complete_sketch(search: Search, ops: tuple):
    # deduction has folded the input sizes through the whole spine already
    if not ops:
        colls = search.states[0].colls
        return CollectionRef(search.task.collection) if _reproduces(search, colls) else None
    return _fill(search, ops, [None] * len(ops), 0, search.states[0])


def _fill(search: Search, ops: tuple, chosen: list, k: int, state: _State):
    """Choose stages k.. of the spine `ops`, given the state before stage k.

    The prefix up to stage k has passed the size check, at stage 0 in
    deduction and after that here. Stage k's candidates are read from the
    state's table for its kind, and only those whose sizes fit are tried.
    A call that finds nothing is recorded by its state and its stages left,
    and a later call equal in both returns None at once.
    """
    key = state.id, ops[k:]
    if key in search.failed:
        search.states_reused += 1
        return None
    kind, rest = ops[k], ops[k + 1:]
    for node, child in _READERS[kind](search, state, _table(search, state, kind), rest):
        chosen[k] = node
        if rest:
            got = _fill(search, ops, chosen, k + 1, child)
            if got is not None:
                return got
        elif _reproduces(search, child):
            return _assemble(search, chosen)
    search.failed[key] = None
    return None


def _reproduces(search: Search, colls: list) -> bool:
    """Whether a complete program's collections are the outputs; counts one completion."""
    search.completions += 1
    return all(collection_eq(c, o) for c, o in zip(colls, search.outputs))


def _intern(search: Search, colls: list, origin=None) -> _State:
    """The one state of every example's collection `colls`, made on first sight.

    A document is interned by its repr, which keeps apart every two values
    that a candidate generator or the output check can tell apart (1, 1.0
    and True; attribute orders; an integer beyond 2**53 and its float), and
    some they cannot (-0.0 and 0), which only costs a missed hit. Only NaNs
    share a repr, and nothing in the search tells one NaN from another. A
    state is keyed by the tuple of each example's document ints, so example
    boundaries count too. The input, state 0, is keyed on the first call,
    so a search that interns nothing else never reads the input's reprs.
    A new state keeps `origin`; a state seen before keeps its own.
    """
    if not search.state_ids:
        search.state_ids[_state_key(search, search.states[0].colls)] = 0
    sid = search.state_ids.setdefault(_state_key(search, colls), len(search.states))
    if sid == len(search.states):
        search.states.append(_State(sid, colls, origin))
    return search.states[sid]


def _state_key(search: Search, colls: list) -> tuple:
    """Each example's tuple of document ints."""
    docs = search.doc_ids
    return tuple([tuple([docs.setdefault(r, len(docs)) for r in map(repr, c)]) for c in colls])


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


def _assemble(search: Search, stage_nodes):
    q = CollectionRef(search.task.collection)
    for node in stage_nodes:
        q = replace(node, source=q)
    return q


# ---------------------------------------------------------------------------
# The worklist loop
# ---------------------------------------------------------------------------

def synthesize(task, cfg: SynthesisConfig = None, trace=None) -> SynthesisResult:
    """Search for a query that reproduces every example of `task`, a `taskio.SynthesisTask`."""
    search = Search(task, cfg or SynthesisConfig())
    frontier = deque()  # visited spines whose children are not yet visited
    batch = [()]  # the bare spine
    try:
        while True:
            for ops in batch:
                search.check_deadline()
                search.sketches += 1
                feasible = deduce(search, ops)
                if trace is not None:
                    trace(ops, feasible)
                if feasible:
                    q = complete_sketch(search, ops)
                    if q is not None:
                        return search.result(q, "success")
                if len(ops) < search.cfg.max_pipeline_depth:
                    frontier.append(ops)
            if not frontier:
                return search.result(None, "exhausted")
            batch = refine(frontier.popleft())
    except _DeadlineReached:
        return search.result(None, "timeout")
    finally:
        # a table left unfinished holds a generator that refers to the search
        search.tables.clear()
