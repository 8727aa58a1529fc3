"""Search-pruning properties checked over randomly generated pairs.

Soundness: deduction never rejects the spine of a query that actually
produced the output, and completion's size check never rejects one of that
query's concrete prefixes. Safety: whenever deduction rejects a spine on an
example, exhaustive completion of that spine, with no pruning of its own,
finds nothing either. Bounded completeness: synthesis recovers a query for
examples produced by a known query of small depth, and a few deeper seeds
are pinned by their counts. Plus determinism, the guarantee that
disabling pruning never changes the answer, only the work done, and the
same for completion's failure memo.
"""

from pathlib import Path

import pytest

from docsynth import synth as synth_module
from docsynth.absint import OPERATOR_TAGS
from docsynth.interp import apply_stage, eval_query
from docsynth.lang import stages
from docsynth.sizes import reachable
from docsynth.synth import (
    Search, SynthesisConfig, _atom_vectors, _entries, complete_sketch, deduce, synthesize,
)
from docsynth.taskio import Example, SynthesisTask, load_task
from docsynth.text import render_query
from docsynth.types import compute_schema, typed_paths
from docsynth.values import collection_eq
from perfbench.checker import accepts

from .conftest import reddit_posts_result
from .generators import gen_pair, task_of
from .oracles import skeleton

# completion with neither abstraction: what a spine admits, judged without
# the pruning under test
UNPRUNED = SynthesisConfig(disable_size_abstraction=True, disable_type_abstraction=True)


class TestPruningSoundness:
    # the spine of a query that produced the output must never be pruned
    def test_thousand_random_pairs(self):
        cfg = SynthesisConfig()
        for seed in range(1000):
            db, coll, query, output, _ = gen_pair(seed)
            ops = skeleton(query)
            task = SynthesisTask(compute_schema(db), coll, (Example(db, output),))
            assert deduce(Search(task, cfg), ops), (
                f"seed {seed}: pruned the true spine {ops} of {query}"
            )

    def test_soundness_survives_each_ablation(self):
        for flags in ({"disable_size_abstraction": True}, {"disable_type_abstraction": True}):
            cfg = SynthesisConfig(**flags)
            for seed in range(200):
                db, coll, query, output, _ = gen_pair(seed)
                ops = skeleton(query)
                task = SynthesisTask(compute_schema(db), coll, (Example(db, output),))
                assert deduce(Search(task, cfg), ops), (
                    f"seed {seed} under {flags}"
                )


class TestPrefixSoundness:
    # completion must never drop a concrete prefix of the query that produced the output
    def test_thousand_random_pairs(self):
        for seed in range(1000):
            db, coll, query, output, _ = gen_pair(seed)
            tags = skeleton(query)
            docs = list(db[coll])
            for k, stage in enumerate(stages(query)):
                assert reachable(len(docs), tags[k:], len(output)), (
                    f"seed {seed}: rejected the {len(docs)}-document prefix before "
                    f"stage {k} of {query}"
                )
                docs = apply_stage(db, docs, stage)
            assert len(docs) == len(output)


def all_spines(max_depth):
    """Every spine of at most `max_depth` stages, breadth first."""
    frontier = [()]
    yield frontier[0]
    for _ in range(max_depth):
        nxt = []
        for ops in frontier:
            for tag in OPERATOR_TAGS:
                child = (tag,) + ops
                nxt.append(child)
                yield child
        frontier = nxt


class TestPruningSafety:
    # deduction false on an example => the spine has no completion on it
    def test_hundred_tiny_pairs_depth_two(self):
        cfg = SynthesisConfig()
        pruned = completed = 0
        for seed in range(100):
            db, coll, query, output, constants = gen_pair(seed, tiny=True, max_depth=2)
            task = SynthesisTask(compute_schema(db), coll, (Example(db, output),), tuple(constants))
            search = Search(task, cfg)
            oracle = Search(task, UNPRUNED)
            for ops in all_spines(2):
                if deduce(search, ops):
                    continue
                pruned += 1
                got = complete_sketch(oracle, ops)
                assert got is None, (
                    f"seed {seed}: pruned spine {ops} completes to {got}"
                )
            completed += 1
        assert completed == 100
        assert pruned > 100  # the property must actually bite


class TestBoundedCompleteness:
    def test_synthesis_recovers_examples_from_small_queries(self):
        cfg = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        for seed in range(25):
            task, query, output = task_of(seed, max_depth=2, for_synthesis=True)
            result = synthesize(task, cfg)
            assert result.status == "success", (
                f"seed {seed}: no query found though {query} produced the examples"
            )
            got = eval_query(task.examples[0].input, result.query)
            assert collection_eq(got, output)


class TestDeepCompleteness:
    # seed -> (returned query, completions, pruned prefixes, reused states);
    # the true queries have depth 4 to 6
    PINNED = {
        2: ("Match(AddFields(c3, [t4, t5, t6], [n1, n1, o2]), o2 < 4)", 5774, 32768, 0),
        10: ("AddFields(Unwind(c6, arr5), [t7, t8, t9], [s3, n2, s3])", 114, 0, 0),
        12: ("Match(Group(c6, [n1], [g7], [Count()]), _id.n1 = 2)", 252, 31, 8),
        16: ("Match(AddFields(Unwind(c7, arr6), [t11], [n2 - n1]), o4 = 5)", 7938, 79007, 240),
        28: ("Match(AddFields(Unwind(c4, arr3), [t8, t9], [n1, n1]), n1 >= 6)", 1115, 217, 150),
        34: ("Match(AddFields(c2, [t3, t4, t5, t6], [n1, n1, n1 + n1, n1]), n1 >= 4)",
             10807, 3125, 0),
        35: ("AddFields(Lookup(c5, n1, k7, c6, j9), [t10, t11, t12], [s2, s2, s2])", 264, 31, 1),
        37: ("Match(AddFields(Unwind(c9, arr5), [t10], [s2]), n1 = 7)", 124, 25, 7),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_deep_seed_solved_with_pinned_counts(self, seed):
        task, query, output = task_of(seed, max_depth=6, for_synthesis=True)
        assert 4 <= len(stages(query)) <= 6
        result = synthesize(task)
        assert result.status == "success", f"seed {seed}: {result.status}"
        # replayed by the naive oracle, which shares no code with docsynth.interp
        example = {"input": task.examples[0].input, "output": output}
        assert accepts({"examples": [example]}, result.query)
        stats = result.stats
        assert (render_query(result.query), stats["programsCompleted"], stats["prefixesPruned"],
                stats["statesReused"]) == self.PINNED[seed]


class TestDeterminism:
    def test_repeated_runs_agree(self):
        cfg = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        for seed in (3, 11, 42, 77, 140):
            task, _, _ = task_of(seed, max_depth=2, for_synthesis=True)
            a = synthesize(task, cfg)
            b = synthesize(task, cfg)
            assert a.query == b.query
            assert a.stats["sketchesExplored"] == b.stats["sketchesExplored"]
            assert a.stats["programsCompleted"] == b.stats["programsCompleted"]


class TestPruningMonotonicity:
    # pruning changes the work done, never the answer
    def test_ablations_return_same_query_with_no_less_work(self):
        base_cfg = SynthesisConfig(timeout_seconds=120, max_pipeline_depth=2)
        ablations = [
            SynthesisConfig(timeout_seconds=120, max_pipeline_depth=2, disable_size_abstraction=True),
            SynthesisConfig(timeout_seconds=120, max_pipeline_depth=2, disable_type_abstraction=True),
            SynthesisConfig(
                timeout_seconds=120, max_pipeline_depth=2,
                disable_size_abstraction=True, disable_type_abstraction=True,
            ),
        ]
        for seed in range(10):
            task, _, _ = task_of(seed, max_depth=2, for_synthesis=True)
            base = synthesize(task, base_cfg)
            assert base.status == "success"
            for cfg in ablations:
                ablated = synthesize(task, cfg)
                assert ablated.query == base.query, f"seed {seed}"
                assert (
                    ablated.stats["programsCompleted"] >= base.stats["programsCompleted"]
                ), f"seed {seed}"


class _NeverHits(dict):
    """A failure memo or table store that records every entry and finds none."""

    def __contains__(self, key):
        return False

    def get(self, key, default=None):
        return default


class _Unmemoized(Search):
    def __init__(self, *args):
        super().__init__(*args)
        self.failed = _NeverHits()


class _Untabled(Search):
    def __init__(self, *args):
        super().__init__(*args)
        self.tables = _NeverHits()


TASKS_DIR = Path(__file__).parent.parent / "tasks"


class TestFailureMemo:
    # the memo only skips states already searched without success, so with a
    # memo that never hits the search returns the same query after the same
    # spines, and does no less completion work
    def _assert_memo_only_saves_work(self, task, cfg=SynthesisConfig(), memoized=None):
        memoized = memoized or synthesize(task, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth_module, "Search", _Unmemoized)
            plain = synthesize(task, cfg)
        assert (plain.status, plain.query) == (memoized.status, memoized.query)
        assert plain.stats["sketchesExplored"] == memoized.stats["sketchesExplored"]
        assert plain.stats["programsCompleted"] >= memoized.stats["programsCompleted"]
        assert plain.stats["prefixesPruned"] >= memoized.stats["prefixesPruned"]
        assert plain.stats["statesReused"] == 0

    @pytest.mark.parametrize("name", sorted(p.stem for p in TASKS_DIR.glob("*.json")))
    def test_shipped_tasks(self, name):
        task = load_task(str(TASKS_DIR / (name + ".json")))
        self._assert_memo_only_saves_work(
            task, memoized=reddit_posts_result() if name == "reddit_posts" else None)

    def test_depth_two_pairs(self):
        cfg = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        for seed in range(10):
            task, _, _ = task_of(seed, max_depth=2, for_synthesis=True)
            self._assert_memo_only_saves_work(task, cfg)

    @pytest.mark.parametrize("seed", sorted(TestDeepCompleteness.PINNED))
    def test_deep_seeds(self, seed):
        task, _, _ = task_of(seed, max_depth=6, for_synthesis=True)
        self._assert_memo_only_saves_work(task)


class TestCandidateTables:
    # a table replays, under every suffix, the entries its generator made on
    # one state, so with tables that are never found again every read runs
    # the generator anew, and the search gives the same answer and counts
    def _assert_tables_change_nothing(self, task, cfg=SynthesisConfig(), tabled=None):
        tabled = tabled or synthesize(task, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth_module, "Search", _Untabled)
            plain = synthesize(task, cfg)
        assert (plain.status, plain.query) == (tabled.status, tabled.query)
        assert ({k: v for k, v in plain.stats.items() if k != "elapsedSeconds"}
                == {k: v for k, v in tabled.stats.items() if k != "elapsedSeconds"})

    @pytest.mark.parametrize("name", sorted(p.stem for p in TASKS_DIR.glob("*.json")))
    def test_shipped_tasks(self, name):
        task = load_task(str(TASKS_DIR / (name + ".json")))
        self._assert_tables_change_nothing(
            task, tabled=reddit_posts_result() if name == "reddit_posts" else None)

    def test_depth_two_pairs(self):
        cfg = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        for seed in range(10):
            task, _, _ = task_of(seed, max_depth=2, for_synthesis=True)
            self._assert_tables_change_nothing(task, cfg)

    @pytest.mark.parametrize("seed", sorted(TestDeepCompleteness.PINNED))
    def test_deep_seeds(self, seed):
        task, _, _ = task_of(seed, max_depth=6, for_synthesis=True)
        self._assert_tables_change_nothing(task)

    def test_nested_reader_of_one_table(self):
        # Match(True) gives its state back, so the second Match reads the
        # first one's table while the first is still reading it. No Match of
        # at most two atoms keeps only the output document, so the second
        # reads the table to its end, and the first must go on from there.
        # A search never does this, since the memo holds the one-Match spine.
        docs = [{"a": a, "b": b, "n": n} for a in (1, 9) for b in (1, 9) for n in (0, 1)]
        db = {"items": docs}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"a": 9, "b": 1, "n": 1}]),))
        ops = ("match", "match")
        tabled, plain = Search(task, SynthesisConfig()), _Untabled(task, SynthesisConfig())
        query = complete_sketch(tabled, ops)
        assert query is not None
        assert query == complete_sketch(plain, ops)
        assert (tabled.completions, tabled.prefixes_pruned) == (plain.completions, plain.prefixes_pruned)


class _TableLog(dict):
    """A table store that keeps every table put into it, with its key, in
    `log`, which the search does not clear when it returns."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, key, table):
        super().__setitem__(key, table)
        self.log.append((key, table))


def _searched(task, cfg=SynthesisConfig()) -> Search:
    """The one `Search` that `synthesize(task, cfg)` made, run to its end,
    with every table it made kept in `tables.log`; its states outlive it."""
    made = []

    def logged(*args):
        made.append(Search(*args))
        made[-1].tables = _TableLog()
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth_module, "Search", logged)
        synthesize(task, cfg)
    (search,) = made
    return search


class TestEntrySizes:
    # a Project, AddFields, Unwind or Lookup entry holds sizes read without
    # running the node, which is run only once they fit: they must be the
    # lengths of what apply_stage makes of every example, and it must run.
    # Some searches make no such table, so each test checks every kind
    # somewhere among its searches.
    BUILT = {"project", "add_fields", "unwind", "lookup"}

    def _check_entries(self, label, task, cfg=SynthesisConfig()) -> set:
        """Search `task`, check every built-kind entry of every table the
        search made, and return the kinds checked."""
        search = _searched(task, cfg)
        checked = set()
        for (sid, kind), table in search.tables.log:
            if kind not in self.BUILT:
                continue
            colls = search.states[sid].colls
            for node, sizes in table:
                out = [apply_stage(db, c, node) for db, c in zip(search.inputs, colls)]
                assert tuple(map(len, out)) == sizes, f"{label}: {node} on state {sid}"
                checked.add(kind)
        return checked

    def test_shipped_tasks(self):
        checked = set()
        for path in sorted(TASKS_DIR.glob("*.json")):
            checked |= self._check_entries(path.stem, load_task(str(path)))
        assert checked == self.BUILT

    def test_depth_two_pairs(self):
        cfg = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        checked = set()
        for seed in range(10):
            task, _, _ = task_of(seed, max_depth=2, for_synthesis=True)
            checked |= self._check_entries(f"seed {seed}", task, cfg)
        assert checked == self.BUILT

    def test_deep_seeds(self):
        checked = set()
        for seed in sorted(TestDeepCompleteness.PINNED):
            task, _, _ = task_of(seed, max_depth=6, for_synthesis=True)
            checked |= self._check_entries(f"seed {seed}", task)
        assert checked == self.BUILT

    def test_null_and_absent_arrays(self):
        # no search above reaches an Unwind over a null or absent array,
        # which makes no document: at the top level and below a document
        # that is itself null or absent
        docs = [{"k": 1, "xs": [1, 2], "d": {"ys": [3]}}, {"k": 2, "xs": None, "d": None},
                {"k": 3, "d": {"ys": None}}, {"k": 4, "xs": [], "d": {}}]
        db = {"items": docs}
        out = [{"k": 1, "xs": 1, "d": {"ys": [3]}}, {"k": 1, "xs": 2, "d": {"ys": [3]}}]
        task = SynthesisTask(compute_schema(db), "items", (Example(db, out),))
        assert "unwind" in self._check_entries("null arrays", task)


class TestInheritedAtoms:
    # A Match child typed as its parent takes the parent's atom classes,
    # each vector compressed to the Match vector's bits. Drained, its table
    # must be the classes that its own atoms make: the first atom of each
    # vector, in tier order. Every Match child's table is checked, so one
    # inherited where the types differ would show too.

    def _check_atoms(self, label, search) -> tuple:
        """Check the atom table of every Match child that `search` made one
        on, and return how many were inherited and how many were Match
        children of another type."""
        inherited = other = 0
        for state in search.states:
            if state.origin is None or state.atoms is None:
                continue
            got = [atom for _, atom, _ in _entries(state.atoms)]
            firsts = {}
            for bits, node, args in _atom_vectors(state.docs, typed_paths(state.in_type),
                                                  search.pool):
                firsts.setdefault(bits, (bits, node(*args)))
            assert got == list(firsts.values()), f"{label}: state {state.id}"
            if state.origin[0].in_type is state.in_type:
                inherited += 1
            else:
                other += 1
        return inherited, other

    def test_shipped_tasks_and_seeds(self):
        # only reddit_posts makes Match tables on Match children today
        depth_two = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        runs = [(path.stem, load_task(str(path)), SynthesisConfig())
                for path in sorted(TASKS_DIR.glob("*.json"))]
        runs += [(f"depth-2 seed {seed}", task_of(seed, max_depth=2, for_synthesis=True)[0],
                  depth_two) for seed in range(10)]
        runs += [(f"deep seed {seed}", task_of(seed, max_depth=6, for_synthesis=True)[0],
                  SynthesisConfig()) for seed in sorted(TestDeepCompleteness.PINNED)]
        inherited = 0
        for label, task, cfg in runs:
            inherited += self._check_atoms(label, _searched(task, cfg))[0]
        assert inherited > 0

    def test_child_typed_apart_from_its_parent(self):
        # `k = 1` keeps the documents whose `xs` is null or absent, so the
        # child's lenient type drops `xs`, which its parent types: the
        # parent's `Exists(xs)` tells those two documents apart, and the
        # child has no such atom. No query gives the output, so every
        # Match child is searched from.
        docs = [{"k": 1, "xs": None}, {"k": 1}, {"k": 2, "xs": [5]}]
        db = {"items": docs}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"k": 9}]),))
        search = Search(task, SynthesisConfig())
        assert complete_sketch(search, ("match", "match")) is None
        assert self._check_atoms("typed apart", search)[1] > 0
