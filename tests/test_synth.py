"""Synthesizer tests: worklist behavior, deduction verdicts, enumeration
order, and end-to-end search on the forum task."""

import dataclasses
import gc
import json
import math
import pathlib
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from docsynth.errors import TaskError
from docsynth.lang import CollectionRef, Match, TRUE, ast_size
from docsynth.interp import eval_pred, eval_query
from docsynth.synth import (
    Search,
    SynthesisConfig,
    _entries,
    _intern,
    _table,
    complete_sketch,
    constant_pool,
    deduce,
    enumerate_predicates,
    refine,
    synthesize,
)
from docsynth import synth as synth_module
from docsynth.taskio import Example, SynthesisTask, load_task
from docsynth.text import parse_query, render_pred, render_query
from docsynth.types import (
    ArrayT, BOOL, DATETIME, DocT, NUM, STRING, compute_schema, lenient_doc_type, typed_paths,
)
from docsynth.values import Datetime

from .conftest import reddit_posts_result
from .oracles import predicates_by_enumeration
from .test_lang import forum_query
from .test_lambda_golden import render_spine
from .test_pruning_properties import all_spines

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "replay_stages.json").read_text())

FORUM_DB = GOLDEN["input"]
FORUM_OUT = GOLDEN["stages"][-1]
TASKS_DIR = pathlib.Path(__file__).parent.parent / "tasks"
OMEGA_3 = ("unwind", "match", "group", "add_fields", "match", "project")


def forum_task():
    return SynthesisTask(compute_schema(FORUM_DB), "posts",
                         (Example(FORUM_DB, FORUM_OUT),), constants=(0, 1))


@pytest.fixture(scope="module")
def forum_result():
    # tasks/reddit_posts.json is this task
    return reddit_posts_result()


class TestRefine:
    def test_fanout_is_six(self):
        assert len(refine(())) == 6

    def test_wraps_at_leaf(self):
        children = refine(("match",))
        assert children == [
            ("project", "match"), ("match", "match"), ("add_fields", "match"),
            ("unwind", "match"), ("group", "match"), ("lookup", "match"),
        ]

    def test_depth_grows_by_one(self):
        assert all(len(c) == 3 for c in refine(("unwind", "group")))


class TestDeduce:
    def test_bare_collection_infeasible(self):
        t = forum_task()
        assert deduce(Search(t, SynthesisConfig()), ()) is False

    def test_three_stage_infeasible(self):
        t = forum_task()
        ops = ("unwind", "match", "project")
        assert deduce(Search(t, SynthesisConfig()), ops) is False

    def test_six_stage_feasible(self):
        t = forum_task()
        assert deduce(Search(t, SynthesisConfig()), OMEGA_3) is True

    def test_both_ablations_accept_everything(self):
        t = forum_task()
        cfg = SynthesisConfig(disable_size_abstraction=True, disable_type_abstraction=True)
        assert deduce(Search(t, cfg), ()) is True

    def test_size_only_still_rejects_bare(self):
        # 3 input posts vs 2 output rows: the bare spine keeps the size
        t = forum_task()
        cfg = SynthesisConfig(disable_type_abstraction=True)
        assert deduce(Search(t, cfg), ()) is False

    def test_type_only_rejects_project_spine(self):
        t = forum_task()
        cfg = SynthesisConfig(disable_size_abstraction=True)
        ops = ("unwind", "match", "project")
        assert deduce(Search(t, cfg), ops) is False


class TestConstantPool:
    def test_forum_pool_order(self):
        t = forum_task()
        assert constant_pool(t.constants, t.examples) == [0, 1, 3, 2, None]

    def test_string_outputs_not_harvested(self):
        ex = Example({"c": [{"s": "x"}]}, [{"s": "hello", "n": 9}])
        assert constant_pool((), (ex,)) == [9, None, 0, 1]

    def test_user_constants_lead(self):
        ex = Example({"c": [{"n": 1}]}, [{"n": 5}])
        assert constant_pool(("word", 5), (ex,)) == ["word", 5, None, 0, 1]


class TestEnumeratePredicates:
    def test_truth_vector_collapse(self):
        docs = [{"d": 0}, {"d": 1}, {"d": 2}]
        preds = [p for p, _ in enumerate_predicates(docs, [(("d",), NUM)], [0, 1])]
        rendered = [render_pred(p) for p in preds]
        assert "d > 0" in rendered
        assert "d >= 1" not in rendered  # same class as d > 0
        assert "d != 0" not in rendered  # likewise
        # every representative has a distinct truth vector by construction
        assert rendered == ["true", "false", "d = 0", "d > 0", "d = 1",
                            "d <= 1", "d > 1", "d != 1"]

    def test_no_constants_leaves_exists_tiers(self):
        docs = [{"d": 1}, {}]
        preds = [p for p, _ in enumerate_predicates(docs, [(("d",), NUM)], [])]
        assert [render_pred(p) for p in preds] == \
            ["true", "false", "Exists(d)", "!(Exists(d))"]

    def test_connectives_respect_atom_budget(self):
        docs = [{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0}, {"a": 1, "b": 1}]
        paths = [(("a",), NUM), (("b",), NUM)]
        big = [p for p, _ in enumerate_predicates(docs, paths, [1])]
        assert any("&&" in render_pred(p) for p in big)
        # a = 1 && b = 1 reaches a class no single atom covers
        assert "(a = 1 && b = 1)" in [render_pred(p) for p in big]


_NUMS = st.sampled_from([0, 1, 2, 1.5, float("nan")])
_NUM_OR_NULL = _NUMS | st.none()
_STRS = st.sampled_from(["x", "y"])
_INNER = st.fixed_dictionaries({}, optional={"n": _NUM_OR_NULL, "s": _STRS | _NUMS})
# every attribute may be absent; most hold one kind, beside nulls, bools,
# strings or nested documents
_DOCS = st.lists(st.fixed_dictionaries({}, optional={
    "n": _NUM_OR_NULL | st.booleans(),
    "s": _STRS | _NUMS | st.sampled_from([Datetime("2020-01-01"), Datetime("2021-01-01")]),
    "arr": st.lists(st.integers(0, 2), max_size=3) | st.none() | _NUMS,
    "doc": _INNER | _STRS,
}), min_size=2, max_size=6)
# the type given for each attribute may disagree with some of its values
_DECLARED = st.fixed_dictionaries({}, optional={
    "n": st.sampled_from([NUM, BOOL]),
    "s": st.sampled_from([STRING, NUM, DATETIME]),
    "arr": st.sampled_from([ArrayT(NUM), ArrayT(NUM), NUM]),
    "doc": st.sampled_from([DocT({"n": NUM, "s": STRING}), DocT({"s": NUM}), STRING]),
}).map(DocT)
_CONSTANTS = st.lists(st.sampled_from(
    [None, 0, 1, 2, 1.5, float("nan"), True, False, "x", Datetime("2020-06-01")]),
    min_size=1, max_size=4)


@st.composite
def _enumeration_cases(draw):
    docs = draw(_DOCS)
    in_type = draw(st.just(lenient_doc_type(docs)) | _DECLARED)
    return docs, in_type, draw(_CONSTANTS)


class TestEnumeratePredicatesOracle:
    @settings(max_examples=300)
    @given(_enumeration_cases())
    @example(([{"arr": [1, 2], "n": 1, "doc": {"n": 1, "s": "x"}},
                {"arr": [], "n": True, "doc": {"n": None}},
                {"arr": [0], "s": "x", "doc": "y"},
                {"n": None, "arr": None}],
               DocT({"arr": ArrayT(NUM), "n": NUM, "doc": DocT({"n": NUM, "s": STRING}),
                     "s": STRING}),
               [1, 0, None, True, "x"]))
    def test_matches_build_then_deduplicate(self, case):
        docs, in_type, constants = case
        got = enumerate_predicates(docs, typed_paths(in_type), constants)
        want = predicates_by_enumeration(docs, in_type, constants)
        assert [render_pred(p) for p, _ in got] == [render_pred(p) for p in want]

    @settings(max_examples=300)
    @given(_enumeration_cases())
    def test_vectors_are_eval_pred(self, case):
        # completion applies Match from these vectors, never through eval_pred
        docs, in_type, constants = case
        for p, bits in enumerate_predicates(docs, typed_paths(in_type), constants):
            want = sum(1 << i for i, d in enumerate(docs) if eval_pred(d, p))
            assert bits == want, render_pred(p)


class TestCompleteSketch:
    def test_empty_sketch_is_identity(self):
        db = {"items": [{"a": 1}, {"a": 2}]}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, db["items"]),))
        q = complete_sketch(Search(task, SynthesisConfig()), ())
        assert q == CollectionRef("items")

    def test_match_true_when_output_equals_input(self):
        task = SynthesisTask(compute_schema(FORUM_DB), "posts",
                             (Example(FORUM_DB, FORUM_DB["posts"]),), constants=(0,))
        q = complete_sketch(Search(task, SynthesisConfig()), ("match",))
        assert q == Match(CollectionRef("posts"), TRUE)

    def test_unwind_completion(self):
        unwound = GOLDEN["stages"][0]
        task = SynthesisTask(compute_schema(FORUM_DB), "posts", (Example(FORUM_DB, unwound),))
        q = complete_sketch(Search(task, SynthesisConfig()), ("unwind",))
        assert render_query(q) == "Unwind(posts, replies)"

    def test_six_stage_completion_returns_section_query(self):
        t = forum_task()
        q = complete_sketch(Search(t, SynthesisConfig()), OMEGA_3)
        assert q == forum_query()

    def test_group_keys_must_merge_every_example(self):
        # k merges example 0 only, j merges neither, m merges both
        ex0 = {"c": [{"k": 1, "j": 1, "m": 1}, {"k": 1, "j": 2, "m": 1}]}
        ex1 = {"c": [{"k": 1, "j": 1, "m": 3}, {"k": 2, "j": 2, "m": 3}]}
        task = SynthesisTask(compute_schema(ex0), "c", (
            Example(ex0, [{"_id": {"m": 1}}]), Example(ex1, [{"_id": {"m": 3}}]),
        ))
        search = Search(task, SynthesisConfig(max_group_keys=1))
        table = _table(search, _intern(search, [ex0["c"], ex1["c"]]), "group")
        assert {keys for _, (keys, *_), _ in _entries(table)} == {(("m",),)}

    def test_stage_work_on_hard_unwind_group(self, monkeypatch):
        # wrap apply_stage through synth's global, as the benchmark tracer
        # does: a Group is built from its key partition and a Match from its
        # truth vector, and any other candidate is run only once its sizes
        # fit, and not again once its child is interned
        calls, docs_in, kinds = [0], [0], set()
        real = synth_module.apply_stage

        def counted(db, src, q):
            calls[0] += 1
            docs_in[0] += len(src)
            kinds.add(type(q).__name__)
            return real(db, src, q)

        monkeypatch.setattr(synth_module, "apply_stage", counted)
        result = synthesize(load_task(str(TASKS_DIR / "hard_unwind_group.json")))
        assert result.status == "success"
        assert (calls[0], docs_in[0]) == (36, 144)
        assert not kinds & {"Group", "Match"}

    def test_each_state_is_typed_once(self, monkeypatch):
        # a state's lenient type is computed with its first table, so
        # completion types each interned state once, under every suffix
        calls, searches = [0], []
        real = synth_module.lenient_doc_type

        def counted(docs):
            calls[0] += 1
            return real(docs)

        class Recorded(Search):
            def __init__(self, *args):
                super().__init__(*args)
                self.outputs_typed = calls[0]
                searches.append(self)

        monkeypatch.setattr(synth_module, "lenient_doc_type", counted)
        monkeypatch.setattr(synth_module, "Search", Recorded)
        result = synthesize(load_task(str(TASKS_DIR / "hard_unwind_group.json")))
        assert result.status == "success"
        search = searches[0]
        assert search.outputs_typed == 1  # one example: its output's type serves both uses
        assert calls[0] - search.outputs_typed == len(search.states) == 21

    def test_input_is_keyed_only_when_another_state_is_interned(self, monkeypatch):
        # the input is state 0 from the start; its documents are repr'd and
        # keyed once, on the first intern of another state, so a search
        # whose answer is one stage deep never reads them
        searches, keyed = [], []
        real = synth_module._state_key

        class Recorded(Search):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        def counted(search, colls):
            keyed.append(colls is search.states[0].colls)
            return real(search, colls)

        monkeypatch.setattr(synth_module, "Search", Recorded)
        monkeypatch.setattr(synth_module, "_state_key", counted)
        for name in ("match_simple", "lookup_join"):
            result = synthesize(load_task(str(TASKS_DIR / f"{name}.json")))
            assert result.status == "success"
            search = searches.pop()
            assert (len(search.states), search.doc_ids, keyed) == (1, {}, []), name
        result = synthesize(load_task(str(TASKS_DIR / "hard_unwind_group.json")))
        assert result.status == "success"
        assert len(searches.pop().states) > 1
        assert keyed.count(True) == 1

    def test_memo_keeps_value_equal_states_apart(self):
        # value_eq calls these states equal, but Arith tells 2**60 + 1 from
        # its float, and the attribute order sets the candidate order
        db = {"c": [{"a": 1}]}
        task = SynthesisTask(compute_schema(db), "c", (Example(db, []), Example(db, [])))
        search = Search(task, SynthesisConfig())
        states = [
            [[{"a": 1, "b": 2}], []],
            [[{"a": 1.0, "b": 2}], []],
            [[{"b": 2, "a": 1}], []],
            [[{"a": 2**60 + 1}], []],
            [[{"a": float(2**60 + 1)}], []],
            [[], [{"a": 1, "b": 2}]],  # the same document in the other example
        ]
        keys = [(_intern(search, colls).id, ("project",)) for colls in states]
        assert len(set(keys)) == len(states)
        # an equal state built from new objects is the same state
        again = _intern(search, [[{"a": 1, "b": 2}], []])
        assert again is search.states[keys[0][0]]
        assert (again.id, ("project",)) == keys[0]
        assert (again.id, ("match",)) != keys[0]

    def test_returns_none_when_no_completion_exists(self):
        db = {"items": [{"a": 1}]}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"zzz": 1}]),))
        q = complete_sketch(Search(task, SynthesisConfig()), ("project",))
        assert q is None


class TestSynthesize:
    def test_identity_task_one_sketch(self):
        db = {"items": [{"a": 1}, {"a": 2}]}
        r = synthesize(SynthesisTask(compute_schema(db), "items", (Example(db, db["items"]),)))
        assert r.status == "success"
        assert r.query == CollectionRef("items")
        assert r.stats["sketchesExplored"] == 1

    def test_non_finite_inputs_reach_expression_candidates(self):
        # every expression is evaluated on every document, floor(a) on ±Infinity too
        db = {"items": [{"a": math.inf, "n": 2.5}, {"a": -math.inf, "n": -1.5}]}
        out = [{"a": math.inf, "n": 2.5, "f": 2}, {"a": -math.inf, "n": -1.5, "f": -2}]
        r = synthesize(SynthesisTask(None, "items", (Example(db, out),)))
        assert render_query(r.query) == "AddFields(items, [f], [floor(n)])"
        # a NaN output equals nothing, so this search can only be exhausted
        db = {"items": [{"a": math.nan}, {"a": 2.5}]}
        out = [{"a": math.nan, "f": 3}, {"a": 2.5, "f": 3}]
        r = synthesize(SynthesisTask(None, "items", (Example(db, out),)), SynthesisConfig(max_pipeline_depth=1))
        assert r.status == "exhausted"

    def test_huge_integers_reach_expressions_and_aggregates(self):
        # 10**400 + 1.5 needs a float beyond the float range, so it is null
        db = {"items": [{"a": 10**400, "b": 1.5}, {"a": 3, "b": 2.5}]}
        out = [{"a": 10**400, "b": 1.5, "c": None}, {"a": 3, "b": 2.5, "c": 5.5}]
        r = synthesize(SynthesisTask(None, "items", (Example(db, out),)))
        assert render_query(r.query) == "AddFields(items, [c], [a + b])"
        # a Group search sums and averages each group to test its aggregators,
        # here up to the second group, since 7 is no output value
        db = {"items": [{"k": 1, "x": 10**400}, {"k": 1, "x": 1.5}, {"k": 2, "x": 7}]}
        out = [{"_id": {"k": 2}, "n": 1}, {"_id": {"k": 1}, "n": 2}]
        r = synthesize(SynthesisTask(None, "items", (Example(db, out),)))
        assert render_query(r.query) == "Group(items, [k], [n], [Count()])"

    def test_simple_match_within_seven_sketches(self):
        db = {"items": [{"a": 3}, {"a": 7}, {"a": 9}]}
        task = SynthesisTask(compute_schema(db), "items",
                             (Example(db, [{"a": 7}, {"a": 9}]),), constants=(5,))
        r = synthesize(task)
        assert r.status == "success"
        assert render_query(r.query) == "Match(items, a > 5)"
        assert r.stats["sketchesExplored"] <= 7

    def test_lenient_typing_ignores_document_order(self):
        # an attribute whose first value is null keeps its type
        docs = [{"a": None, "s": "x"}, {"a": 5, "s": "y"}, {"a": 7, "s": "z"}]
        for order in (docs, [docs[1], docs[0], docs[2]]):
            assert lenient_doc_type(order) == DocT({"a": NUM, "s": STRING})
            db = {"c": order}
            task = SynthesisTask(compute_schema(db), "c",
                                 (Example(db, [{"a": 7, "s": "z"}]),), constants=(6,))
            r = synthesize(task, SynthesisConfig(max_pipeline_depth=2))
            assert r.status == "success"
            assert render_query(r.query) == "Match(c, a > 6)"

    @pytest.mark.parametrize("db, coll, query", [
        ({"c": [{"r": [{"x": 1}, {"x": 2, "y": 3}]}]}, "c", "c"),
        ({"c": [{"r": [1, None]}]}, "c", "c"),
        ({"c": [{"k": 1, "r": [1, None]}, {"k": 2, "r": [3]}]}, "c", "Unwind(c, r)"),
        ({"orders": [{"o": 1, "c": 1}, {"o": 2, "c": 2}, {"o": 3, "c": 1}],
          "cust": [{"c": 1, "name": "a", "email": "a@x"}, {"c": 2, "name": "b"}]},
         "orders", "Lookup(orders, c, c, cust, cs)"),
    ], ids=["optional-attr-in-array", "null-in-array", "unwind-null", "lookup-optional-attr"])
    def test_arrays_with_optional_attributes_or_nulls(self, db, coll, query):
        # the output type keeps an array whose elements omit an attribute or are null
        out = eval_query(db, parse_query(query))
        task = SynthesisTask(compute_schema(db), coll, (Example(db, out),))
        r = synthesize(task)
        assert r.status == "success"
        assert render_query(r.query) == query
        assert eval_query(db, r.query) == out

    def test_forum_task_returns_section_query(self, forum_result):
        r = forum_result
        assert r.status == "success"
        assert r.query == forum_query()
        assert r.stats["astSize"] == ast_size(forum_query()) == 22
        assert r.stats["sketchesExplored"] == 11213

    def test_returned_query_satisfies_examples(self, forum_result):
        for ex in forum_task().examples:
            assert eval_query(ex.input, forum_result.query) == ex.output

    def test_multi_example_agreement(self):
        db1 = {"items": [{"a": 1}, {"a": 8}]}
        db2 = {"items": [{"a": 4}, {"a": 6}, {"a": 2}]}
        task = SynthesisTask(
            compute_schema(db1), "items",
            (Example(db1, [{"a": 8}]), Example(db2, [{"a": 6}])),
            constants=(5,),
        )
        r = synthesize(task)
        assert r.status == "success"
        for ex in task.examples:
            assert eval_query(ex.input, r.query) == ex.output

    def test_timeout_status(self):
        r = synthesize(forum_task(), SynthesisConfig(timeout_seconds=1e-9))
        assert r.status == "timeout"
        assert r.query is None
        assert r.stats["astSize"] == 0

    def test_exhausted_status(self):
        db = {"items": [{"a": 1}]}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"z": "x"}]),))
        r = synthesize(task, SynthesisConfig(max_pipeline_depth=1))
        assert r.status == "exhausted"
        assert r.query is None
        assert r.stats["sketchesExplored"] == 7  # bare + six depth-1 spines

    def test_trace_callback_sees_every_sketch(self):
        db = {"items": [{"a": 3}, {"a": 7}]}
        task = SynthesisTask(compute_schema(db), "items",
                             (Example(db, [{"a": 7}]),), constants=(5,))
        seen = []
        r = synthesize(task, trace=lambda ops, ok: seen.append((render_spine("items", ops), ok)))
        assert len(seen) == r.stats["sketchesExplored"]
        assert seen[0][0] == "items"

    def test_trace_order_is_breadth_first(self):
        # the frontier holds spines to refine; visiting order must still be
        # the breadth-first order of a queue of every spine
        db = {"items": [{"a": 1}, {"a": 2}]}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"z": "x"}]),))
        seen = []
        r = synthesize(task, SynthesisConfig(max_pipeline_depth=2),
                       trace=lambda ops, ok: seen.append(ops))
        assert r.status == "exhausted"
        assert seen == list(all_spines(2))

    def test_search_is_freed_without_the_cycle_collector(self, monkeypatch):
        # no reference cycle may keep a finished search alive; reddit_posts
        # is left out for time
        refs = []

        class Recorded(Search):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(synth_module, "Search", Recorded)
        paths = sorted(p for p in TASKS_DIR.glob("*.json") if p.stem != "reddit_posts")
        assert len(paths) == 11
        gc.disable()
        try:
            for path in paths:
                r = synthesize(load_task(str(path)))
                assert r.status == "success", path.stem
                assert refs[-1]() is None, f"{path.stem}: the search outlived synthesize"
        finally:
            gc.enable()

    def test_search_is_freed_after_a_timeout(self, monkeypatch):
        # a deadline met inside completion leaves a table unfinished, and
        # its generator refers to the search; the deadline is counted in
        # the size rule, not timed
        refs = []

        class Recorded(Search):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))
                self.sized = 0

            def fits(self, *args):
                self.sized += 1
                if self.sized > 50:
                    raise synth_module._DeadlineReached()
                return super().fits(*args)

        monkeypatch.setattr(synth_module, "Search", Recorded)
        gc.disable()
        try:
            r = synthesize(forum_task())
            assert r.status == "timeout"
            assert refs[-1]() is None, "the search outlived synthesize"
        finally:
            gc.enable()

    def test_queries_of_decoded_tasks_share_their_names(self):
        # a caller that keeps many answers keeps one copy of each name:
        # decoding a task interns its collection and attribute names
        def strings(x):
            if isinstance(x, str):
                yield x
            elif isinstance(x, tuple):
                for y in x:
                    yield from strings(y)
            elif dataclasses.is_dataclass(x):
                for f in dataclasses.fields(x):
                    yield from strings(getattr(x, f.name))

        path = str(TASKS_DIR / "hard_unwind_group.json")
        first, second = (list(strings(synthesize(load_task(path)).query)) for _ in range(2))
        assert "metrics" in first and "host" in first
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

    def test_determinism(self, forum_result):
        again = synthesize(forum_task())
        assert again.query == forum_result.query
        s1 = {k: v for k, v in forum_result.stats.items() if k != "elapsedSeconds"}
        s2 = {k: v for k, v in again.stats.items() if k != "elapsedSeconds"}
        assert s1 == s2


class TestAblations:
    def _task(self):
        db = {"items": [{"a": 3, "b": 1}, {"a": 7, "b": 2}, {"a": 9, "b": 2}]}
        return SynthesisTask(compute_schema(db), "items",
                             (Example(db, [{"a": 7, "b": 2}, {"a": 9, "b": 2}]),),
                             constants=(5,))

    def test_disabling_deduction_keeps_the_query(self):
        task = self._task()
        base = synthesize(task)
        off = synthesize(task, SynthesisConfig(disable_size_abstraction=True,
                                               disable_type_abstraction=True))
        assert base.status == off.status == "success"
        assert base.query == off.query
        assert off.stats["programsCompleted"] >= base.stats["programsCompleted"]

    def test_each_flag_alone_keeps_the_query(self):
        task = self._task()
        base = synthesize(task)
        for cfg in (SynthesisConfig(disable_size_abstraction=True),
                    SynthesisConfig(disable_type_abstraction=True)):
            r = synthesize(task, cfg)
            assert r.query == base.query
            assert r.stats["programsCompleted"] >= base.stats["programsCompleted"]

    def test_prefix_check_drops_a_prefix_before_any_candidate(self):
        # one document can become at most one through Match then Project:
        # deduction drops the spine, and a completion started anyway drops
        # both Match candidates (true and false, the only truth vectors
        # over one document) before any Project candidate
        db = {"items": [{"a": 1}]}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"a": 1}, {"a": 1}]),))
        ops = ("match", "project")
        search = Search(task, SynthesisConfig())
        assert not deduce(search, ops)
        assert complete_sketch(search, ops) is None
        assert (search.prefixes_pruned, search.completions) == (2, 0)
        unpruned = Search(task, SynthesisConfig(disable_size_abstraction=True))
        assert complete_sketch(unpruned, ops) is None
        assert unpruned.prefixes_pruned == 0 and unpruned.completions > 0

    def test_size_flag_gates_the_prefix_check(self):
        task = load_task(str(TASKS_DIR / "hard_unwind_group.json"))
        base = synthesize(task)
        off = synthesize(task, SynthesisConfig(disable_size_abstraction=True))
        assert off.query == base.query
        assert (base.stats["prefixesPruned"], base.stats["programsCompleted"]) == (58, 143)
        assert off.stats["prefixesPruned"] == 0


class TestSizeFlagIndependence:
    # Data outside the generators' fragment, where the paper's chain atoms do
    # not hold for the interpreter: the answer must not depend on a flag.
    FLAGS = [
        SynthesisConfig(disable_size_abstraction=s, disable_type_abstraction=t)
        for s in (False, True) for t in (False, True)
    ]

    def _same_answer_under_every_flag(self, task, want):
        for cfg in self.FLAGS:
            r = synthesize(task, cfg)
            query = None if r.query is None else render_query(r.query)
            assert (r.status, query, r.stats["sketchesExplored"]) == want, cfg

    def test_unwind_drops_an_empty_array(self):
        c = [{"a": 1, "xs": [{"v": 1}]}, {"a": 2, "xs": []}, {"a": 3, "xs": [{"v": 2}]}]
        out = [{"a": 1, "xs": {"v": 1}}, {"a": 3, "xs": {"v": 2}}]
        task = SynthesisTask(compute_schema({"c": c}), "c", (Example({"c": c}, out),))
        self._same_answer_under_every_flag(task, ("success", "Unwind(c, xs)", 5))

    def test_group_keeps_an_empty_example_empty(self):
        c = [{"k": 1, "v": 1}, {"k": 1, "v": 2}, {"k": 2, "v": 3}]
        out = [{"_id": {"k": 2}}, {"_id": {"k": 1}}]
        task = SynthesisTask(compute_schema({"c": c}), "c",
                             (Example({"c": c}, out), Example({"c": []}, [])))
        self._same_answer_under_every_flag(task, ("success", "Group(c, [k], [], [])", 6))


class TestValidation:
    def test_examples_required(self):
        with pytest.raises(TaskError):
            SynthesisTask({"c": compute_schema({"c": [{"a": 1}]})["c"]}, "c", ())

    def test_unknown_collection(self):
        db = {"c": [{"a": 1}]}
        with pytest.raises(TaskError):
            SynthesisTask(compute_schema(db), "other", (Example(db, []),))

    def test_example_missing_a_schema_collection(self):
        db = {"a": [{"k": 1}], "b": [{"k": 1}]}
        with pytest.raises(TaskError, match=r"examples\[1\]\.input: missing collection 'b'"):
            SynthesisTask(compute_schema(db), "a", (Example(db, []), Example({"a": [{"k": 2}]}, [])))

    @pytest.mark.parametrize("output", [
        [1], "x", [{"a": 1}, None],
        [{"a.b": 1}], [{"a": {1, 2}}], [{"a": [{"b": {"": 1}}]}], [{"a": 1}, {"a": [{"b": {1}}]}],
    ])
    def test_output_that_is_not_a_list_of_documents(self, output):
        db = {"c": [{"a": 1}]}
        with pytest.raises(TaskError, match=r"examples\[1\]\.output"):
            SynthesisTask(compute_schema(db), "c", (Example(db, []), Example(db, output)))

    def test_nonconforming_input(self):
        schema = compute_schema({"c": [{"a": 1}]})
        with pytest.raises(TaskError):
            SynthesisTask(schema, "c", (Example({"c": [{"a": "str"}]}, []),))

    def test_input_holding_an_unsupported_value(self):
        schema = compute_schema({"c": [{"a": 1}]})
        with pytest.raises(TaskError, match=r"examples\[0\]\.input\['c'\]: unsupported value"):
            SynthesisTask(schema, "c", (Example({"c": [{"a": {1}}]}, []),))

    @pytest.mark.parametrize("constant, message", [
        ([1], r"constants\[1\]: constants must be scalars"),
        ({"x": 1}, r"constants\[1\]: constants must be scalars"),
        (object(), r"constants\[1\]: unsupported value of type object"),
    ], ids=["array", "document", "object"])
    def test_constant_that_is_not_a_scalar(self, constant, message):
        # the search reads scalar constants only, so any other is refused
        # here rather than ignored or met later inside the search
        db = {"c": [{"a": 1}]}
        with pytest.raises(TaskError, match=message):
            SynthesisTask(compute_schema(db), "c", (Example(db, []),), constants=(0, constant))

    @pytest.mark.parametrize("db", [[1], None, "c"])
    def test_input_that_is_not_a_database(self, db):
        schema = compute_schema({"c": [{"a": 1}]})
        with pytest.raises(TaskError, match=r"examples\[0\]\.input"):
            SynthesisTask(schema, "c", (Example(db, []),))

    def test_config_bounds(self):
        with pytest.raises(TaskError):
            SynthesisConfig(max_pipeline_depth=0)
        with pytest.raises(TaskError):
            SynthesisConfig(timeout_seconds=0)
        for bad in (
            {"timeout_seconds": float("nan")},
            {"timeout_seconds": "5"},
            {"timeout_seconds": True},
            {"max_group_keys": 1.5},
            {"max_group_keys": "2"},
            {"max_group_keys": True},
            {"max_pipeline_depth": 2.0},
        ):
            with pytest.raises(TaskError):
                SynthesisConfig(**bad)
        assert SynthesisConfig(timeout_seconds=5, max_group_keys=3).max_group_keys == 3
