"""Synthesizer tests: worklist behavior, deduction verdicts, enumeration
order, and end-to-end search on the forum task."""

import gc
import json
import pathlib
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from docsynth.absint import Sketch
from docsynth.errors import TaskError
from docsynth.lang import CollectionRef, Match, TRUE, ast_size
from docsynth.interp import eval_pred, eval_query
from docsynth.synth import (
    Example,
    Search,
    SynthesisConfig,
    SynthesisTask,
    _StageState,
    _gen_group,
    _memo_key,
    complete_sketch,
    constant_pool,
    deduce,
    enumerate_predicates,
    refine,
    synthesize,
)
from docsynth import synth as synth_module
from docsynth.taskio import load_task
from docsynth.text import parse_query, render_pred, render_query
from docsynth.types import (
    ArrayT, BOOL, DATETIME, DocT, NUM, STRING, compute_schema, lenient_doc_type, typed_paths,
)
from docsynth.values import Datetime

from .conftest import reddit_posts_result
from .oracles import predicates_by_enumeration
from .test_lang import forum_query
from .test_pruning_properties import all_sketches

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "replay_stages.json").read_text())

FORUM_DB = GOLDEN["input"]
FORUM_OUT = GOLDEN["stages"][-1]
TASKS_DIR = pathlib.Path(__file__).parent.parent / "tasks"
OMEGA_3 = Sketch("posts", ("unwind", "match", "group", "add_fields", "match", "project"))


def forum_task():
    return SynthesisTask(compute_schema(FORUM_DB), "posts",
                         (Example(FORUM_DB, FORUM_OUT),), constants=(0, 1))


@pytest.fixture(scope="module")
def forum_result():
    # tasks/reddit_posts.json is this task
    return reddit_posts_result()


class TestRefine:
    def test_fanout_is_six(self):
        assert len(refine(Sketch("posts", ()))) == 6

    def test_wraps_at_leaf(self):
        children = refine(Sketch("posts", ("match",)))
        assert [c.ops for c in children] == [
            ("project", "match"), ("match", "match"), ("add_fields", "match"),
            ("unwind", "match"), ("group", "match"), ("lookup", "match"),
        ]

    def test_depth_grows_by_one(self):
        sk = Sketch("posts", ("unwind", "group"))
        assert all(c.depth == 3 for c in refine(sk))


class TestDeduce:
    def test_bare_collection_infeasible(self):
        t = forum_task()
        assert deduce(Search(t, SynthesisConfig()), Sketch("posts", ())) is False

    def test_three_stage_infeasible(self):
        t = forum_task()
        sk = Sketch("posts", ("unwind", "match", "project"))
        assert deduce(Search(t, SynthesisConfig()), sk) is False

    def test_six_stage_feasible(self):
        t = forum_task()
        assert deduce(Search(t, SynthesisConfig()), OMEGA_3) is True

    def test_both_ablations_accept_everything(self):
        t = forum_task()
        cfg = SynthesisConfig(disable_size_abstraction=True, disable_type_abstraction=True)
        assert deduce(Search(t, cfg), Sketch("posts", ())) is True

    def test_size_only_still_rejects_bare(self):
        # 3 input posts vs 2 output rows: the bare spine keeps the size
        t = forum_task()
        cfg = SynthesisConfig(disable_type_abstraction=True)
        assert deduce(Search(t, cfg), Sketch("posts", ())) is False

    def test_type_only_rejects_project_spine(self):
        t = forum_task()
        cfg = SynthesisConfig(disable_size_abstraction=True)
        sk = Sketch("posts", ("unwind", "match", "project"))
        assert deduce(Search(t, cfg), sk) is False


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
        q = complete_sketch(Search(task, SynthesisConfig()), Sketch("items", ()))
        assert q == CollectionRef("items")

    def test_match_true_when_output_equals_input(self):
        task = SynthesisTask(compute_schema(FORUM_DB), "posts",
                             (Example(FORUM_DB, FORUM_DB["posts"]),), constants=(0,))
        q = complete_sketch(Search(task, SynthesisConfig()), Sketch("posts", ("match",)))
        assert q == Match(CollectionRef("posts"), TRUE)

    def test_unwind_completion(self):
        unwound = GOLDEN["stages"][0]
        task = SynthesisTask(compute_schema(FORUM_DB), "posts", (Example(FORUM_DB, unwound),))
        q = complete_sketch(Search(task, SynthesisConfig()), Sketch("posts", ("unwind",)))
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
        colls = [ex0["c"], ex1["c"]]
        docs = colls[0] + colls[1]
        state = _StageState(docs=docs, in_type=lenient_doc_type(docs), colls=colls, search=search)
        assert {g.keys for g, _ in _gen_group(state)} == {(("m",),)}

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
        keys = [_memo_key(search, ("project",), colls) for colls in states]
        assert len(set(keys)) == len(states)
        # an equal state built from new objects is the same state
        assert _memo_key(search, ("project",), [[{"a": 1, "b": 2}], []]) == keys[0]
        assert _memo_key(search, ("match",), states[0]) != keys[0]

    def test_returns_none_when_no_completion_exists(self):
        db = {"items": [{"a": 1}]}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"zzz": 1}]),))
        q = complete_sketch(Search(task, SynthesisConfig()), Sketch("items", ("project",)))
        assert q is None


class TestSynthesize:
    def test_identity_task_one_sketch(self):
        db = {"items": [{"a": 1}, {"a": 2}]}
        r = synthesize(SynthesisTask(compute_schema(db), "items", (Example(db, db["items"]),)))
        assert r.status == "success"
        assert r.query == CollectionRef("items")
        assert r.stats["sketchesExplored"] == 1

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
        r = synthesize(task, trace=lambda sk, ok: seen.append((sk.render(), ok)))
        assert len(seen) == r.stats["sketchesExplored"]
        assert seen[0][0] == "items"

    def test_trace_order_is_breadth_first(self):
        # the frontier holds spines to refine; visiting order must still be
        # the breadth-first order of a queue of every spine
        db = {"items": [{"a": 1}, {"a": 2}]}
        task = SynthesisTask(compute_schema(db), "items", (Example(db, [{"z": "x"}]),))
        seen = []
        r = synthesize(task, SynthesisConfig(max_pipeline_depth=2),
                       trace=lambda sk, ok: seen.append(sk))
        assert r.status == "exhausted"
        assert seen == list(all_sketches("items", 2))

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
        sk = Sketch("items", ("match", "project"))
        search = Search(task, SynthesisConfig())
        assert not deduce(search, sk)
        assert complete_sketch(search, sk) is None
        assert (search.prefixes_pruned, search.completions) == (2, 0)
        unpruned = Search(task, SynthesisConfig(disable_size_abstraction=True))
        assert complete_sketch(unpruned, sk) is None
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

    @pytest.mark.parametrize("output", [[1], "x", [{"a": 1}, None]])
    def test_output_that_is_not_a_list_of_documents(self, output):
        db = {"c": [{"a": 1}]}
        with pytest.raises(TaskError, match=r"examples\[1\]\.output"):
            SynthesisTask(compute_schema(db), "c", (Example(db, []), Example(db, output)))

    def test_nonconforming_input(self):
        schema = compute_schema({"c": [{"a": 1}]})
        with pytest.raises(TaskError):
            SynthesisTask(schema, "c", (Example({"c": [{"a": "str"}]}, []),))

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
