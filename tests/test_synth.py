"""Synthesizer tests: worklist behavior, deduction verdicts, enumeration
order, and end-to-end search on the forum task."""

import gc
import json
import pathlib
import weakref

import pytest

from docsynth.absint import Sketch
from docsynth.errors import TaskError
from docsynth.lang import CollectionRef, Match, TRUE, ast_size
from docsynth.interp import eval_query
from docsynth.synth import (
    Example,
    Search,
    SynthesisConfig,
    SynthesisTask,
    complete_sketch,
    constant_pool,
    deduce,
    enumerate_predicates,
    refine,
    synthesize,
)
from docsynth import synth as synth_module
from docsynth.taskio import load_task
from docsynth.text import render_pred, render_query
from docsynth.types import compute_schema

from .conftest import reddit_posts_result
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
        # 3 input posts vs 2 output rows: the identity-size chain is UNSAT
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
        preds = list(enumerate_predicates(docs, [("d",)], [0, 1]))
        rendered = [render_pred(p) for p in preds]
        assert "d > 0" in rendered
        assert "d >= 1" not in rendered  # same class as d > 0
        assert "d != 0" not in rendered  # likewise
        # every representative has a distinct truth vector by construction
        assert rendered == ["true", "false", "d = 0", "d > 0", "d = 1",
                            "d <= 1", "d > 1", "d != 1"]

    def test_no_constants_leaves_exists_tiers(self):
        docs = [{"d": 1}, {}]
        preds = list(enumerate_predicates(docs, [("d",)], []))
        assert [render_pred(p) for p in preds] == \
            ["true", "false", "Exists(d)", "!(Exists(d))"]

    def test_connectives_respect_atom_budget(self):
        docs = [{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0}, {"a": 1, "b": 1}]
        paths = [("a",), ("b",)]
        big = list(enumerate_predicates(docs, paths, [1]))
        assert any("&&" in render_pred(p) for p in big)
        # a = 1 && b = 1 reaches a class no single atom covers
        assert "(a = 1 && b = 1)" in [render_pred(p) for p in big]


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


class TestValidation:
    def test_examples_required(self):
        with pytest.raises(TaskError):
            SynthesisTask({"c": compute_schema({"c": [{"a": 1}]})["c"]}, "c", ())

    def test_unknown_collection(self):
        db = {"c": [{"a": 1}]}
        with pytest.raises(TaskError):
            SynthesisTask(compute_schema(db), "other", (Example(db, []),))

    def test_nonconforming_input(self):
        schema = compute_schema({"c": [{"a": 1}]})
        with pytest.raises(TaskError):
            SynthesisTask(schema, "c", (Example({"c": [{"a": "str"}]}, []),))

    def test_config_bounds(self):
        with pytest.raises(TaskError):
            SynthesisConfig(max_pipeline_depth=0)
        with pytest.raises(TaskError):
            SynthesisConfig(timeout_seconds=0)
