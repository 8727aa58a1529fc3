"""Sketch abstract-evaluation tests, centered on the forum worked example.

A sketch is its tuple of stage kinds, innermost first, over the collection
its context is built for."""

import json
import random
from pathlib import Path

from docsynth import synth
from docsynth.absint import AbsEvalContext, abs_eval
from docsynth.abstraction import concretizes
from docsynth.sizes import reachable
from docsynth.taskio import load_task
from docsynth.types import (
    ArrayT, DocT, NUM, STRING, compute_schema, infer_collection_type, lenient_doc_type,
)
from .generators import gen_pair
from .oracles import skeleton
from .test_lang import forum_query
from .test_lambda_golden import render_spine
from .test_pruning_properties import all_spines

GOLDEN = json.loads((Path(__file__).parent / "golden" / "replay_stages.json").read_text())
TASKS_DIR = Path(__file__).parent.parent / "tasks"

FORUM_DB = GOLDEN["input"]
FORUM_OUT = GOLDEN["stages"][5]
OUT_TYPE = DocT({"reply_count": NUM, "title": STRING})

OMEGA_1 = ()
OMEGA_2 = ("unwind", "match", "project")
OMEGA_3 = ("unwind", "match", "group", "add_fields", "match", "project")


def forum_schema():
    return compute_schema(FORUM_DB)


def context(schema, out_type, collection="posts", max_group_keys=2):
    return AbsEvalContext(schema, collection, out_type, max_group_keys)


class TestSketch:
    def test_skeleton_of_forum_query(self):
        assert skeleton(forum_query()) == OMEGA_3


class TestAbsEval:
    def test_bare_collection(self):
        lam = abs_eval(context(forum_schema(), OUT_TYPE), OMEGA_1)
        assert len(lam) == 1
        assert lam[0].render() == "{_id: String, title: String, replies: Arr⟨{depth: Num}⟩}"

    def test_three_stage_sketch(self):
        lam = abs_eval(context(forum_schema(), OUT_TYPE), OMEGA_2)
        assert len(lam) == 1
        assert lam[0].render() == "{title: String}"

    def test_six_stage_sketch(self):
        lam = abs_eval(context(forum_schema(), OUT_TYPE), OMEGA_3)
        rendered = sorted(t.render() for t in lam)
        assert rendered == ["{?⁺: Any, ?⁺: Num}", "{?⁺: Any}"]

    def test_feasibility_of_the_three_sketches(self):
        schema = forum_schema()
        out_t = infer_collection_type(FORUM_OUT)
        verdicts = []
        for ops in (OMEGA_1, OMEGA_2, OMEGA_3):
            lam = abs_eval(context(schema, OUT_TYPE), ops)
            verdicts.append(
                any(concretizes(FORUM_OUT, t, doc_type=out_t) for t in lam)
            )
        assert verdicts == [False, False, True]

    def test_unwind_requires_array(self):
        schema = compute_schema({"flat": [{"a": 1}]})
        assert abs_eval(context(schema, DocT({"a": NUM}), "flat"), ("unwind",)) == ()

    def test_unwind_branches_per_array_path(self):
        schema = {
            "c": ArrayT(DocT({
                "xs": ArrayT(NUM),
                "meta": DocT({"ys": ArrayT(STRING)}),
            })),
        }
        lam = abs_eval(context(schema, DocT({}), "c"), ("unwind",))
        rendered = sorted(t.render() for t in lam)
        assert rendered == [
            "{xs: Arr⟨Num⟩, meta: {ys: String}}",
            "{xs: Num, meta: {ys: Arr⟨String⟩}}",
        ]

    def test_lookup_branches_per_collection_and_dedups(self):
        schema = {
            "a": ArrayT(DocT({"x": NUM})),
            "b": ArrayT(DocT({"y": STRING})),
        }
        lam = abs_eval(context(schema, DocT({}), "a"), ("lookup",))
        rendered = sorted(t.render() for t in lam)
        assert rendered == [
            "{x: Num, ?¹: Arr⟨{x: Num}⟩}",
            "{x: Num, ?¹: Arr⟨{y: String}⟩}",
        ]
        # identical foreign types collapse
        schema2 = {"a": ArrayT(DocT({"x": NUM})), "a2": ArrayT(DocT({"x": NUM}))}
        assert len(abs_eval(context(schema2, DocT({}), "a"), ("lookup",))) == 1

    def test_group_respects_key_bound(self):
        schema = compute_schema({"c": [{"a": 1, "b": "s", "d": True}]})
        lam1 = abs_eval(context(schema, DocT({}), "c", max_group_keys=1), ("group",))
        lam2 = abs_eval(context(schema, DocT({}), "c", max_group_keys=2), ("group",))
        # 3 singletons (x2 for the optional aggregate) vs + 3 pairs (x2)
        assert len(lam1) == 6
        assert len(lam2) == 12

    def test_repeated_add_fields_collapse(self):
        schema = compute_schema({"c": [{"a": 1}]})
        lam = abs_eval(context(schema, DocT({}), "c"), ("add_fields", "add_fields"))
        assert len(lam) == 1
        assert lam[0].render() == "{a: Num, ?⁺: Any}"

    def test_size_half_of_the_three_sketches(self):
        # the size half needs no Λ: the 3 input posts folded through each
        # spine's stage kinds reach the 2 output rows except on the bare spine
        assert len(FORUM_DB["posts"]) == 3 and len(FORUM_OUT) == 2
        assert [reachable(3, ops, 2) for ops in (OMEGA_1, OMEGA_2, OMEGA_3)] == [
            False, True, True,
        ]


class TestAbsEvalMemo:
    # Λ of a spine reuses the interned steps of earlier spines; whatever order
    # the spines are visited in, that must give what a fresh fold gives, down to
    # the renders and the order of Λ's members
    def test_shared_memo_matches_fresh_memo_in_any_order(self):
        with_lookup = 0
        for seed in range(12):
            db, coll, _, output, _ = gen_pair(seed)
            schema = compute_schema(db)
            out_type = lenient_doc_type(output)
            spines = list(all_spines(3))
            random.Random(seed).shuffle(spines)
            shared = context(schema, out_type, coll)
            for ops in spines:
                got = abs_eval(shared, ops)
                want = abs_eval(context(schema, out_type, coll), ops)
                assert got == want, f"seed {seed}, {ops}"
                assert [t.render() for t in got] == [t.render() for t in want], (
                    f"seed {seed}, {ops}"
                )
            with_lookup += len(schema) > 1
        assert with_lookup > 0  # spines with two lookups, whose two ?¹ must both stay

    def test_memo_entries_share_objects(self):
        ctx = context(forum_schema(), OUT_TYPE)
        a = abs_eval(ctx, ("match", "project"))
        b = abs_eval(ctx, ("project", "match"))
        c = abs_eval(ctx, ("add_fields", "match"))
        # one object per type, and one tuple object per sequence of types
        assert a[0] is b[0]
        assert a is b
        assert abs_eval(ctx, ("match", "project")) is a
        assert c[0] != a[0]

    def test_interning_counts_on_hard_unwind_group(self, monkeypatch):
        # wrap the two layer functions deduction calls through synth's
        # globals, as the benchmark tracer does; a change to interning or to
        # the step memo shows up in these counts
        contexts, calls = {}, [0]
        real_abs_eval, real_concretizes = synth.abs_eval, synth.concretizes

        def counted_abs_eval(ctx, ops):
            contexts[id(ctx)] = ctx
            return real_abs_eval(ctx, ops)

        def counted_concretizes(*args, **kw):
            calls[0] += 1
            return real_concretizes(*args, **kw)

        monkeypatch.setattr(synth, "abs_eval", counted_abs_eval)
        monkeypatch.setattr(synth, "concretizes", counted_concretizes)
        result = synth.synthesize(load_task(str(TASKS_DIR / "hard_unwind_group.json")))
        assert result.status == "success"
        assert calls[0] == 45
        assert sum(len(ctx._steps) for ctx in contexts.values()) == 87
        assert sum(len(ctx._types) for ctx in contexts.values()) == 120


class TestHelpers:
    def test_array_paths(self):
        # Unwind branches on every array path that crosses no array, in
        # lexicographic order of the paths
        schema = {"c": ArrayT(DocT({
            "xs": ArrayT(NUM),
            "meta": DocT({"ys": ArrayT(STRING), "z": NUM}),
            "zs": ArrayT(DocT({"w": ArrayT(NUM)})),
        }))}
        lam = abs_eval(context(schema, DocT({}), "c"), ("unwind",))
        assert [t.render() for t in lam] == [
            "{xs: Arr⟨Num⟩, meta: {ys: String, z: Num}, zs: Arr⟨{w: Arr⟨Num⟩}⟩}",
            "{xs: Num, meta: {ys: Arr⟨String⟩, z: Num}, zs: Arr⟨{w: Arr⟨Num⟩}⟩}",
            "{xs: Arr⟨Num⟩, meta: {ys: Arr⟨String⟩, z: Num}, zs: {w: Arr⟨Num⟩}}",
        ]

    def test_sketch_render(self):
        assert render_spine("posts", OMEGA_2) == "Project(Match(Unwind(posts, ·), ·), ·)"
