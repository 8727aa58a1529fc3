"""Sketch abstract-evaluation tests, centered on the forum worked example."""

import json
import random
from pathlib import Path

import pytest

from docsynth.absint import AbsEvalContext, Sketch, abs_eval
from docsynth.abstraction import concretizes
from docsynth.errors import MalformedQueryError, UnknownCollectionError
from docsynth.sizes import reachable
from docsynth.types import (
    ArrayT, DocT, NUM, STRING, compute_schema, infer_collection_type, lenient_doc_type,
)
from .generators import gen_pair
from .oracles import skeleton
from .test_lang import forum_query
from .test_pruning_properties import all_sketches

GOLDEN = json.loads((Path(__file__).parent / "golden" / "replay_stages.json").read_text())

FORUM_DB = GOLDEN["input"]
FORUM_OUT = GOLDEN["stages"][5]
OUT_TYPE = DocT({"reply_count": NUM, "title": STRING})

OMEGA_1 = Sketch("posts", ())
OMEGA_2 = Sketch("posts", ("unwind", "match", "project"))
OMEGA_3 = Sketch("posts", ("unwind", "match", "group", "add_fields", "match", "project"))


def forum_schema():
    return compute_schema(FORUM_DB)


class TestSketch:
    def test_skeleton_of_forum_query(self):
        assert skeleton(forum_query()) == OMEGA_3

    def test_bad_tag(self):
        with pytest.raises(MalformedQueryError):
            Sketch("posts", ("sort",))


class TestAbsEval:
    def test_bare_collection(self):
        lam = abs_eval(AbsEvalContext(forum_schema(), OUT_TYPE), OMEGA_1)
        assert len(lam) == 1
        assert lam[0].render() == "{_id: String, title: String, replies: Arr⟨{depth: Num}⟩}"

    def test_three_stage_sketch(self):
        lam = abs_eval(AbsEvalContext(forum_schema(), OUT_TYPE), OMEGA_2)
        assert len(lam) == 1
        assert lam[0].render() == "{title: String}"

    def test_six_stage_sketch(self):
        lam = abs_eval(AbsEvalContext(forum_schema(), OUT_TYPE), OMEGA_3)
        rendered = sorted(t.render() for t in lam)
        assert rendered == ["{?⁺₀: Any, ?⁺₃: Num}", "{?⁺₀: Any}"]

    def test_feasibility_of_the_three_sketches(self):
        schema = forum_schema()
        out_t = infer_collection_type(FORUM_OUT)
        verdicts = []
        for sk in (OMEGA_1, OMEGA_2, OMEGA_3):
            lam = abs_eval(AbsEvalContext(schema, OUT_TYPE), sk)
            verdicts.append(
                any(concretizes(FORUM_OUT, t, doc_type=out_t) for t in lam)
            )
        assert verdicts == [False, False, True]

    def test_unwind_requires_array(self):
        schema = compute_schema({"flat": [{"a": 1}]})
        assert abs_eval(AbsEvalContext(schema, DocT({"a": NUM})), Sketch("flat", ("unwind",))) == ()

    def test_unwind_branches_per_array_path(self):
        schema = {
            "c": ArrayT(DocT({
                "xs": ArrayT(NUM),
                "meta": DocT({"ys": ArrayT(STRING)}),
            })),
        }
        lam = abs_eval(AbsEvalContext(schema, DocT({})), Sketch("c", ("unwind",)))
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
        lam = abs_eval(AbsEvalContext(schema, DocT({})), Sketch("a", ("lookup",)))
        rendered = sorted(t.render() for t in lam)
        assert rendered == [
            "{x: Num, ?¹₁: Arr⟨{x: Num}⟩}",
            "{x: Num, ?¹₁: Arr⟨{y: String}⟩}",
        ]
        # identical foreign types collapse
        schema2 = {"a": ArrayT(DocT({"x": NUM})), "a2": ArrayT(DocT({"x": NUM}))}
        assert len(abs_eval(AbsEvalContext(schema2, DocT({})), Sketch("a", ("lookup",)))) == 1

    def test_group_respects_key_bound(self):
        schema = compute_schema({"c": [{"a": 1, "b": "s", "d": True}]})
        lam1 = abs_eval(AbsEvalContext(schema, DocT({}), max_group_keys=1), Sketch("c", ("group",)))
        lam2 = abs_eval(AbsEvalContext(schema, DocT({}), max_group_keys=2), Sketch("c", ("group",)))
        # 3 singletons (x2 for the optional aggregate) vs + 3 pairs (x2)
        assert len(lam1) == 6
        assert len(lam2) == 12

    def test_repeated_add_fields_collapse(self):
        schema = compute_schema({"c": [{"a": 1}]})
        lam = abs_eval(AbsEvalContext(schema, DocT({})), Sketch("c", ("add_fields", "add_fields")))
        assert len(lam) == 1
        assert lam[0].render() == "{a: Num, ?⁺₀: Any}"

    def test_unknown_collection(self):
        with pytest.raises(UnknownCollectionError):
            abs_eval(AbsEvalContext(forum_schema(), OUT_TYPE), Sketch("nope", ()))

    def test_size_half_of_the_three_sketches(self):
        # the size half needs no Λ: the 3 input posts folded through each
        # spine's stage kinds reach the 2 output rows except on the bare spine
        assert len(FORUM_DB["posts"]) == 3 and len(FORUM_OUT) == 2
        assert [reachable(3, sk.ops, 2) for sk in (OMEGA_1, OMEGA_2, OMEGA_3)] == [
            False, True, True,
        ]


class TestAbsEvalMemo:
    # Λ of a spine reuses the interned steps of earlier spines; whatever order
    # the spines are visited in, that must give what a fresh fold gives, down to
    # placeholder labels and the order of Λ's members
    def test_shared_memo_matches_fresh_memo_in_any_order(self):
        with_lookup = 0
        for seed in range(12):
            db, coll, _, output, _ = gen_pair(seed)
            schema = compute_schema(db)
            out_type = lenient_doc_type(output)
            spines = list(all_sketches(coll, 3))
            random.Random(seed).shuffle(spines)
            shared = AbsEvalContext(schema, out_type)
            for sk in spines:
                got = abs_eval(shared, sk)
                want = abs_eval(AbsEvalContext(schema, out_type), sk)
                assert got == want, f"seed {seed}, {sk.ops}"
                assert [t.render() for t in got] == [t.render() for t in want], (
                    f"seed {seed}, {sk.ops}"
                )
            with_lookup += len(schema) > 1
        assert with_lookup > 0  # spines with two lookups, whose labels must not collide

    def test_memo_entries_share_objects(self):
        ctx = AbsEvalContext(forum_schema(), OUT_TYPE)
        a = abs_eval(ctx, Sketch("posts", ("match", "project")))
        b = abs_eval(ctx, Sketch("posts", ("project", "match")))
        c = abs_eval(ctx, Sketch("posts", ("add_fields", "match")))
        # one object per type, and one tuple object per sequence of types
        assert a[0] is b[0]
        assert a is b
        assert abs_eval(ctx, Sketch("posts", ("match", "project"))) is a
        assert c[0] != a[0]


class TestHelpers:
    def test_array_paths(self):
        # Unwind branches on every array path that crosses no array, in
        # lexicographic order of the paths
        schema = {"c": ArrayT(DocT({
            "xs": ArrayT(NUM),
            "meta": DocT({"ys": ArrayT(STRING), "z": NUM}),
            "zs": ArrayT(DocT({"w": ArrayT(NUM)})),
        }))}
        lam = abs_eval(AbsEvalContext(schema, DocT({})), Sketch("c", ("unwind",)))
        assert [t.render() for t in lam] == [
            "{xs: Arr⟨Num⟩, meta: {ys: String, z: Num}, zs: Arr⟨{w: Arr⟨Num⟩}⟩}",
            "{xs: Num, meta: {ys: Arr⟨String⟩, z: Num}, zs: Arr⟨{w: Arr⟨Num⟩}⟩}",
            "{xs: Arr⟨Num⟩, meta: {ys: Arr⟨String⟩, z: Num}, zs: {w: Arr⟨Num⟩}}",
        ]

    def test_sketch_render(self):
        assert OMEGA_2.render() == "Project(Match(Unwind(posts, ·), ·), ·)"
