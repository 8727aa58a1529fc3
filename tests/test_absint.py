"""Sketch abstract-evaluation tests, centered on the forum worked example."""

import json
import random
from pathlib import Path

import pytest

from docsynth.absint import AbsEvalContext, Sketch, abs_eval, array_paths
from docsynth.abstraction import abstract_db_of, concretizes, from_doc_type
from docsynth.errors import MalformedQueryError, UnknownCollectionError
from docsynth.sizes import SizeFormula
from docsynth.synth import lenient_doc_type
from docsynth.types import ArrayT, DocT, NUM, STRING, compute_schema, infer_collection_type
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


def forum_adb():
    return abstract_db_of(FORUM_DB, compute_schema(FORUM_DB))


class TestSketch:
    def test_skeleton_of_forum_query(self):
        assert skeleton(forum_query()) == OMEGA_3

    def test_bad_tag(self):
        with pytest.raises(MalformedQueryError):
            Sketch("posts", ("sort",))


class TestAbsEval:
    def test_bare_collection(self):
        lam = abs_eval(AbsEvalContext(forum_adb(), OUT_TYPE), OMEGA_1)
        assert len(lam) == 1
        assert lam[0].doc_type.render() == "{_id: String, title: String, replies: Arr⟨{depth: Num}⟩}"
        assert lam[0].formula.render() == "l₀=3"

    def test_three_stage_sketch(self):
        lam = abs_eval(AbsEvalContext(forum_adb(), OUT_TYPE), OMEGA_2)
        assert len(lam) == 1
        assert lam[0].doc_type.render() == "{title: String}"
        assert lam[0].formula.render() == "l₀=3 ∧ l₁∈ℕ ∧ l₂≤l₁ ∧ l₃=l₂"

    def test_six_stage_sketch(self):
        lam = abs_eval(AbsEvalContext(forum_adb(), OUT_TYPE), OMEGA_3)
        rendered = sorted(ac.doc_type.render() for ac in lam)
        assert rendered == ["{?⁺₀: Any, ?⁺₃: Num}", "{?⁺₀: Any}"]
        for ac in lam:
            assert ac.formula.render() == (
                "l₀=3 ∧ l₁∈ℕ ∧ l₂≤l₁ ∧ l₃<l₂ ∧ l₄=l₃ ∧ l₅≤l₄ ∧ l₆=l₅"
            )
            assert len(ac.formula.ops) == 6

    def test_feasibility_of_the_three_sketches(self):
        adb = forum_adb()
        out_t = infer_collection_type(FORUM_OUT)
        verdicts = []
        for sk in (OMEGA_1, OMEGA_2, OMEGA_3):
            lam = abs_eval(AbsEvalContext(adb, OUT_TYPE), sk)
            verdicts.append(
                any(concretizes(FORUM_OUT, ac, doc_type=out_t) for ac in lam)
            )
        assert verdicts == [False, False, True]

    def test_unwind_requires_array(self):
        db = {"flat": [{"a": 1}]}
        adb = abstract_db_of(db, compute_schema(db))
        assert abs_eval(AbsEvalContext(adb, DocT({"a": NUM})), Sketch("flat", ("unwind",))) == []

    def test_unwind_branches_per_array_path(self):
        schema = {
            "c": ArrayT(DocT({
                "xs": ArrayT(NUM),
                "meta": DocT({"ys": ArrayT(STRING)}),
            })),
        }
        adb = abstract_db_of({"c": [{}]}, schema)
        lam = abs_eval(AbsEvalContext(adb, DocT({})), Sketch("c", ("unwind",)))
        rendered = sorted(ac.doc_type.render() for ac in lam)
        assert rendered == [
            "{xs: Arr⟨Num⟩, meta: {ys: String}}",
            "{xs: Num, meta: {ys: Arr⟨String⟩}}",
        ]

    def test_lookup_branches_per_collection_and_dedups(self):
        schema = {
            "a": ArrayT(DocT({"x": NUM})),
            "b": ArrayT(DocT({"y": STRING})),
        }
        adb = abstract_db_of({"a": [], "b": []}, schema)
        lam = abs_eval(AbsEvalContext(adb, DocT({})), Sketch("a", ("lookup",)))
        rendered = sorted(ac.doc_type.render() for ac in lam)
        assert rendered == [
            "{x: Num, ?¹₁: Arr⟨{x: Num}⟩}",
            "{x: Num, ?¹₁: Arr⟨{y: String}⟩}",
        ]
        # identical foreign types collapse
        schema2 = {"a": ArrayT(DocT({"x": NUM})), "a2": ArrayT(DocT({"x": NUM}))}
        adb2 = abstract_db_of({"a": [], "a2": []}, schema2)
        assert len(abs_eval(AbsEvalContext(adb2, DocT({})), Sketch("a", ("lookup",)))) == 1

    def test_group_respects_key_bound(self):
        db = {"c": [{"a": 1, "b": "s", "d": True}]}
        adb = abstract_db_of(db, compute_schema(db))
        lam1 = abs_eval(AbsEvalContext(adb, DocT({}), max_group_keys=1), Sketch("c", ("group",)))
        lam2 = abs_eval(AbsEvalContext(adb, DocT({}), max_group_keys=2), Sketch("c", ("group",)))
        # 3 singletons (x2 for the optional aggregate) vs + 3 pairs (x2)
        assert len(lam1) == 6
        assert len(lam2) == 12

    def test_repeated_add_fields_collapse(self):
        db = {"c": [{"a": 1}]}
        adb = abstract_db_of(db, compute_schema(db))
        lam = abs_eval(AbsEvalContext(adb, DocT({})), Sketch("c", ("add_fields", "add_fields")))
        assert len(lam) == 1
        assert lam[0].doc_type.render() == "{a: Num, ?⁺₀: Any}"

    def test_unknown_collection(self):
        with pytest.raises(UnknownCollectionError):
            abs_eval(AbsEvalContext(forum_adb(), OUT_TYPE), Sketch("nope", ()))

    def test_formula_matches_sketch_formula(self):
        ctx = AbsEvalContext(forum_adb(), OUT_TYPE)
        lam = abs_eval(ctx, OMEGA_3)
        # the formula is the collection's l0 and the spine's stage kinds,
        # which deduction's size half folds without Λ
        f = SizeFormula(3, ("unwind", "match", "group", "add_fields", "match", "project"))
        assert f.ops == OMEGA_3.ops
        assert all(ac.formula == f for ac in lam)

    def test_atom_count_invariant(self):
        adb = forum_adb()
        for sk in (OMEGA_1, OMEGA_2, OMEGA_3):
            for ac in abs_eval(AbsEvalContext(adb, OUT_TYPE), sk):
                assert ac.formula.ground == 3
                assert len(ac.formula.ops) == sk.depth


class TestAbsEvalMemo:
    # Λ of a spine reuses the interned steps of earlier spines; whatever order
    # the spines are visited in, that must give what a fresh fold gives, down to
    # placeholder labels and the order of Λ's members
    def test_shared_memo_matches_fresh_memo_in_any_order(self):
        with_lookup = 0
        for seed in range(12):
            db, coll, _, output, _ = gen_pair(seed)
            adb = abstract_db_of(db, compute_schema(db))
            out_type = lenient_doc_type(output)
            spines = list(all_sketches(coll, 3))
            random.Random(seed).shuffle(spines)
            shared = AbsEvalContext(adb, out_type)
            for sk in spines:
                got = abs_eval(shared, sk)
                want = abs_eval(AbsEvalContext(adb, out_type), sk)
                assert got == want, f"seed {seed}, {sk.ops}"
                assert [ac.render() for ac in got] == [ac.render() for ac in want], (
                    f"seed {seed}, {sk.ops}"
                )
            with_lookup += len(adb) > 1
        assert with_lookup > 0  # spines with two lookups, whose labels must not collide

    def test_memo_entries_share_objects(self):
        ctx = AbsEvalContext(forum_adb(), OUT_TYPE)
        a = abs_eval(ctx, Sketch("posts", ("match", "project")))
        b = abs_eval(ctx, Sketch("posts", ("project", "match")))
        c = abs_eval(ctx, Sketch("posts", ("add_fields", "match")))
        # one object per type, and one formula value per sequence of stage kinds
        assert a[0].doc_type is b[0].doc_type
        assert b[0].formula == SizeFormula(3, ("project", "match"))
        assert a[0].formula != b[0].formula != c[0].formula


class TestHelpers:
    def test_array_paths(self):
        t = from_doc_type(DocT({
            "xs": ArrayT(NUM),
            "meta": DocT({"ys": ArrayT(STRING), "z": NUM}),
        }))
        assert array_paths(t) == [("xs",), ("meta", "ys")]

    def test_render_lambda(self):
        lam = abs_eval(AbsEvalContext(forum_adb(), OUT_TYPE), OMEGA_2)
        assert [ac.render() for ac in lam] == ["({title: String}, l₀=3 ∧ l₁∈ℕ ∧ l₂≤l₁ ∧ l₃=l₂)"]

    def test_sketch_render(self):
        assert OMEGA_2.render() == "Project(Match(Unwind(posts, ·), ·), ·)"
