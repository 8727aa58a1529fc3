"""Pipeline translation: stage shapes, goldens, merge rules, replay."""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings

from docsynth.interp import eval_query
from docsynth.lang import (
    AddFields, And, Arith, Cmp, CollectionRef, Count, Exists, FALSE, FnCall,
    Group, Lookup, Match, Not, Or, PathExpr, Project, SizeEq, TRUE, Unwind,
)
from docsynth.mongo import (
    optimize,
    render_shell,
    render_stage,
    translate,
)
from docsynth.text import parse_query
from docsynth.values import Datetime, ObjectId, database_to_json, value_to_json

from . import oracles
from .test_lang import forum_query, queries

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
C = CollectionRef("c")


def stage_of(q):
    _, pipe = translate(q)
    return pipe[-1]


class TestStageShapes:
    def test_bare_collection(self):
        assert translate(CollectionRef("posts")) == ("posts", [])
        assert render_shell("posts", []) == "db.posts.aggregate([])"

    def test_project_suppresses_id_when_absent(self):
        assert stage_of(Project(C, (("a",), ("b", "c")))) == \
            {"$project": {"_id": 0, "a": 1, "b.c": 1}}

    def test_project_keeps_id_when_projected(self):
        assert stage_of(Project(C, (("_id",), ("a",)))) == \
            {"$project": {"_id": 1, "a": 1}}

    def test_project_below_id_keeps_id(self):
        # the interpreter returns {_id: {title: ...}}; `_id: 0` beside
        # "_id.title" is a path collision on a server
        assert stage_of(Project(C, (("_id", "title"),))) == \
            {"$project": {"_id.title": 1}}

    def test_match_comparisons(self):
        assert stage_of(Match(C, Cmp(("a",), "=", 3))) == {"$match": {"a": {"$eq": 3}}}
        assert stage_of(Match(C, Cmp(("a", "b"), "<=", 0))) == \
            {"$match": {"a.b": {"$lte": 0}}}
        assert stage_of(Match(C, Cmp(("a",), "!=", None))) == {"$match": {"a": {"$ne": None}}}

    def test_match_true_false(self):
        assert stage_of(Match(C, TRUE)) == {"$match": {}}
        assert stage_of(Match(C, FALSE)) == {"$match": {"$nor": [{}]}}

    def test_match_size_exists_connectives(self):
        assert stage_of(Match(C, SizeEq(("h",), 2))) == {"$match": {"h": {"$size": 2}}}
        assert stage_of(Match(C, Exists(("h",)))) == {"$match": {"h": {"$exists": True}}}
        got = stage_of(Match(C, And(Cmp(("a",), ">", 1), Or(TRUE, Exists(("b",))))))
        assert got == {"$match": {"$and": [{"a": {"$gt": 1}},
                                           {"$or": [{}, {"b": {"$exists": True}}]}]}}

    def test_match_negations(self):
        assert stage_of(Match(C, Not(Cmp(("a",), "<", 5)))) == \
            {"$match": {"a": {"$not": {"$lt": 5}}}}
        assert stage_of(Match(C, Not(Exists(("a",))))) == \
            {"$match": {"a": {"$exists": False}}}
        assert stage_of(Match(C, Not(And(TRUE, TRUE)))) == \
            {"$match": {"$nor": [{"$and": [{}, {}]}]}}

    def test_add_fields_expressions(self):
        q = AddFields(C, (("t",), ("u",), ("v",)),
                      (PathExpr(("a", "b")),
                       Arith(("x",), "*", ("y",)),
                       FnCall("floor", ("z",))))
        assert stage_of(q) == {"$addFields": {
            "t": "$a.b",
            "u": {"$multiply": ["$x", "$y"]},
            "v": {"$floor": "$z"},
        }}

    def test_unwind(self):
        assert stage_of(Unwind(C, ("replies",))) == {"$unwind": "$replies"}

    def test_group_single_key_is_key_document(self):
        # interp keys every group by the document {last segment: value}
        q = Group(C, (("info", "title"),), ("n",), (Count(),))
        assert stage_of(q) == {"$group": {"_id": {"title": "$info.title"}, "n": {"$count": {}}}}

    def test_group_multi_key_document_uses_last_segments(self):
        q = Group(C, (("info", "name"), ("cls",)), (), ())
        assert stage_of(q) == {"$group": {"_id": {"name": "$info.name", "cls": "$cls"}}}

    def test_lookup_fields(self):
        q = Lookup(C, ("cust", "id"), ("id",), "customers", "orders")
        assert stage_of(q) == {"$lookup": {
            "from": "customers", "localField": "cust.id",
            "foreignField": "id", "as": "orders"}}

    def test_stage_per_operator(self):
        _, pipe = translate(forum_query())
        assert [next(iter(s)) for s in pipe] == \
            ["$unwind", "$match", "$group", "$addFields", "$match", "$project"]


class TestGoldens:
    def test_forum_pipeline_byte_for_byte(self):
        coll, pipe = translate(forum_query())
        want = json.loads((GOLDEN_DIR / "answers.json").read_text())["reddit_posts"]["pipeline"]
        assert render_shell(coll, pipe) == want
        # no merge rule applies here, optimizing changes nothing
        assert optimize(pipe) == pipe

    def test_group_two_keys_byte_for_byte(self):
        q = parse_query("Group(coll, [name, class], [total], [Sum(info.score)])")
        coll, pipe = translate(q)
        want = (GOLDEN_DIR / "group_two_keys.txt").read_text()
        assert render_shell(coll, pipe) + "\n" == want


class TestRenderStage:
    def test_quoting_rules(self):
        assert render_stage({"$match": {"a.b": {"$eq": "x y"}}}) == \
            '{$match: {"a.b": {$eq: "x y"}}}'

    def test_scalar_forms(self):
        s = render_stage({"$match": {"a": {"$eq": None}, "b": {"$eq": True}, "c": {"$eq": 1.5}}})
        assert s == "{$match: {a: {$eq: null}, b: {$eq: true}, c: {$eq: 1.5}}}"

    def test_non_finite_numbers_use_js_globals(self):
        nan, inf = float("nan"), float("inf")
        s = render_stage({"$match": {"a": {"$eq": nan}, "b": {"$eq": inf}, "c": {"$eq": -inf}}})
        assert s == "{$match: {a: {$eq: NaN}, b: {$eq: Infinity}, c: {$eq: -Infinity}}}"

    def test_datetime_renders_extended_tag(self):
        s = render_stage({"$match": {"d": {"$eq": Datetime("2020-01-01T00:00:00Z")}}})
        assert s == '{$match: {d: {$eq: {$date: "2020-01-01T00:00:00Z"}}}}'


class TestOptimize:
    def test_empty(self):
        assert optimize([]) == []

    def test_no_rule_applies(self):
        _, pipe = translate(Unwind(Match(C, TRUE), ("h",)))
        assert optimize(pipe) == pipe

    def test_adjacent_add_fields_merge(self):
        pipe = [{"$addFields": {"a": "$x"}}, {"$addFields": {"b": "$y"}}]
        assert optimize(pipe) == [{"$addFields": {"a": "$x", "b": "$y"}}]

    def test_add_fields_reading_new_field_not_merged(self):
        pipe = [{"$addFields": {"a": "$x"}}, {"$addFields": {"b": "$a"}}]
        assert optimize(pipe) == pipe

    @pytest.mark.parametrize("targets", [("x.y", "x"), ("x", "x.y")])
    def test_add_fields_setting_overlapping_paths_not_merged(self, targets):
        # one stage that sets both a path and its prefix is a path collision
        first, second = targets
        pipe = [{"$addFields": {first: "$p"}}, {"$addFields": {second: "$q"}}]
        assert optimize(pipe) == pipe

    def test_adjacent_projects_compose(self):
        pipe = [{"$project": {"_id": 0, "a": 1, "b": 1}}, {"$project": {"_id": 0, "a": 1}}]
        assert optimize(pipe) == [{"$project": {"_id": 0, "a": 1}}]

    def test_projects_survive_via_ancestor(self):
        pipe = [{"$project": {"_id": 0, "a": 1}}, {"$project": {"_id": 0, "a.b": 1}}]
        assert optimize(pipe) == [{"$project": {"_id": 0, "a.b": 1}}]

    def test_projects_below_id_compose_without_excluding_id(self):
        pipe = [{"$project": {"_id": 1, "a": 1}}, {"$project": {"_id.title": 1}}]
        assert optimize(pipe) == [{"$project": {"_id.title": 1}}]
        _, pipe = translate(Project(Project(C, (("_id",), ("a",))), (("_id", "title"),)))
        assert optimize(pipe) == [{"$project": {"_id.title": 1}}]

    def test_projects_drop_id_the_first_stage_dropped(self):
        pipe = [{"$project": {"_id": 0, "a": 1}}, {"$project": {"_id": 1, "a": 1}}]
        assert optimize(pipe) == [{"$project": {"_id": 0, "a": 1}}]

    def test_non_composable_projects_untouched(self):
        pipe = [{"$project": {"_id": 0, "a": 1}}, {"$project": {"_id": 0, "z": 1}}]
        assert optimize(pipe) == pipe

    def test_add_fields_folds_into_project(self):
        pipe = [{"$addFields": {"t": "$x.y"}}, {"$project": {"_id": 0, "a": 1, "t": 1}}]
        assert optimize(pipe) == [{"$project": {"_id": 0, "a": 1, "t": "$x.y"}}]

    def test_fold_requires_all_added_fields_kept(self):
        pipe = [{"$addFields": {"t": "$x", "u": "$y"}}, {"$project": {"_id": 0, "t": 1}}]
        assert optimize(pipe) == pipe

    def test_chain_of_three_add_fields(self):
        pipe = [{"$addFields": {"a": "$x"}},
                {"$addFields": {"b": "$y"}},
                {"$addFields": {"c": "$z"}}]
        assert optimize(pipe) == [{"$addFields": {"a": "$x", "b": "$y", "c": "$z"}}]

    @given(queries())
    @settings(max_examples=60)
    def test_never_grows(self, q):
        _, pipe = translate(q)
        assert len(optimize(pipe)) <= len(pipe)


class TestReconstruction:
    """An optimized pipeline, read back from its stage documents by the
    independent `oracles.replay_pipeline`, gives what its query gives."""

    def test_replay_merged_add_fields(self):
        db = {"c": [{"x": 1, "y": 2}, {"x": 3, "y": 4}]}
        q = AddFields(AddFields(C, (("a",),), (PathExpr(("x",)),)),
                      (("b",),), (Arith(("x",), "+", ("y",)),))
        self._assert_replay_equal(db, q)

    def test_replay_composed_projects(self):
        db = {"c": [{"a": 1, "b": {"d": 2}, "e": 3}]}
        q = Project(Project(C, (("a",), ("b",))), (("b", "d"),))
        self._assert_replay_equal(db, q)

    def test_replay_folded_add_fields_project(self):
        db = {"c": [{"x": {"y": 7}, "a": 1}]}
        q = Project(AddFields(C, (("t",),), (PathExpr(("x", "y")),)), (("a",), ("t",)))
        self._assert_replay_equal(db, q)

    def test_replay_projects_below_id(self):
        db = {"c": [{"_id": {"title": "t", "n": 1}, "a": 2}]}
        q = Project(Project(C, (("_id",), ("a",))), (("_id", "title"),))
        self._assert_replay_equal(db, q)
        assert eval_query(db, q) == [{"_id": {"title": "t"}}]

    def test_replay_projects_drop_id_the_first_dropped(self):
        # the second $project asks for the `_id` the first dropped, and the
        # merged stage keeps none
        db = {"c": [{"_id": 7, "a": 1}]}
        self._assert_replay_equal(db, parse_query("Project(Project(c, [a]), [_id, a])"))

    def test_replay_add_fields_chain_into_project(self):
        # the second $addFields reads the first, so the $project it folds
        # into computes a field and the first must not fold into it
        db = {"c": [{"a": 1}]}
        q = parse_query("Project(AddFields(AddFields(c, [x], [a]), [y], [x]), [x, y])")
        self._assert_replay_equal(db, q)

    @pytest.mark.parametrize("text, docs", [
        pytest.param("AddFields(AddFields(c, [x], [a]), [y], [x])", [{"a": 1}],
                     id="add_fields_read_by_next"),
        pytest.param("AddFields(AddFields(c, [x], [a]), [x.y], [b])", [{"a": {"z": 1}, "b": 2}],
                     id="add_fields_set_below_previous"),
        pytest.param("Project(Project(c, [a]), [b])", [{"a": 1, "b": 2}],
                     id="project_keeps_what_previous_dropped"),
        pytest.param("Project(Project(c, [_id.title, a]), [_id, a])", [{"_id": {"title": 1, "n": 2}}],
                     id="project_keeps_id_previous_kept_below"),
        pytest.param("Project(Project(AddFields(c, [t], [x]), [t, a]), [t])", [{"x": 1, "a": 2}],
                     id="project_after_computing_project"),
        pytest.param("Project(AddFields(c, [x.y], [a]), [x])", [{"x": {"z": 1}, "a": 2}],
                     id="add_fields_kept_through_parent"),
    ])
    def test_replay_where_a_merge_rule_is_guarded(self, text, docs):
        # each case is a pipeline that one rule's guard keeps from merging;
        # past the guard, the oracle replay differs from the query
        self._assert_replay_equal({"c": docs}, parse_query(text), must_merge=False)

    @pytest.mark.parametrize("text, docs", [
        pytest.param("Group(c, [k], [m], [Min(d)])",
                     [{"k": 1, "d": Datetime("2024-02-01")}, {"k": 1, "d": Datetime("2024-01-01")}],
                     id="min_of_dates"),
        pytest.param("Group(c, [k], [m], [Max(d)])",
                     [{"k": 1, "d": ObjectId("0b")}, {"k": 1, "d": ObjectId("0a")}],
                     id="max_of_object_ids"),
        pytest.param("Group(c, [k], [m], [Max(d)])", [{"k": 1, "d": True}, {"k": 1, "d": 2}],
                     id="max_ranks_bool_above_number"),
        pytest.param("Group(c, [k], [m], [Min(d)])",
                     [{"k": 1, "d": Datetime("2024-01-01")}, {"k": 1, "d": "s"}, {"k": 1, "d": 3}],
                     id="min_across_kinds"),
        pytest.param("Group(c, [k], [m], [Avg(d)])", [{"k": 1, "d": 2}, {"k": 1, "d": "x"}],
                     id="avg_sums_numbers_over_non_nulls"),
        pytest.param("AddFields(c, [f, g], [floor(x), ceil(x)])", [{"x": math.inf}, {"x": -math.inf}],
                     id="rounding_keeps_infinities"),
    ])
    def test_replay_follows_the_interpreter(self, text, docs):
        # the oracle's aggregators and functions give what eval_query gives
        self._assert_replay_equal({"c": docs}, parse_query(text), must_merge=False)

    def test_replay_of_nan_and_infinite_dividends(self):
        # NaN equals nothing, so each computed value is checked to be NaN
        db = {"c": [{"x": math.nan, "y": math.inf, "b": 2}]}
        q = parse_query("AddFields(c, [f, g, m], [floor(x), ceil(x), y % b])")
        coll, pipe = translate(q)
        (got,) = oracles.replay_pipeline(database_to_json(db), coll, value_to_json(optimize(pipe)))
        (want,) = eval_query(db, q)
        assert all(math.isnan(d[k]) for d in (got, want) for k in ("f", "g", "m"))

    def test_replay_of_an_exact_integer_modulus(self):
        # $mod of two integers keeps every digit, beyond 2**53 too
        db = {"c": [{"x": 2**53 + 1, "y": 2}, {"x": -(10**20 + 7), "y": 10}]}
        q = parse_query("AddFields(c, [m], [x % y])")
        coll, pipe = translate(q)
        got = oracles.replay_pipeline(database_to_json(db), coll, value_to_json(optimize(pipe)))
        assert [d["m"] for d in got] == [d["m"] for d in eval_query(db, q)] == [1, -7]

    def test_rejects_bare_group_id(self):
        # the reader takes only the key document that translate emits
        with pytest.raises(ValueError):
            oracles.replay_pipeline({"c": []}, "c", [{"$group": {"_id": "$title"}}])

    @pytest.mark.parametrize("stage", [
        {"$group": {"_id": {"t": "$t"}, "n": {"$push": "$x"}}},
        {"$match": {"a": {"$in": [1]}}},
        {"$group": {"_id": {"t": {"$x": 1}}}},
        {"$project": {"a": "x"}},
        {"$project": {"_id": 0, "a": 0}},
        {"$unwind": 5},
        {"$unwind": "a"},
        {"$match": {"$where": "x"}},
        {"$match": {"$where": {"$eq": 1}}},
        {"$match": {"a": {"$exists": "no"}}},
        {"$match": {"$and": {"a": {"$eq": 1}}}},
        {"$lookup": {"from": "b"}},
        {"$lookup": {"from": "b", "localField": "k", "foreignField": "k", "as": "bs",
                     "pipeline": []}},
        {"$addFields": {"a": {"$add": ["$x"]}}},
        {"$match": {}, "$unwind": "$a"},
        5,
        {"$addFields": {"x": "$a", "x.y": "$b"}},
    ])
    def test_rejects_stage_bodies_it_does_not_know(self, stage):
        # a shape the reader does not know fails loudly instead of being misread
        with pytest.raises(ValueError):
            oracles.replay_pipeline({"c": [{"a": 1}]}, "c", [stage])

    def _assert_replay_equal(self, db, q, must_merge=True):
        coll, pipe = translate(q)
        merged = optimize(pipe)
        assert len(merged) < len(pipe) or not must_merge
        got = oracles.replay_pipeline(database_to_json(db), coll, value_to_json(merged))
        assert oracles.same_value(got, value_to_json(eval_query(db, q)))
