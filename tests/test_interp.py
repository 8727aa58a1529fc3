"""Interpreter tests: stage-by-stage golden replay plus the Null rules."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from docsynth.errors import UnknownCollectionError, UnwindNonArrayError
from docsynth.interp import (
    apply_stage, compare, eval_agg, eval_expr, eval_pred, eval_query, flatten, group_by,
)
from docsynth.lang import (
    AddFields, Arith, Avg, CollectionRef, Cmp, Count, Exists, FALSE, FnCall,
    Group, Lookup, Match, Max, Min, Not, PathExpr, Project, SizeEq, Sum, TRUE,
    Unwind,
)
from docsynth.values import collection_eq
from . import oracles
from .test_lang import forum_query

GOLDEN = json.loads((Path(__file__).parent / "golden" / "replay_stages.json").read_text())


class TestForumPipeline:
    def test_every_stage_matches_golden(self):
        db = GOLDEN["input"]
        q = CollectionRef("posts")
        builders = [
            lambda s: Unwind(s, ("replies",)),
            lambda s: Match(s, Cmp(("replies", "depth"), ">", 0)),
            lambda s: Group(s, (("_id",), ("title",)), ("reply_count",), (Count(),)),
            lambda s: AddFields(s, (("title",),), (PathExpr(("_id", "title")),)),
            lambda s: Match(s, Cmp(("reply_count",), ">", 1)),
            lambda s: Project(s, (("reply_count",), ("title",))),
        ]
        for i, build in enumerate(builders):
            q = build(q)
            assert collection_eq(eval_query(db, q), GOLDEN["stages"][i]), f"stage {i + 1}"

    def test_final_output(self):
        out = eval_query(GOLDEN["input"], forum_query())
        assert out == [
            {"reply_count": 3, "title": "Title-3"},
            {"reply_count": 2, "title": "Title-2"},
        ]


class TestPredicates:
    def test_cmp_null_rules(self):
        assert eval_pred({"depth": 0}, Cmp(("depth",), ">", 0)) is False
        assert eval_pred({"a": None}, Cmp(("a",), "<", 5)) is False
        assert eval_pred({"a": None}, Cmp(("a",), "=", None)) is True
        assert eval_pred({}, Cmp(("a",), "=", None)) is True  # absent reads as null
        assert eval_pred({"a": None}, Cmp(("a",), "<=", None)) is True
        assert eval_pred({"a": None}, Cmp(("a",), ">=", None)) is True
        assert eval_pred({"a": None}, Cmp(("a",), "!=", 3)) is True
        assert eval_pred({"a": "x"}, Cmp(("a",), "<", 3)) is False  # kind mismatch
        assert eval_pred({"a": 1}, Cmp(("a",), "<", 3)) is True
        assert eval_pred({"a": 1}, Cmp(("a",), ">=", 1)) is True

    def test_unequal_unordered_values_satisfy_only_not_equal(self):
        # kinds differ, arrays or documents differ, or NaN
        pairs = ((None, 0), ("a", 1), (True, 1), ([1], [2]), ({"b": 1}, {"b": 2}),
                 (float("nan"), float("nan")))
        for v, c in pairs:
            held = [op for op in ("=", "<", "<=", ">", ">=", "!=") if compare(v, op, c)]
            assert held == ["!="], (v, c)

    def test_bool_is_not_num(self):
        assert eval_pred({"a": True}, Cmp(("a",), "=", 1)) is False
        assert eval_pred({"a": 1}, Cmp(("a",), "=", True)) is False
        assert eval_pred({"a": True}, Cmp(("a",), "=", True)) is True

    def test_sizeeq(self):
        assert eval_pred({"a": [1, 2]}, SizeEq(("a",), 2)) is True
        assert eval_pred({"a": [1, 2]}, SizeEq(("a",), 3)) is False
        assert eval_pred({"a": None}, SizeEq(("a",), 0)) is False
        assert eval_pred({"a": 5}, SizeEq(("a",), 1)) is False
        assert eval_pred({}, SizeEq(("a",), 0)) is False

    def test_exists_and_connectives(self):
        d = {"a": {"b": None}}
        assert eval_pred(d, Exists(("a", "b"))) is True
        assert eval_pred(d, Exists(("a", "c"))) is False
        assert eval_pred(d, Not(Exists(("a", "c")))) is True
        assert eval_pred(d, TRUE) and not eval_pred(d, FALSE)


class TestExpressions:
    def test_paths_and_arith(self):
        assert eval_expr({"x": 3, "y": 4}, Arith(("x",), "+", ("y",))) == 7
        assert eval_expr({"x": 3}, Arith(("x",), "+", ("y",))) is None
        assert eval_expr({"x": 3, "y": None}, Arith(("x",), "*", ("y",))) is None
        assert eval_expr({"x": 3, "y": 0}, Arith(("x",), "/", ("y",))) is None
        assert eval_expr({"x": 3, "y": 0}, Arith(("x",), "%", ("y",))) is None
        assert eval_expr({"x": 6, "y": 3}, Arith(("x",), "/", ("y",))) == 2
        assert eval_expr({"x": 7, "y": 2}, Arith(("x",), "/", ("y",))) == 3.5
        assert eval_expr({"x": -7, "y": 3}, Arith(("x",), "%", ("y",))) == -1
        assert eval_expr({}, PathExpr(("x",))) is None
        assert eval_expr({"x": {"y": 1}}, PathExpr(("x", "y"))) == 1

    def test_fns(self):
        assert eval_expr({"x": -2}, FnCall("abs", ("x",))) == 2
        assert eval_expr({"x": 2.3}, FnCall("floor", ("x",))) == 2
        assert eval_expr({"x": 2.3}, FnCall("ceil", ("x",))) == 3
        assert eval_expr({"x": None}, FnCall("abs", ("x",))) is None
        assert eval_expr({"x": "s"}, FnCall("abs", ("x",))) is None

    @pytest.mark.parametrize("fn", ["floor", "ceil"])
    def test_rounding_keeps_non_finite_numbers(self, fn):
        # JSON input can carry NaN and ±Infinity; as in MongoDB they round to themselves
        assert eval_expr({"x": math.inf}, FnCall(fn, ("x",))) == math.inf
        assert eval_expr({"x": -math.inf}, FnCall(fn, ("x",))) == -math.inf
        assert math.isnan(eval_expr({"x": math.nan}, FnCall(fn, ("x",))))
        assert eval_expr({"x": 10**400}, FnCall(fn, ("x",))) == 10**400

    def test_modulo_of_an_infinite_dividend_is_nan(self):
        for x in (math.inf, -math.inf):
            assert math.isnan(eval_expr({"x": x, "y": 2}, Arith(("x",), "%", ("y",))))
        assert eval_expr({"x": 2.5, "y": math.inf}, Arith(("x",), "%", ("y",))) == 2.5
        assert math.isnan(eval_expr({"x": math.nan, "y": 2}, Arith(("x",), "%", ("y",))))

    def test_a_result_beyond_the_float_range_is_null(self):
        # as division by zero: an integer above the float range met by a
        # float or by %, or an inexact integer quotient above it
        doc = {"x": 10**400, "f": 1.5, "n": 3}
        for op in ("+", "-", "*", "/", "%"):
            assert eval_expr(doc, Arith(("x",), op, ("f",))) is None
            assert eval_expr(doc, Arith(("f",), op, ("x",))) is None
        assert eval_expr(doc, Arith(("x",), "/", ("n",))) is None
        assert eval_expr(doc, Arith(("x",), "%", ("n",))) is None
        # exact integer results stay exact
        assert eval_expr(doc, Arith(("x",), "+", ("n",))) == 10**400 + 3
        assert eval_expr(doc, Arith(("x",), "*", ("x",))) == 10**800
        assert eval_expr({"x": 10**400, "y": 10**399}, Arith(("x",), "/", ("y",))) == 10

    def test_huge_integers_agree_with_the_oracle(self):
        nums = (10**400, -(10**400), 10**400 + 1, 10**399, 1.5, 3, 0, math.inf)
        for a in nums:
            for b in nums:
                for op in ("+", "-", "*", "/", "%"):
                    got = eval_expr({"a": a, "b": b}, Arith(("a",), op, ("b",)))
                    # repr tells 1 from 1.0 and reads every NaN alike
                    assert repr(got) == repr(oracles._arith(a, op, b)), f"{a!r} {op} {b!r}"


class TestAggregators:
    def test_spec_examples(self):
        assert eval_agg([{}, {}, {}], Count()) == 3
        assert eval_agg([{"x": 1}, {"x": None}, {"x": 2}], Sum(("x",))) == 3
        assert eval_agg([{"x": None}], Min(("x",))) is None

    def test_edges(self):
        assert eval_agg([], Sum(("x",))) == 0
        assert eval_agg([{"x": True}], Sum(("x",))) == 0  # bools are not numbers
        assert eval_agg([], Min(("x",))) is None
        assert eval_agg([{"x": 2}, {"x": None}, {"x": 1}], Min(("x",))) == 1
        assert eval_agg([{"x": 2}, {}, {"x": 5}], Max(("x",))) == 5
        assert eval_agg([], Avg(("x",))) is None
        assert eval_agg([{"x": None}, {"x": None}], Avg(("x",))) is None
        assert eval_agg([{"x": 1}, {"x": 2}], Avg(("x",))) == 1.5
        assert eval_agg([{"x": 2}, {"x": 4}], Avg(("x",))) == 3
        assert eval_agg([{"x": 1}, {"x": None}, {"x": 2}], Avg(("x",))) == 1.5

    @pytest.mark.parametrize("values", [
        [10**400, 1.5], [1.5, 10**400], [10**400 + 1, 0], [10**400, 3], [10**400, -(10**400), 1.5],
    ])
    def test_sum_and_avg_beyond_the_float_range(self, values):
        # null where the float range is overrun, exact otherwise, as the oracle
        docs = [{"x": v} for v in values]
        for agg, oracle in ((Sum(("x",)), oracles.agg_sum("x")), (Avg(("x",)), oracles.agg_avg("x"))):
            got, want = eval_agg(docs, agg), oracle(docs)
            assert (type(got), got) == (type(want), want)
        assert eval_agg([{"x": 10**400}, {"x": 1.5}], Sum(("x",))) is None
        assert eval_agg([{"x": 10**400 + 1}, {"x": 0}], Avg(("x",))) is None
        assert eval_agg([{"x": 10**400}, {"x": 2}], Avg(("x",))) == 10**400 // 2 + 1

    @pytest.mark.parametrize("values", [
        [2**53, 2**53 + 1], [2**53 + 1, 2**53], [float(2**53), 2**53 + 1],
        [2**53 + 1, float(2**53)], [-(2**53) - 1, -(2**53)], [2**53, float(2**53)],
    ])
    def test_min_max_order_numbers_exactly(self, values):
        # as the oracle's Python min/max: beyond 2**53 float() merges neighbours
        docs = [{"x": v} for v in values]
        for agg, oracle in ((Min(("x",)), oracles.agg_min("x")), (Max(("x",)), oracles.agg_max("x"))):
            got, want = eval_agg(docs, agg), oracle(docs)
            assert (type(got), got) == (type(want), want)


class TestStages:
    def test_unwind_example(self):
        db = {"c": [{"a": 1, "b": [2, 3]}, {"a": 4, "b": [5, 6]}]}
        out = eval_query(db, Unwind(CollectionRef("c"), ("b",)))
        assert out == [{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 4, "b": 5}, {"a": 4, "b": 6}]

    def test_unwind_drops_and_errors(self):
        assert flatten({"a": 1}, ("b",)) == []
        assert flatten({"a": 1, "b": None}, ("b",)) == []
        assert flatten({"a": 1, "b": []}, ("b",)) == []
        with pytest.raises(UnwindNonArrayError):
            flatten({"b": 3}, ("b",))

    def test_match_true_is_identity(self):
        db = {"c": [{"a": 1}, {"a": 2}]}
        assert eval_query(db, Match(CollectionRef("c"), TRUE)) == db["c"]

    def test_unknown_collection(self):
        with pytest.raises(UnknownCollectionError):
            eval_query({}, CollectionRef("nope"))

    def test_project_skips_absent(self):
        db = {"c": [{"a": 1, "b": 2}, {"b": 3}]}
        out = eval_query(db, Project(CollectionRef("c"), (("a",),)))
        assert out == [{"a": 1}, {}]

    def test_addfields_parallel_against_original_doc(self):
        db = {"c": [{"x": 1, "y": 10}]}
        q = AddFields(
            CollectionRef("c"),
            (("x",), ("z",)),
            (Arith(("y",), "+", ("y",)), PathExpr(("x",))),
        )
        # z reads the original x, not the freshly written one
        assert eval_query(db, q) == [{"x": 20, "y": 10, "z": 1}]

    def test_group_single_key_and_reverse_order(self):
        db = {"c": [{"t": "a", "n": 1}, {"t": "b", "n": 2}, {"t": "a", "n": 3}]}
        q = Group(CollectionRef("c"), (("t",),), ("total",), (Sum(("n",)),))
        assert eval_query(db, q) == [
            {"_id": {"t": "b"}, "total": 2},
            {"_id": {"t": "a"}, "total": 4},
        ]

    def test_group_absent_key_reads_null(self):
        db = {"c": [{"t": "a"}, {}]}
        q = Group(CollectionRef("c"), (("t",),), (), ())
        assert eval_query(db, q) == [{"_id": {"t": None}}, {"_id": {"t": "a"}}]

    def test_group_nested_key_uses_last_segment(self):
        db = {"c": [{"u": {"name": "x"}}]}
        q = Group(CollectionRef("c"), (("u", "name"),), ("n",), (Count(),))
        assert eval_query(db, q) == [{"_id": {"name": "x"}, "n": 1}]

    def test_group_by_is_the_stage_partition(self):
        # completion screens Group candidates with the groups the stage aggregates
        docs = [{"t": "a", "u": {"v": 1}}, {"t": "b"}, {"t": "a", "u": {"v": 1}},
                {"t": "a", "u": {"v": 2}}]
        keys = (("t",), ("u", "v"))
        groups = group_by(docs, keys)
        rows = apply_stage({}, docs, Group(CollectionRef("c"), keys, ("n",), (Count(),)))
        assert [key_doc for key_doc, _ in groups] == [r["_id"] for r in rows]
        assert [len(members) for _, members in groups] == [r["n"] for r in rows]
        assert groups[-1][1] == [docs[0], docs[2]]

    def test_lookup(self):
        db = {
            "orders": [{"item": "a"}, {"item": "z"}, {"item": None}],
            "items": [{"sku": "a", "price": 1}, {"sku": "a", "price": 2}, {"sku": None}],
        }
        q = Lookup(CollectionRef("orders"), ("item",), ("sku",), "items", "matched")
        out = eval_query(db, q)
        assert out[0] == {"item": "a", "matched": [{"sku": "a", "price": 1}, {"sku": "a", "price": 2}]}
        assert out[1] == {"item": "z", "matched": []}
        # null joins null, and an absent foreign field also reads as null
        assert out[2] == {"item": None, "matched": [{"sku": None}]}

    def test_lookup_self_join(self):
        db = {"c": [{"a": 1, "b": 1}, {"a": 2, "b": 1}]}
        q = Lookup(CollectionRef("c"), ("a",), ("b",), "c", "same")
        out = eval_query(db, q)
        assert out[0]["same"] == [{"a": 1, "b": 1}, {"a": 2, "b": 1}]
        assert out[1]["same"] == []


# join and group keys that Python's == or float() would confuse: null
# against absent, 1 / 1.0 / True, -0.0, integers beyond 2**53, NaN, and
# documents and arrays that differ only in attribute order or element order
_NAN = float("nan")
_KEYS = st.sampled_from([
    None, 0, -0.0, 1, 1.0, True, False, 2**53, 2**53 + 1, float(2**53), _NAN, "1",
    {"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1.0, "b": 2}, [1, 2], [2, 1], [1.0, 2], [True, 2],
])
_KEYED = st.lists(
    st.fixed_dictionaries({"i": st.integers(0, 3)}, optional={"k": _KEYS}), max_size=6,
)


@st.composite
def _join_cases(draw):
    local = draw(_KEYED)
    foreign = draw(_KEYED)
    # the same foreign document may occur more than once
    foreign = foreign + draw(st.lists(st.sampled_from(foreign), max_size=2) if foreign else st.just([]))
    # None: a self-join of the local collection
    return local, draw(st.just(foreign) | st.none())


class TestKeysAgainstReplay:
    """Lookup and Group key values as the nested scans of oracles.replay do."""

    @settings(max_examples=300)
    @given(_join_cases())
    @example(([{"i": 0, "k": _NAN}, {"i": 1, "k": _NAN}], None))
    @example(([{"i": 0}, {"i": 1, "k": None}], [{"i": 2, "k": None}, {"i": 3}, {"i": 2, "k": None}]))
    @example(([{"i": 0, "k": 1}, {"i": 1, "k": 2**53}],
              [{"i": 1, "k": True}, {"i": 2, "k": 1.0}, {"i": 3, "k": 2**53 + 1}]))
    def test_lookup_is_the_nested_scan(self, case):
        local, foreign = case
        db = {"c": local} if foreign is None else {"c": local, "f": foreign}
        fname = "c" if foreign is None else "f"
        out = eval_query(db, Lookup(CollectionRef("c"), ("k",), ("k",), fname, "j"))
        want = oracles.replay(db, "c", [("lookup", "k", "k", fname, "j")])
        assert len(out) == len(want) == len(local)
        for d, got, exp in zip(local, out, want):
            # the very foreign documents, in foreign order, duplicates kept
            assert [id(f) for f in got["j"]] == [id(f) for f in exp["j"]]
            assert got.keys() == d.keys() | {"j"}
            assert all(got[n] is d[n] for n in d)
        assert len({id(d["j"]) for d in out}) == len(out)  # no list is shared

    @settings(max_examples=200)
    @given(st.lists(st.fixed_dictionaries({"k": _KEYS, "i": st.integers(0, 3)}), max_size=8))
    @example([{"k": _NAN, "i": 0}, {"k": _NAN, "i": 1}])
    @example([{"k": 2**53, "i": 0}, {"k": 2**53 + 1, "i": 1}, {"k": float(2**53), "i": 2}])
    def test_group_is_the_replay(self, docs):
        db = {"c": docs}
        out = eval_query(db, Group(CollectionRef("c"), (("k",),), ("n", "s"), (Count(), Sum(("i",)))))
        want = oracles.replay(db, "c", [("group", ["k"], [("n", oracles.agg_count),
                                                          ("s", oracles.agg_sum("i"))])])
        assert len(out) == len(want)
        for got, exp in zip(out, want):
            assert got["_id"]["k"] is exp["_id"]["k"]  # the group's first key value
            assert (got["n"], got["s"]) == (exp["n"], exp["s"])
