"""Query AST construction, metrics, and text syntax tests."""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from docsynth.errors import MalformedQueryError, ParseError
from docsynth.lang import (
    AddFields,
    And,
    Arith,
    Avg,
    CollectionRef,
    Cmp,
    Count,
    Exists,
    FALSE,
    FnCall,
    Group,
    Lookup,
    Match,
    Max,
    Min,
    Not,
    Or,
    PathExpr,
    Project,
    SizeEq,
    Sum,
    TRUE,
    Unwind,
    ast_size,
    source_collection,
    stages,
)
from docsynth.text import parse_query, render_const, render_pred, render_query
from docsynth.values import Datetime, ObjectId


def forum_query():
    q = CollectionRef("posts")
    q = Unwind(q, ("replies",))
    q = Match(q, Cmp(("replies", "depth"), ">", 0))
    q = Group(q, (("_id",), ("title",)), ("reply_count",), (Count(),))
    q = AddFields(q, (("title",),), (PathExpr(("_id", "title")),))
    q = Match(q, Cmp(("reply_count",), ">", 1))
    q = Project(q, (("reply_count",), ("title",)))
    return q


def parse_pred(text):
    """A predicate read back by the query parser, as the body of a Match."""
    q = parse_query(f"Match(c, {text})")
    assert q.source == CollectionRef("c")
    return q.pred


FORUM_TEXT = (
    "Project(Match(AddFields(Group(Match(Unwind(posts, replies), "
    "replies.depth > 0), [_id, title], [reply_count], [Count()]), "
    "[title], [_id.title]), reply_count > 1), [reply_count, title])"
)


class TestRender:
    def test_forum_query_renders_exactly(self):
        assert render_query(forum_query()) == FORUM_TEXT

    def test_forum_query_parses_back(self):
        assert parse_query(FORUM_TEXT) == forum_query()

    def test_preds(self):
        p = And(Cmp(("a",), "<=", 3), Or(Exists(("b", "c")), Not(SizeEq(("d",), 2))))
        assert render_pred(p) == "(a <= 3 && (Exists(b.c) || !(SizeEq(d, 2))))"
        assert parse_pred(render_pred(p)) == p

    def test_const_forms(self):
        cases = [
            (None, "x = null"),
            (True, "x = true"),
            (-2.5, "x = -2.5"),
            ('say "hi"', 'x = "say \\"hi\\""'),
            (Datetime("2020-01-01"), 'x = Datetime("2020-01-01")'),
            (ObjectId("abc123"), 'x = ObjectId("abc123")'),
            (Datetime('2020"x'), 'x = Datetime("2020\\"x")'),
            (ObjectId("ab\\"), 'x = ObjectId("ab\\\\")'),
        ]
        for value, text in cases:
            p = Cmp(("x",), "=", value)
            assert render_pred(p) == text
            assert parse_pred(text) == p

    def test_non_finite_constants_are_not_representable(self):
        # the constant grammar has no spelling that would parse back
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParseError, match="not representable"):
                render_pred(Cmp(("x",), "=", value))
            with pytest.raises(ParseError, match="not representable"):
                render_query(Match(CollectionRef("c"), Cmp(("x",), "=", value)))

    def test_unicode_ops_accepted_on_parse(self):
        assert parse_pred("a ≤ 1") == Cmp(("a",), "<=", 1)
        assert parse_pred("a ≠ 1") == Cmp(("a",), "!=", 1)
        assert parse_pred("(a ≥ 1 ∧ b < 2)") == And(Cmp(("a",), ">=", 1), Cmp(("b",), "<", 2))
        assert parse_pred("(a = 1 ∨ ¬(b = 2))") == Or(Cmp(("a",), "=", 1), Not(Cmp(("b",), "=", 2)))

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_query("Project(posts, [a] ^)")
        assert exc.value.position == 19
        with pytest.raises(ParseError):
            parse_query("Match(posts)")
        with pytest.raises(ParseError):
            parse_query("Project(posts, [a]) extra")

    def test_bracketed_list_errors(self):
        assert parse_query("Group(c, [a], [], [])") == Group(CollectionRef("c"), (("a",),), (), ())
        cases = {
            "Project(c, [])": ("expected path segment, got ']'", 12),
            "AddFields(c, [a], [b, ])": ("expected path segment, got ']'", 22),
            "Group(c, [a], [n,], [Count()])": ("expected attribute name, got ']'", 17),
            "Group(c, [a], [n], [Count(),])": ("expected aggregator, got ']'", 28),
            "Group(c, [a], [n m], [Count()])": ("expected ']', got 'm'", 17),
            "Group(c, [a], n, [Count()])": ("expected '[', got 'n'", 14),
        }
        for text, (message, position) in cases.items():
            with pytest.raises(ParseError, match=re.escape(message)) as exc:
                parse_query(text)
            assert exc.value.position == position

    def test_sizeeq_needs_a_plain_nonnegative_integer(self):
        assert parse_query("Match(c, SizeEq(a, 10))").pred == SizeEq(("a",), 10)
        for size in ("1e3", "1.5", "-1", "1E2"):
            with pytest.raises(ParseError):
                parse_query(f"Match(c, SizeEq(a, {size}))")

    @pytest.mark.parametrize("literal, message", [
        ("1e999", "overflows"), ("-1e999", "overflows"),
        pytest.param("1" * 5000, "too many digits", id="5000_digits"),
    ])
    def test_number_literal_out_of_range_is_parse_error(self, literal, message):
        # the grammar spells no infinity, so a literal that overflows to one is refused
        with pytest.raises(ParseError, match=message) as exc:
            parse_query(f"Match(c, a = {literal})")
        assert exc.value.position == 13
        assert parse_query("Match(c, a = -1e308)").pred == Cmp(("a",), "=", -1e308)

    def test_sizeeq_with_too_many_digits_is_parse_error(self):
        with pytest.raises(ParseError, match="too many digits"):
            parse_query(f"Match(c, SizeEq(a, {'1' * 5000}))")

    @pytest.mark.parametrize("opener, closer", [("!", ""), ("(", ")"), ("a > 5 && ", ""), ("", " || a > 5")])
    def test_nesting_past_the_stated_depth_is_parse_error(self, opener, closer):
        # 1,000 levels of `!`, `(`, `&&` or `||` raise ParseError, not RecursionError
        pred = "a > 5"
        for _ in range(1000):
            pred = opener + pred + closer
        with pytest.raises(ParseError, match="nests deeper than 100 levels"):
            parse_query(f"Match(c, {pred})")

    def test_operator_nesting_past_the_stated_depth_is_parse_error(self):
        # 1,000 nested operators raise ParseError, not RecursionError
        text = "c"
        for _ in range(1000):
            text = f"Match({text}, true)"
        with pytest.raises(ParseError, match="nests deeper than 100 levels"):
            parse_query(text)

    def test_nesting_up_to_the_stated_depth_parses(self):
        # Match is one level, so 99 negations reach the stated depth of 100
        p, depth = parse_query("Match(c, " + "!" * 99 + "a > 5)").pred, 0
        while isinstance(p, Not):
            p, depth = p.pred, depth + 1
        assert (depth, p) == (99, Cmp(("a",), ">", 5))


class TestMetrics:
    def test_forum_ast_size(self):
        assert ast_size(forum_query()) == 22

    def test_forum_shape(self):
        q = forum_query()
        assert source_collection(q) == "posts"
        assert [type(s).__name__ for s in stages(q)] == [
            "Unwind", "Match", "Group", "AddFields", "Match", "Project",
        ]

    def test_small_sizes(self):
        assert ast_size(CollectionRef("c")) == 1
        assert ast_size(Unwind(CollectionRef("c"), ("a",))) == 3
        assert ast_size(Match(CollectionRef("c"), TRUE)) == 3
        assert ast_size(Lookup(CollectionRef("c"), ("a",), ("b",), "other", "joined")) == 6


class TestValidation:
    def test_project_requires_paths(self):
        with pytest.raises(MalformedQueryError):
            Project(CollectionRef("c"), ())

    def test_addfields_parallel_lists(self):
        with pytest.raises(MalformedQueryError):
            AddFields(CollectionRef("c"), (("a",),), ())

    def test_group_requires_keys_and_unique_names(self):
        with pytest.raises(MalformedQueryError):
            Group(CollectionRef("c"), (), ("n",), (Count(),))
        with pytest.raises(MalformedQueryError):
            Group(CollectionRef("c"), (("k",),), ("n", "n"), (Count(), Count()))

    def test_group_id_must_hold_every_key(self):
        # the output `_id` names each key by its last segment and holds no
        # aggregate, so a key sharing one or an aggregate named _id is lost
        for text in ("Group(c, [a.x, b.x], [n], [Count()])",
                     "Group(c, [a, a], [], [])",
                     "Group(c, [a], [_id], [Count()])"):
            with pytest.raises(MalformedQueryError):
                parse_query(text)
        with pytest.raises(MalformedQueryError):
            Group(CollectionRef("c"), (("a", "x"), ("b", "x")), ("n",), (Count(),))
        with pytest.raises(MalformedQueryError):
            Group(CollectionRef("c"), (("a",),), ("_id",), (Count(),))

    def test_cmp_rejects_bad_op_and_composite_value(self):
        with pytest.raises(MalformedQueryError):
            Cmp(("a",), "~", 1)
        with pytest.raises(MalformedQueryError):
            Cmp(("a",), "=", [1, 2])

    def test_sizeeq_rejects_bool_and_negative(self):
        with pytest.raises(MalformedQueryError):
            SizeEq(("a",), True)
        with pytest.raises(MalformedQueryError):
            SizeEq(("a",), -1)

    def test_attribute_names_checked(self):
        for make in (Exists, PathExpr, Sum, Avg, Min, Max):
            with pytest.raises(MalformedQueryError):
                make(("a.b",))
        with pytest.raises(MalformedQueryError):
            Group(CollectionRef("c"), (("k",),), ("n.m",), (Count(),))
        with pytest.raises(MalformedQueryError):
            Lookup(CollectionRef("c"), ("a",), ("b",), "d", "")

    def test_nodes_sharing_a_layout_stay_apart(self):
        p = ("a",)
        assert Sum(p) != Avg(p) and Min(p) != Max(p) and Exists(p) != PathExpr(p)
        assert And(TRUE, FALSE) != Or(TRUE, FALSE)
        assert repr(Sum(p)) == "Sum(path=('a',))"
        assert repr(Or(TRUE, FALSE)) == "Or(left=TruePred(), right=FalsePred())"
        moved = dataclasses.replace(Max(p), path=("b",))
        assert type(moved) is Max and moved == Max(("b",))
        joined = dataclasses.replace(And(TRUE, FALSE), right=TRUE)
        assert type(joined) is And and joined == And(TRUE, TRUE)

    def test_arith_and_fn_ops_checked(self):
        with pytest.raises(MalformedQueryError):
            Arith(("a",), "**", ("b",))
        with pytest.raises(MalformedQueryError):
            FnCall("sqrt", ("a",))


# ---------------------------------------------------------------------------
# Generated round-trip properties
# ---------------------------------------------------------------------------

idents = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in ("true", "false", "null")
)
paths = st.lists(idents, min_size=1, max_size=3).map(tuple)
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
consts = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(float),
    texts,
    st.builds(Datetime, texts),
    st.builds(ObjectId, texts),
)

atoms = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    st.builds(Cmp, paths, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), consts),
    st.builds(SizeEq, paths, st.integers(0, 9)),
    st.builds(Exists, paths),
)
preds = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Not, inner),
    ),
    max_leaves=6,
)

exprs = st.one_of(
    st.builds(PathExpr, paths),
    st.builds(Arith, paths, st.sampled_from(["+", "-", "*", "/", "%"]), paths),
    st.builds(FnCall, st.sampled_from(["abs", "floor", "ceil"]), paths),
)
aggs = st.one_of(
    st.just(Count()),
    st.builds(Sum, paths), st.builds(Avg, paths),
    st.builds(Min, paths), st.builds(Max, paths),
)


@st.composite
def queries(draw, max_depth=4):
    q = CollectionRef(draw(idents))
    for _ in range(draw(st.integers(0, max_depth))):
        kind = draw(st.sampled_from(["project", "match", "add", "unwind", "group", "lookup"]))
        if kind == "project":
            q = Project(q, tuple(draw(st.lists(paths, min_size=1, max_size=3, unique=True))))
        elif kind == "match":
            q = Match(q, draw(preds))
        elif kind == "add":
            ps = draw(st.lists(paths, min_size=1, max_size=2, unique=True))
            q = AddFields(q, tuple(ps), tuple(draw(exprs) for _ in ps))
        elif kind == "unwind":
            q = Unwind(q, draw(paths))
        elif kind == "group":
            # group keys surface under their last segment in the output
            # _id document, so Group refuses keys sharing one and an
            # aggregate named _id
            names = draw(st.lists(idents.filter(lambda s: s != "_id"), min_size=0, max_size=2,
                                  unique=True))
            keys = draw(st.lists(paths, min_size=1, max_size=2, unique_by=lambda p: p[-1]))
            q = Group(q, tuple(keys), tuple(names), tuple(draw(aggs) for _ in names))
        else:
            q = Lookup(q, draw(paths), draw(paths), draw(idents), draw(idents))
    return q


# text made mostly of quotes and backslashes, which every string-bearing
# constant form must escape
quoted_texts = st.text(st.sampled_from('"\\a'), min_size=1, max_size=6)


@given(st.one_of(quoted_texts, st.builds(Datetime, quoted_texts), st.builds(ObjectId, quoted_texts),
                 consts))
@settings(max_examples=300)
def test_const_text_round_trip(value):
    text = f"Match(c, x = {render_const(value)})"
    assert parse_query(text) == Match(CollectionRef("c"), Cmp(("x",), "=", value))


@given(preds)
@settings(max_examples=150)
def test_pred_text_round_trip(p):
    assert parse_pred(render_pred(p)) == p


@given(queries())
@settings(max_examples=100)
def test_query_text_round_trip(q):
    assert parse_query(render_query(q)) == q

