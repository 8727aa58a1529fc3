"""Query AST construction, metrics, and text syntax tests."""

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
from docsynth.text import parse_query, render_pred, render_query
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

    def test_sizeeq_needs_a_plain_nonnegative_integer(self):
        assert parse_query("Match(c, SizeEq(a, 10))").pred == SizeEq(("a",), 10)
        for size in ("1e3", "1.5", "-1", "1E2"):
            with pytest.raises(ParseError):
                parse_query(f"Match(c, SizeEq(a, {size}))")


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
consts = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(float),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\'), max_size=8),
    st.builds(Datetime, st.from_regex(r"[0-9:TZ-]{1,12}", fullmatch=True)),
    st.builds(ObjectId, st.from_regex(r"[0-9a-f]{1,12}", fullmatch=True)),
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
            names = draw(st.lists(idents, min_size=0, max_size=2, unique=True))
            # group keys surface under their last segment in the output
            # _id document, so keys sharing one would collide there
            keys = draw(st.lists(paths, min_size=1, max_size=2, unique_by=lambda p: p[-1]))
            q = Group(q, tuple(keys), tuple(names), tuple(draw(aggs) for _ in names))
        else:
            q = Lookup(q, draw(paths), draw(paths), draw(idents), draw(idents))
    return q


@given(preds)
@settings(max_examples=150)
def test_pred_text_round_trip(p):
    assert parse_pred(render_pred(p)) == p


@given(queries())
@settings(max_examples=100)
def test_query_text_round_trip(q):
    assert parse_query(render_query(q)) == q

