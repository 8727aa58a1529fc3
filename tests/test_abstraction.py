"""Augmented types, the document-type operations the abstract successors use,
the match relation, and concretization tests."""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from docsynth.abstraction import ANY, AugmentedType, concretizes, matches
from docsynth.sizes import reachable
from docsynth.types import (
    ArrayT, BOOL, DocT, NUM, STRING, compute_schema, doc_intersect, doc_replace_path,
    infer_collection_type,
)
from .oracles import match_by_enumeration

GOLDEN = json.loads((Path(__file__).parent / "golden" / "replay_stages.json").read_text())


PLACEHOLDER_KINDS = ("one", "many")


def aug(*entries):
    """The augmented type of named and placeholder entries, in any order; no
    named attribute here is called "one" or "many"."""
    phs = [e for e in entries if e[0] in PLACEHOLDER_KINDS]
    return AugmentedType(DocT([e for e in entries if e[0] not in PLACEHOLDER_KINDS]), phs)


def many(value=ANY):
    return ("many", value)


def one(value=ANY):
    return ("one", value)


class TestRendering:
    def test_display_order_named_then_labels(self):
        # named fields in order, then the placeholders as ?¹: T / ?⁺: T, sorted
        t = aug(many(NUM), many(ANY))
        assert t.render() == "{?⁺: Any, ?⁺: Num}"
        t2 = aug(many(ANY), ("a", NUM))
        assert t2.render() == "{a: Num, ?⁺: Any}"
        assert aug(many(ANY), one(NUM)).render() == "{?¹: Num, ?⁺: Any}"

    def test_nested_and_arrays(self):
        t = AugmentedType(DocT({"_id": STRING, "replies": ArrayT(DocT({"depth": NUM}))}))
        assert t.render() == "{_id: String, replies: Arr⟨{depth: Num}⟩}"


class TestInvariants:
    def test_placeholders_compare_as_a_multiset(self):
        assert aug(one(NUM), many(ANY)) == aug(many(ANY), one(NUM))
        assert hash(aug(one(NUM), many(ANY))) == hash(aug(many(ANY), one(NUM)))
        assert aug(one(NUM), one(NUM)) != aug(one(NUM))
        assert aug(many(NUM)) != aug(one(NUM))
        assert aug(many(NUM)) != aug(many(STRING))

    def test_order_insensitive_equality(self):
        assert aug(("a", NUM), ("b", STRING)) == aug(("b", STRING), ("a", NUM))


class TestAlgebra:
    def test_intersect(self):
        a = DocT({"a": NUM, "b": STRING})
        b = DocT({"a": NUM, "c": BOOL})
        assert doc_intersect(a, b) == DocT({"a": NUM})
        assert doc_intersect(DocT({"a": NUM}), DocT({"a": STRING})) == DocT({})

    def test_intersect_recurses(self):
        a = DocT({"d": DocT({"x": NUM, "y": STRING})})
        b = DocT({"d": DocT({"x": NUM})})
        assert doc_intersect(a, b) == b

    def test_replace_array_with_element(self):
        t = DocT({"replies": ArrayT(DocT({"depth": NUM}))})
        got = doc_replace_path(t, ("replies",), DocT({"depth": NUM}))
        assert got == DocT({"replies": DocT({"depth": NUM})})

    def test_replace_path(self):
        t = DocT({"a": DocT({"c": NUM}), "b": DocT({"c": STRING})})
        got = doc_replace_path(t, ("b", "c"), BOOL)
        assert got == DocT({"a": DocT({"c": NUM}), "b": DocT({"c": BOOL})})
        assert [n for n, _ in got.fields] == ["a", "b"]


class TestMatches:
    def test_forum_output_matches(self):
        t = DocT({"reply_count": NUM, "title": STRING})
        assert matches(t, aug(many(ANY), many(NUM)))

    def test_plus_needs_at_least_one(self):
        assert not matches(DocT({"a": NUM}), aug(("a", NUM), many(NUM)))

    def test_one_needs_exactly_one(self):
        assert matches(DocT({"a": NUM}), aug(one(NUM)))
        assert not matches(DocT({"a": NUM, "b": NUM}), aug(one(NUM)))

    def test_lookup_shape(self):
        inner = ArrayT(DocT({"name": STRING}))
        t = DocT({"name": STRING, "profs": inner})
        assert matches(t, aug(("name", STRING), one(inner)))
        assert not matches(t, aug(("name", STRING), one(ArrayT(NUM))))

    def test_degenerates_to_equality_without_placeholders(self):
        t = DocT({"a": NUM, "d": DocT({"x": STRING})})
        assert matches(t, AugmentedType(t))
        assert not matches(t, AugmentedType(DocT({"a": NUM})))
        assert not matches(DocT({"a": NUM}), AugmentedType(t))

    def test_backtracking(self):
        t = DocT({"a": NUM, "b": STRING})
        assert matches(t, aug(one(STRING), many(ANY)))
        assert matches(t, aug(one(ANY), many(STRING)))
        assert not matches(t, aug(one(STRING), many(STRING)))

    def test_any_monotone(self):
        t = DocT({"a": NUM, "b": STRING})
        assert matches(t, aug(("a", NUM), many(STRING)))
        assert matches(t, aug(("a", ANY), many(STRING)))
        assert matches(t, aug(("a", NUM), many(ANY)))


# ---------------------------------------------------------------------------
# Match relation vs the exhaustive partition oracle
# ---------------------------------------------------------------------------

scalars = st.sampled_from([NUM, STRING, BOOL])
tokens = st.one_of(scalars, st.just(ANY))


@st.composite
def match_cases(draw):
    attr_names = draw(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=5, unique=True))
    doc_attrs = {n: draw(scalars) for n in attr_names}
    named = {}
    for n in attr_names:
        if draw(st.booleans()) and len(named) < 2:
            named[n] = draw(st.one_of(st.just(doc_attrs[n]), tokens))
    ones = draw(st.lists(tokens, max_size=2))
    manys = draw(st.lists(tokens, max_size=2))
    return doc_attrs, named, ones, manys


@given(match_cases())
@settings(max_examples=400)
def test_matches_agrees_with_oracle(case):
    doc_attrs, named, ones, manys = case
    t = DocT(doc_attrs)
    placeholders = [one(tok) for tok in ones] + [many(tok) for tok in manys]
    expected = match_by_enumeration(
        doc_attrs, named, ones, manys,
        accepts=lambda concrete, want: want is ANY or concrete == want,
    )
    assert matches(t, AugmentedType(DocT(named), placeholders)) == expected


# ---------------------------------------------------------------------------
# Intersection properties
# ---------------------------------------------------------------------------

plain_types = st.recursive(
    st.dictionaries(st.sampled_from("abcd"), scalars, max_size=3),
    lambda inner: st.dictionaries(
        st.sampled_from("abcd"),
        st.one_of(scalars, inner.map(DocT)),
        max_size=3,
    ),
    max_leaves=4,
).map(DocT)


@given(plain_types, plain_types)
@settings(max_examples=200)
def test_intersect_commutes_and_is_idempotent(a, b):
    assert doc_intersect(a, b) == doc_intersect(b, a)
    assert doc_intersect(a, a) == a


# ---------------------------------------------------------------------------
# Concretization
# ---------------------------------------------------------------------------

class TestConcretizes:
    def setup_method(self):
        self.output = GOLDEN["stages"][5]  # two rows: reply_count, title
        self.out_t = infer_collection_type(self.output)
        self.c3 = aug(many(ANY), many(NUM))
        self.ops3 = ("unwind", "match", "group", "add_fields", "match", "project")
        self.c1 = AugmentedType(compute_schema(GOLDEN["input"])["posts"].elem)

    def test_forum_output_concretizes_c3(self):
        assert concretizes(self.output, self.c3, doc_type=self.out_t)

    def test_forum_output_rejects_raw_abstraction(self):
        # both halves fail independently: the type half is concretizes, the
        # size half the fold of the 3 input posts through the stage kinds
        assert not concretizes(self.output, self.c1, doc_type=self.out_t)
        assert not reachable(3, (), len(self.output))
        assert reachable(3, self.ops3, len(self.output))

    def test_empty_collection_checks_size_only(self):
        t = aug(("zzz", NUM))
        assert concretizes([], t, doc_type=DocT({}))
        assert reachable(3, ("match",), 0)
        assert not reachable(3, ("project",), 0)

    def test_render(self):
        assert self.c3.render() == "{?⁺: Any, ?⁺: Num}"

