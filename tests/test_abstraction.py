"""Augmented type algebra, match relation, and concretization tests."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from docsynth.abstraction import (
    ANY,
    AugmentedType,
    Placeholder,
    concretizes,
    from_doc_type,
    matches,
    to_doc_type,
    type_intersect,
    type_replace_path,
    type_subset,
    type_subtract,
    type_union,
)
from docsynth.errors import MalformedQueryError, NotASubsetError
from docsynth.sizes import reachable
from docsynth.types import ArrayT, BOOL, DocT, NUM, STRING, compute_schema, infer_collection_type
from .oracles import match_by_enumeration

GOLDEN = json.loads((Path(__file__).parent / "golden" / "replay_stages.json").read_text())


def aug(*entries):
    return AugmentedType(entries)


def many(label, value=ANY):
    return (Placeholder("many", label), value)


def one(label, value=ANY):
    return (Placeholder("one", label), value)


class TestRendering:
    def test_placeholder_keys(self):
        assert Placeholder("many", 0).render() == "?⁺₀"
        assert Placeholder("one", 3).render() == "?¹₃"
        assert Placeholder("many", 12).render() == "?⁺₁₂"

    def test_display_order_named_then_labels(self):
        t = aug(many(3, NUM), many(0, ANY))
        assert t.render() == "{?⁺₀: Any, ?⁺₃: Num}"
        t2 = aug(many(0, ANY), ("a", NUM))
        assert t2.render() == "{a: Num, ?⁺₀: Any}"

    def test_nested_and_arrays(self):
        t = from_doc_type(DocT({"_id": STRING, "replies": ArrayT(DocT({"depth": NUM}))}))
        assert t.render() == "{_id: String, replies: Arr⟨{depth: Num}⟩}"


class TestInvariants:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(MalformedQueryError):
            aug(many(0), one(0))

    def test_nested_placeholders_rejected(self):
        with pytest.raises(MalformedQueryError):
            aug(("a", aug(many(0))))

    def test_label_insensitive_equality(self):
        assert aug(many(0, NUM)) == aug(many(7, NUM))
        assert aug(one(1, NUM), many(2, ANY)) == aug(many(9, ANY), one(4, NUM))
        assert aug(many(0, NUM)) != aug(one(0, NUM))
        assert aug(many(0, NUM)) != aug(many(0, STRING))
        assert hash(aug(many(0, NUM))) == hash(aug(many(7, NUM)))

    def test_order_insensitive_equality(self):
        assert aug(("a", NUM), ("b", STRING)) == aug(("b", STRING), ("a", NUM))


class TestDocTypeConversion:
    def test_drops_placeholders_and_any(self):
        assert to_doc_type(aug(("a", STRING), many(1, ANY))) == DocT({"a": STRING})
        assert to_doc_type(aug(one(3, ArrayT(NUM)))) == DocT({})
        assert to_doc_type(aug(many(0, ANY), many(3, NUM))) == DocT({})
        assert to_doc_type(aug(("a", ANY), ("b", NUM))) == DocT({"b": NUM})

    def test_recurses(self):
        t = aug(("d", aug(("x", NUM), ("y", ANY))))
        assert to_doc_type(t) == DocT({"d": DocT({"x": NUM})})

    def test_round_trip_plain(self):
        d = DocT({"a": NUM, "b": DocT({"c": STRING})})
        assert to_doc_type(from_doc_type(d)) == d


class TestAlgebra:
    def test_union(self):
        assert type_union(aug(("a", NUM)), aug(("b", STRING))) == aug(("a", NUM), ("b", STRING))
        assert type_union(aug(("a", NUM)), aug(("a", STRING))) == aug()
        assert type_union(aug(("a", NUM)), aug(("a", NUM))) == aug(("a", NUM))

    def test_union_merges_same_placeholder_key(self):
        t = type_union(aug(("a", NUM), many(0, ANY)), aug(many(0, ANY)))
        assert t == aug(("a", NUM), many(0, ANY))

    def test_intersect(self):
        a = aug(("a", NUM), ("b", STRING))
        b = aug(("a", NUM), ("c", BOOL))
        assert type_intersect(a, b) == aug(("a", NUM))
        assert type_intersect(aug(("a", NUM)), aug(("a", STRING))) == aug()

    def test_intersect_recurses(self):
        a = aug(("d", aug(("x", NUM), ("y", STRING))))
        b = aug(("d", aug(("x", NUM))))
        assert type_intersect(a, b) == b

    def test_subset(self):
        assert type_subset(aug(("a", NUM)), aug(("a", NUM), ("b", STRING)))
        assert not type_subset(aug(("a", NUM), ("b", STRING)), aug(("a", NUM)))
        assert type_subset(aug(("d", aug(("x", NUM)))), aug(("d", aug(("x", NUM), ("y", NUM)))))

    def test_subtract(self):
        a = aug(("_id", aug(("t", STRING))), many(3, NUM))
        assert type_subtract(a, aug(("_id", aug(("t", STRING))))) == aug(many(3, NUM))
        with pytest.raises(NotASubsetError):
            type_subtract(aug(("a", NUM)), aug(("b", NUM)))

    def test_replace_array_with_element(self):
        t = from_doc_type(DocT({"replies": ArrayT(DocT({"depth": NUM}))}))
        got = type_replace_path(t, ("replies",), from_doc_type(DocT({"depth": NUM})))
        assert got == aug(("replies", aug(("depth", NUM))))

    def test_replace_path(self):
        t = aug(("a", aug(("c", NUM))), ("b", aug(("c", STRING))))
        got = type_replace_path(t, ("b", "c"), BOOL)
        assert got == aug(("a", aug(("c", NUM))), ("b", aug(("c", BOOL))))
        with pytest.raises(MalformedQueryError):
            type_replace_path(t, ("a", "z"), BOOL)


class TestMatches:
    def test_forum_output_matches(self):
        t = DocT({"reply_count": NUM, "title": STRING})
        assert matches(t, aug(many(0, ANY), many(2, NUM)))

    def test_plus_needs_at_least_one(self):
        assert not matches(DocT({"a": NUM}), aug(("a", NUM), many(1, NUM)))

    def test_one_needs_exactly_one(self):
        assert matches(DocT({"a": NUM}), aug(one(0, NUM)))
        assert not matches(DocT({"a": NUM, "b": NUM}), aug(one(0, NUM)))

    def test_lookup_shape(self):
        inner = ArrayT(DocT({"name": STRING}))
        t = DocT({"name": STRING, "profs": inner})
        assert matches(t, aug(("name", STRING), one(1, inner)))
        assert not matches(t, aug(("name", STRING), one(1, ArrayT(NUM))))

    def test_degenerates_to_equality_without_placeholders(self):
        t = DocT({"a": NUM, "d": DocT({"x": STRING})})
        assert matches(t, from_doc_type(t))
        assert not matches(t, from_doc_type(DocT({"a": NUM})))
        assert not matches(DocT({"a": NUM}), from_doc_type(t))

    def test_backtracking(self):
        t = DocT({"a": NUM, "b": STRING})
        assert matches(t, aug(one(0, STRING), many(1, ANY)))
        assert matches(t, aug(one(0, ANY), many(1, STRING)))
        assert not matches(t, aug(one(0, STRING), many(1, STRING)))

    def test_any_monotone(self):
        t = DocT({"a": NUM, "b": STRING})
        assert matches(t, aug(("a", NUM), many(0, STRING)))
        assert matches(t, aug(("a", ANY), many(0, STRING)))
        assert matches(t, aug(("a", NUM), many(0, ANY)))


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
    entries = list(named.items())
    label = 0
    for tok in ones:
        entries.append((Placeholder("one", label), tok))
        label += 1
    for tok in manys:
        entries.append((Placeholder("many", label), tok))
        label += 1
    expected = match_by_enumeration(
        doc_attrs, named, ones, manys,
        accepts=lambda concrete, want: want is ANY or concrete == want,
    )
    assert matches(t, AugmentedType(entries)) == expected


# ---------------------------------------------------------------------------
# Algebra properties on placeholder-free types
# ---------------------------------------------------------------------------

plain_types = st.recursive(
    st.dictionaries(st.sampled_from("abcd"), scalars, max_size=3),
    lambda inner: st.dictionaries(
        st.sampled_from("abcd"),
        st.one_of(scalars, inner.map(DocT)),
        max_size=3,
    ),
    max_leaves=4,
).map(lambda d: from_doc_type(DocT(d)))


@given(plain_types, plain_types)
@settings(max_examples=200)
def test_union_intersect_commute(a, b):
    assert type_union(a, b) == type_union(b, a)
    assert type_intersect(a, b) == type_intersect(b, a)
    assert type_union(a, a) == a
    assert type_intersect(a, a) == a


@given(plain_types, plain_types)
@settings(max_examples=200)
def test_subset_characterization(a, b):
    lhs = type_subset(a, b)
    rhs = type_intersect(a, b) == a and type_union(a, b) == b
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Concretization
# ---------------------------------------------------------------------------

class TestConcretizes:
    def setup_method(self):
        self.output = GOLDEN["stages"][5]  # two rows: reply_count, title
        self.out_t = infer_collection_type(self.output)
        self.c3 = aug(many(0, ANY), many(3, NUM))
        self.ops3 = ("unwind", "match", "group", "add_fields", "match", "project")
        self.c1 = from_doc_type(compute_schema(GOLDEN["input"])["posts"].elem)

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
        assert self.c3.render() == "{?⁺₀: Any, ?⁺₃: Num}"

