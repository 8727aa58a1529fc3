import enum
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from docsynth.errors import InvalidDocumentError
from docsynth.values import (
    ABSENT,
    Datetime,
    ObjectId,
    add_attrs,
    collection_eq,
    database_from_json,
    database_to_json,
    extract_attrs,
    get_path,
    has_path,
    kind_of,
    path_str,
    value_eq,
    value_from_json,
    value_cmp,
    value_key,
    value_to_json,
)


def test_opaque_values_of_two_kinds_stay_apart():
    assert Datetime("x") != ObjectId("x")
    assert repr(Datetime("x")) == "Datetime(value='x')"
    assert Datetime("a") < Datetime("b") and ObjectId("b") > ObjectId("a")
    with pytest.raises(TypeError):
        Datetime("a") < ObjectId("b")


def test_kind_of_separates_bool_from_num():
    assert kind_of(True) == "bool"
    assert kind_of(1) == "num"
    assert kind_of(1.5) == "num"


def test_kind_of_beyond_exact_types():
    # exact types come from a table; subclasses and unsupported values take
    # the isinstance chain, so they keep their kinds and errors
    class Flag(enum.IntEnum):
        ON = 1

    class Text(str):
        pass

    assert kind_of(False) == "bool"
    assert kind_of(Flag.ON) == "num"
    assert kind_of(Text("x")) == "str"
    assert kind_of(OrderedDict(a=1)) == "doc"
    for bad in ((1, 2), {1, 2}, object(), b"x"):
        with pytest.raises(InvalidDocumentError):
            kind_of(bad)


def test_value_eq_is_kind_aware():
    assert not value_eq(True, 1)
    assert not value_eq(0, False)
    assert value_eq(1, 1.0)
    assert value_eq(None, None)
    assert not value_eq(None, 0)
    assert value_eq({"a": [1, {"b": None}]}, {"a": [1.0, {"b": None}]})
    assert not value_eq([1, 2], [2, 1])


def test_value_eq_documents_ignore_attr_order():
    assert value_eq({"a": 1, "b": 2}, {"b": 2, "a": 1})


def test_value_key_agrees_with_value_eq():
    assert value_key(1) == value_key(1.0)
    assert value_key(True) != value_key(1)
    assert value_key({"a": 1, "b": 2}) == value_key({"b": 2, "a": 1})
    assert value_key(2**53 + 1) != value_key(2**53)
    assert value_key(2**53) == value_key(float(2**53))
    assert value_key(-0.0) == value_key(0)
    nan = float("nan")
    assert value_key(nan) != value_key(nan)
    assert value_key([nan]) != value_key([nan])


# numbers at the edge of float precision, zeros of both signs, NaN, and bools
# beside the numbers that Python's == confuses them with
_KEY_LEAVES = st.sampled_from([
    None, 0, 1, 1.0, -0.0, 0.0, True, False, float("nan"), float("inf"),
    2**53, 2**53 + 1, float(2**53), float(2**53 + 2), 2**64, float(2**64),
    "a", "1", Datetime("2020-01-01"), ObjectId("ab"),
]) | st.integers(2**53 - 2, 2**53 + 2)

key_values = st.recursive(
    _KEY_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "y", "z"]), children, max_size=3),
    max_leaves=6,
)


def _reordered(v):
    """The same value with every document's attributes in reverse order."""
    if isinstance(v, dict):
        return {k: _reordered(x) for k, x in reversed(list(v.items()))}
    if isinstance(v, list):
        return [_reordered(x) for x in v]
    return v


@given(key_values, key_values)
def test_value_key_equal_exactly_on_value_eq(a, b):
    for x, y in ((a, b), (a, a), (a, _reordered(a)), (b, _reordered(a))):
        same = value_eq(x, y)
        assert (value_key(x) == value_key(y)) == same
        if same:
            assert hash(value_key(x)) == hash(value_key(y))


def test_value_cmp_null_and_mixed_kinds_are_unordered():
    assert value_cmp(None, 5) is None
    assert value_cmp(5, None) is None
    assert value_cmp("a", 5) is None
    assert value_cmp(2, 3) == -1
    assert value_cmp("Title-1", "Title-2") == -1
    assert value_cmp(False, True) == -1
    assert value_cmp(Datetime("2020-01-01T00:00:00Z"), Datetime("2021-01-01T00:00:00Z")) == -1


def test_value_cmp_equal_but_unordered_values():
    assert value_cmp(None, None) == 0
    assert value_cmp(1, 1.0) == 0
    assert value_cmp({"a": [1]}, {"a": [1.0]}) == 0
    assert value_cmp([1], [2]) is None
    assert value_cmp({"a": 1}, {"a": 2}) is None
    assert value_cmp(float("nan"), float("nan")) is None


comparable_values = st.recursive(
    st.sampled_from([None, 0, 1, 1.0, 2.5, float("nan"), True, False, "a", "b",
                     Datetime("2020-01-01"), Datetime("2021-01-01"), ObjectId("ab"), ObjectId("cd")]),
    lambda children: st.lists(children, max_size=2)
    | st.dictionaries(st.sampled_from(["x", "y"]), children, max_size=2),
    max_leaves=4,
)


@given(comparable_values, comparable_values)
def test_value_cmp_is_zero_exactly_on_value_eq_and_antisymmetric(a, b):
    c = value_cmp(a, b)
    assert c in (-1, 0, 1, None)
    assert (c == 0) == value_eq(a, b)
    assert value_cmp(b, a) == (None if c is None else -c)


def test_paths():
    assert path_str(("a", "b")) == "a.b"


def test_get_path_absent_vs_null():
    doc = {"a": {"b": None}, "c": [1, 2]}
    assert get_path(doc, ("a", "b")) is None
    assert get_path(doc, ("a", "x")) is ABSENT
    assert get_path(doc, ("c", "b")) is ABSENT  # arrays are not traversed
    assert has_path(doc, ("a", "b"))
    assert not has_path(doc, ("a", "x"))


def test_extract_attrs_preserves_nesting_and_skips_absent():
    doc = {"info": {"score": 90, "x": 1}, "name": "J", "z": 2}
    assert extract_attrs(doc, [("info", "score"), ("name",)]) == {
        "info": {"score": 90},
        "name": "J",
    }
    assert extract_attrs(doc, [("missing",), ("info", "score"), ("info", "x")]) == {
        "info": {"score": 90, "x": 1}
    }


def test_add_attrs_creates_intermediates_without_mutating():
    base = {"_id": {"title": "T"}}
    out = add_attrs(base, [("title",)], ["T"])
    assert out == {"_id": {"title": "T"}, "title": "T"}
    assert base == {"_id": {"title": "T"}}
    nested = add_attrs({}, [("a", "b")], [1])
    assert nested == {"a": {"b": 1}}


def test_json_round_trip_with_tags():
    db = {
        "c": [
            {"when": Datetime("2020-05-06T00:00:00Z"), "id": ObjectId("a" * 24), "n": 1},
            {"n": None, "tags": ["x", 2.5, True]},
        ]
    }
    encoded = database_to_json(db)
    assert encoded["c"][0]["when"] == {"$date": "2020-05-06T00:00:00Z"}
    assert database_from_json(encoded) == db


def test_from_json_rejects_bad_attr_names():
    with pytest.raises(InvalidDocumentError):
        value_from_json({"a.b": 1})
    with pytest.raises(InvalidDocumentError):
        value_from_json({"": 1})


def test_from_json_rejects_bad_tag_payload():
    with pytest.raises(InvalidDocumentError):
        value_from_json({"$date": 5})


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=4),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@given(json_values)
def test_codec_round_trip_property(obj):
    v = value_from_json(obj)
    assert value_eq(value_from_json(value_to_json(v)), v)


def test_collection_eq_is_order_sensitive():
    assert collection_eq([{"a": 1}, {"a": 2}], [{"a": 1}, {"a": 2}])
    assert not collection_eq([{"a": 1}, {"a": 2}], [{"a": 2}, {"a": 1}])
