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
    parse_path,
    path_str,
    value_eq,
    value_from_json,
    value_key,
    value_lt,
    value_to_json,
)


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


def test_value_lt_null_and_mixed_kinds_are_unordered():
    assert not value_lt(None, 5)
    assert not value_lt(5, None)
    assert not value_lt("a", 5)
    assert value_lt(2, 3)
    assert value_lt("Title-1", "Title-2")
    assert value_lt(False, True)
    assert value_lt(Datetime("2020-01-01T00:00:00Z"), Datetime("2021-01-01T00:00:00Z"))


def test_paths():
    assert parse_path("a.b.c") == ("a", "b", "c")
    assert path_str(("a", "b")) == "a.b"
    with pytest.raises(InvalidDocumentError):
        parse_path("")
    with pytest.raises(InvalidDocumentError):
        parse_path("a..b")


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
