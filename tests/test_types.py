import pytest

from docsynth.errors import (
    HeterogeneousArrayError,
    UntypableArrayError,
    UntypableNullError,
)
from docsynth.types import (
    ArrayT,
    BOOL,
    DocT,
    NUM,
    STRING,
    compute_schema,
    conforms,
    doc_paths,
    infer_collection_type,
    infer_value_type,
    render_type,
    schema_from_json,
    schema_to_json,
    type_from_json,
    type_of_path,
    type_to_json,
)
from docsynth.values import Datetime, ObjectId


def test_infer_simple_document():
    t = infer_value_type({"a": 1, "b": [2, 3]})
    assert t == DocT({"a": NUM, "b": ArrayT(NUM)})


def test_infer_fig_style_post():
    doc = {"_id": "1", "title": "Title-1", "replies": [{"depth": 0}, {"depth": 1}]}
    t = infer_value_type(doc)
    assert t == DocT({"_id": STRING, "title": STRING, "replies": ArrayT(DocT({"depth": NUM}))})


def test_doc_type_equality_ignores_order():
    assert DocT({"a": NUM, "b": STRING}) == DocT({"b": STRING, "a": NUM})
    assert hash(DocT({"a": NUM, "b": STRING})) == hash(DocT({"b": STRING, "a": NUM}))


def test_heterogeneous_array_rejected():
    with pytest.raises(HeterogeneousArrayError):
        infer_value_type([1, "x"])
    with pytest.raises(HeterogeneousArrayError):
        infer_value_type([{"a": 1}, {"a": "x"}])


def test_null_adopts_sibling_type():
    assert infer_value_type([1, None, 3]) == ArrayT(NUM)
    assert infer_value_type([{"a": 1}, {"a": None}]) == ArrayT(DocT({"a": NUM}))


def test_empty_or_all_null_array_needs_fallback():
    with pytest.raises(UntypableArrayError):
        infer_value_type([])
    with pytest.raises(UntypableArrayError):
        infer_value_type([None, None])


def test_bare_null_attr_is_untypable():
    with pytest.raises(UntypableNullError):
        infer_value_type({"a": None})


def test_collection_type_unifies_missing_and_null():
    docs = [{"a": 1}, {"a": None, "b": "x"}, {"b": "y"}]
    assert infer_collection_type(docs) == DocT({"a": NUM, "b": STRING})


def test_compute_schema_tags_errors_with_collection():
    with pytest.raises(HeterogeneousArrayError) as exc:
        compute_schema({"c": [{"a": 1}, {"a": "x"}]})
    assert "'c'" in str(exc.value)


def test_conforms():
    t = DocT({"a": NUM, "b": ArrayT(DocT({"c": STRING}))})
    assert conforms({"a": 1, "b": [{"c": "x"}]}, t)
    assert conforms({"a": None}, t)  # null fits, attrs may be missing
    assert not conforms({"a": "x"}, t)
    assert not conforms({"a": 1, "z": 2}, t)  # extra attribute
    assert conforms(Datetime("2020-01-01"), type_from_json({"kind": "datetime"}))
    assert not conforms(ObjectId("a" * 24), BOOL)


def test_type_of_path_and_doc_paths():
    t = DocT({"info": DocT({"score": NUM, "tags": ArrayT(STRING)}), "name": STRING})
    assert type_of_path(t, ("info", "score")) == NUM
    assert type_of_path(t, ("info", "tags")) == ArrayT(STRING)
    assert type_of_path(t, ("info", "tags", "x")) is None  # no array crossing
    assert doc_paths(t) == [
        ("info",),
        ("info", "score"),
        ("info", "tags"),
        ("name",),
    ]


def test_render_type_notation():
    t = DocT({"title": STRING})
    assert render_type(t) == "{title: String}"
    assert render_type(ArrayT(DocT({"depth": NUM}))) == "Arr⟨{depth: Num}⟩"


def test_type_json_round_trip():
    schema = {
        "posts": ArrayT(
            DocT({"_id": STRING, "replies": ArrayT(DocT({"depth": NUM}))})
        )
    }
    assert schema_from_json(schema_to_json(schema)) == schema
    j = type_to_json(DocT({"a": NUM}))
    assert j == {"kind": "doc", "fields": {"a": {"kind": "num"}}}
