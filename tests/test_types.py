import pytest
from hypothesis import example, given, strategies as st

from docsynth.errors import (
    HeterogeneousArrayError,
    InvalidDocumentError,
    TaskError,
    UntypableArrayError,
    UntypableNullError,
)
from docsynth.taskio import task_from_json
from docsynth.types import (
    ArrayT,
    BOOL,
    DATETIME,
    DocT,
    NUM,
    OBJECTID,
    STRING,
    compute_schema,
    conforms,
    infer_collection_type,
    lenient_doc_type,
    schema_from_json,
    schema_to_json,
    type_from_json,
    type_of_path,
    typed_paths,
    type_to_json,
)
from docsynth.values import Datetime, ObjectId

from .oracles import cut_to_type


def test_infer_simple_document():
    t = infer_collection_type([{"a": 1, "b": [2, 3]}])
    assert t == DocT({"a": NUM, "b": ArrayT(NUM)})


def test_infer_fig_style_post():
    doc = {"_id": "1", "title": "Title-1", "replies": [{"depth": 0}, {"depth": 1}]}
    t = infer_collection_type([doc])
    assert t == DocT({"_id": STRING, "title": STRING, "replies": ArrayT(DocT({"depth": NUM}))})


def test_doc_type_equality_ignores_order():
    assert DocT({"a": NUM, "b": STRING}) == DocT({"b": STRING, "a": NUM})
    assert hash(DocT({"a": NUM, "b": STRING})) == hash(DocT({"b": STRING, "a": NUM}))


def test_heterogeneous_array_rejected():
    with pytest.raises(HeterogeneousArrayError):
        infer_collection_type([{"v": [1, "x"]}])
    with pytest.raises(HeterogeneousArrayError):
        infer_collection_type([{"v": [{"a": 1}, {"a": "x"}]}])


def test_null_adopts_sibling_type():
    assert infer_collection_type([{"v": [1, None, 3]}]) == DocT({"v": ArrayT(NUM)})
    assert infer_collection_type([{"v": [{"a": 1}, {"a": None}]}]) == DocT(
        {"v": ArrayT(DocT({"a": NUM}))})


def test_empty_or_all_null_array_needs_fallback():
    with pytest.raises(UntypableArrayError):
        infer_collection_type([{"v": []}])
    with pytest.raises(UntypableArrayError):
        infer_collection_type([{"v": [None, None]}])


def test_bare_null_attr_is_untypable():
    with pytest.raises(UntypableNullError):
        infer_collection_type([{"a": None}])


def test_collection_type_unifies_missing_and_null():
    docs = [{"a": 1}, {"a": None, "b": "x"}, {"b": "y"}]
    assert infer_collection_type(docs) == DocT({"a": NUM, "b": STRING})


def test_compute_schema_tags_errors_with_collection():
    with pytest.raises(HeterogeneousArrayError) as exc:
        compute_schema({"c": [{"a": 1}, {"a": "x"}]})
    assert "'c'" in str(exc.value)


# Each error names its class's fault, the collection and the attribute path
# where the walk found it (not the index of a document).
@pytest.mark.parametrize("docs, error, message", [
    ([{"a": {"b": 1}}, {"a": {"b": "x"}}], HeterogeneousArrayError,
     "collection 'posts': conflicting types at posts.a.b: Num vs String"),
    ([{"a": [1]}, {"a": [{"b": 1}]}], HeterogeneousArrayError,
     "collection 'posts': conflicting types at posts.a: Num vs {…}"),
    ([{"a": {"b": 1}}, {"a": {"b": None, "c": None}}], UntypableNullError,
     "collection 'posts': only null values at posts.a.c; type is undetermined"),
    ([{"a": [{"b": []}]}, {"a": [{"b": [None]}, None]}], UntypableArrayError,
     "collection 'posts': array at posts.a.b is empty or all-null; element type unknown"),
    ([], UntypableArrayError, "collection 'posts': posts is empty; document type unknown"),
    ([{"a": 1}, {"a": [{"b.c": 1}]}], HeterogeneousArrayError,
     "collection 'posts': conflicting types at posts.a: Num vs Arr⟨…⟩"),
    ([{"a": [{"b": 1}]}, {"a": [{"b.c": 1}]}], InvalidDocumentError,
     "invalid attribute name at posts.a: 'b.c'"),
    ([{"a": 1}, 2], InvalidDocumentError, "posts[1] is not a document"),
])
def test_inference_error_messages(docs, error, message):
    with pytest.raises(error) as exc:
        compute_schema({"posts": docs})
    assert str(exc.value) == message


def test_task_error_carries_the_inference_error():
    task = {"collection": "c", "examples": [{"input": {"c": [{"a": 1}, {"a": None}, {"a": "x"}]},
                                             "output": []}]}
    with pytest.raises(TaskError) as exc:
        task_from_json(task)
    assert str(exc.value) == ("examples[0].input: cannot infer schema: "
                              "collection 'c': conflicting types at c.a: Num vs String")


def test_conforms():
    t = DocT({"a": NUM, "b": ArrayT(DocT({"c": STRING}))})
    assert conforms({"a": 1, "b": [{"c": "x"}]}, t)
    assert conforms({"a": None}, t)  # null fits, attrs may be missing
    assert not conforms({"a": "x"}, t)
    assert not conforms({"a": 1, "z": 2}, t)  # extra attribute
    assert conforms(Datetime("2020-01-01"), type_from_json({"kind": "datetime"}))
    assert not conforms(ObjectId("a" * 24), BOOL)


_LEAF = {
    "n": st.integers(-2, 2) | st.floats(allow_nan=False),
    "s": st.sampled_from(["x", "y"]),
    "b": st.booleans(),
    "t": st.builds(Datetime, st.sampled_from(["2024-01-01", "2024-06-30"])),
    "o": st.builds(ObjectId, st.sampled_from(["ab", "cd"])),
}


def _docs(full):
    """Documents in which each attribute name has one shape. A full document
    holds a non-null, non-empty value of every attribute; the others may omit
    attributes, hold null or hold empty arrays."""
    def value(s):
        return s if full else st.one_of(s, st.none())

    def doc(attrs):
        return st.fixed_dictionaries(attrs) if full else st.fixed_dictionaries({}, optional=attrs)

    inner = doc({k: value(_LEAF[k]) for k in ("n", "b", "o")})
    attrs = {k: value(_LEAF[k]) for k in ("n", "s", "t")}
    attrs["ns"] = value(st.lists(value(_LEAF["n"]), min_size=int(full), max_size=3))
    attrs["d"] = value(inner)
    attrs["ds"] = value(st.lists(value(inner), min_size=int(full), max_size=3))
    return doc(attrs)


# one full document among partial ones, in any order, so inference succeeds
# and every attribute's type must be found wherever its witness is
_INFERABLE = st.tuples(_docs(True), st.lists(_docs(False), max_size=3)).flatmap(
    lambda t: st.permutations([t[0], *t[1]]))


@given(_INFERABLE)
@example([{"n": None, "ds": []}, {"n": 1, "s": "x", "t": Datetime("2024-01-01"), "ns": [None, 2],
                                   "d": {"n": 1, "b": True, "o": ObjectId("ab")},
                                   "ds": [{"n": 2, "b": False, "o": ObjectId("cd")}]}])
def test_collection_conforms_to_its_inferred_type(docs):
    assert conforms(docs, ArrayT(infer_collection_type(docs)))


# where schema inference succeeds, lenient typing finds the same type at
# every depth
@given(_INFERABLE)
@example([{"n": 1, "s": "x", "t": Datetime("2024-01-01"), "ns": [2],
           "d": {"n": 1, "b": True, "o": ObjectId("ab")},
           "ds": [{"n": 2, "b": False, "o": ObjectId("cd")}]}, {"n": None, "ds": [None]}])
def test_lenient_type_agrees_with_inference(docs):
    assert lenient_doc_type(docs) == infer_collection_type(docs)


def test_type_of_path_and_typed_paths():
    t = DocT({"info": DocT({"score": NUM, "tags": ArrayT(STRING)}), "name": STRING})
    assert type_of_path(t, ("info", "score")) == NUM
    assert type_of_path(t, ("info", "tags")) == ArrayT(STRING)
    assert type_of_path(t, ("info", "tags", "x")) is None  # no array crossing
    assert typed_paths(t) == [
        (("info",), DocT({"score": NUM, "tags": ArrayT(STRING)})),
        (("info", "score"), NUM),
        (("info", "tags"), ArrayT(STRING)),
        (("name",), STRING),
    ]


def test_render_type_notation():
    t = DocT({"title": STRING})
    assert str(t) == "{title: String}"
    assert str(ArrayT(DocT({"depth": NUM}))) == "Arr⟨{depth: Num}⟩"


def test_type_json_round_trip():
    schema = {
        "posts": ArrayT(
            DocT({"_id": STRING, "replies": ArrayT(DocT({"depth": NUM}))})
        )
    }
    assert schema_from_json(schema_to_json(schema)) == schema
    j = type_to_json(DocT({"a": NUM}))
    assert j == {"kind": "doc", "fields": {"a": {"kind": "num"}}}
    for t in (NUM, STRING, BOOL, DATETIME, OBJECTID):
        assert type_from_json(type_to_json(t)) == t
    # the codec spells the value kind "str" as "string", and only so
    assert type_to_json(STRING) == {"kind": "string"}
    with pytest.raises(InvalidDocumentError):
        type_from_json({"kind": "str"})
    with pytest.raises(InvalidDocumentError):
        type_from_json({"kind": "array"})


# Collections that inference may reject: any attribute may mix kinds, hold
# only nulls or empty arrays, or nest documents and arrays of arrays.
_ANY_VALUE = st.recursive(
    st.one_of(st.none(), *_LEAF.values()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from("abc"), inner, max_size=3),
    max_leaves=8,
)
_ANY_DOCS = st.lists(st.dictionaries(st.sampled_from("abc"), _ANY_VALUE, max_size=3), max_size=4)
_PRIMITIVE = {bool: BOOL, int: NUM, float: NUM, str: STRING, Datetime: DATETIME, ObjectId: OBJECTID}


def _assert_one_kind_attributes_kept(docs, t):
    """Every attribute whose non-null values are of one primitive kind is
    in `t` with that kind's type; so is every attribute whose non-null
    values are all documents, and this holds again within them."""
    by_name = {}
    for d in docs:
        for name, v in d.items():
            vals = by_name.setdefault(name, [])
            if v is not None:
                vals.append(v)
    for name, vals in by_name.items():
        kinds = {_PRIMITIVE.get(type(v)) for v in vals}
        if len(kinds) == 1 and None not in kinds:
            assert t.get(name) == kinds.pop(), name
        elif vals and all(isinstance(v, dict) for v in vals):
            assert isinstance(t.get(name), DocT), name
            _assert_one_kind_attributes_kept(vals, t.get(name))


@given(_ANY_DOCS)
@example([{"a": 1}, {"a": "x", "b": [[1], [None], []]}])  # mixed kinds, arrays of arrays
@example([{"a": None, "b": []}, {"b": [None]}])  # only nulls, only empty arrays
@example([{"a": {"b": 1, "c": [1]}}, {"a": {"b": "x", "c": ["y"]}}])  # nested conflicts
@example([{"a": [{"b": 1}, {"b": [2]}, {"c": True}]}])  # a conflict inside an array
def test_lenient_type_keeps_what_every_document_fits(docs):
    t = lenient_doc_type(docs)
    tj = type_to_json(t)
    for d in docs:
        assert conforms(cut_to_type(d, tj), t)
    _assert_one_kind_attributes_kept(docs, t)
