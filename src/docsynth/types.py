"""Value types, type inference, and schemas.

The primitive types are `PrimT` instances, one per kind of value (NUM,
STRING, BOOL, DATETIME, OBJECTID), so they compare by identity.

Document types are insertion-ordered but compare order-insensitively. Null is
a value of every type, so one walk types a collection: each attribute, across
all the documents, is typed by its non-null values, which must be of one
kind; documents are typed by the same rule over their attributes, and arrays
over the elements of all their occurrences. An attribute present in some
documents and absent in others is typed by the present occurrences.

The walk has two modes. Schema inference (`infer_collection_type`) raises a
TypeInferenceError where an attribute's values have two or more kinds, or
none. Lenient typing (`lenient_doc_type`) types the intermediate collections
of the search, whose candidate enumeration only needs paths and rough types:
it silently drops such an attribute rather than failing the whole stage.
Where inference succeeds, both give the same type. Any imprecision is
harmless, because every candidate query is verified exactly.
"""

from __future__ import annotations

from .errors import (
    HeterogeneousArrayError,
    InvalidDocumentError,
    TypeInferenceError,
    UntypableArrayError,
    UntypableNullError,
)
from . import values
from .values import kind_of


class PrimT:
    """The type of the values of one primitive `values.kind_of` kind; one instance each."""

    __slots__ = ("kind", "name")

    def __init__(self, kind, name):
        self.kind = kind
        self.name = name

    def __repr__(self):
        return self.name


NUM = PrimT("num", "Num")
STRING = PrimT("str", "String")
BOOL = PrimT("bool", "Bool")
DATETIME = PrimT("datetime", "Datetime")
OBJECTID = PrimT("objectid", "ObjectId")

# each primitive type by the kind of its values
TYPE_OF_KIND = {t.kind: t for t in (NUM, STRING, BOOL, DATETIME, OBJECTID)}


class ArrayT:
    """Array type with a single element type."""

    __slots__ = ("elem",)

    def __init__(self, elem):
        self.elem = elem

    def __eq__(self, other):
        return isinstance(other, ArrayT) and self.elem == other.elem

    def __hash__(self):
        return hash(("arr", self.elem))

    def __repr__(self):
        return f"ArrayT({self.elem!r})"

    def __str__(self):
        return f"Arr⟨{self.elem}⟩"


class DocT:
    """Document type: ordered attribute map, order-insensitive equality.
    `attrs` maps each name of `fields` to its type; do not mutate it. The
    hash is computed once, at construction."""

    __slots__ = ("fields", "attrs", "_hash")

    def __init__(self, fields):
        if isinstance(fields, dict):
            fields = tuple(fields.items())
        else:
            fields = tuple(fields)
        attrs = {}
        for name, t in fields:
            if not values.is_valid_attr(name):
                raise InvalidDocumentError(f"invalid attribute name in type: {name!r}")
            if name in attrs:
                raise InvalidDocumentError(f"duplicate attribute in type: {name!r}")
            attrs[name] = t
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "attrs", attrs)
        object.__setattr__(self, "_hash", hash(frozenset(attrs.items())))

    def __setattr__(self, *a):
        raise AttributeError("DocT is immutable")

    def get(self, name):
        return self.attrs.get(name)

    def __eq__(self, other):
        return isinstance(other, DocT) and self.attrs == other.attrs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DocT({list(self.fields)!r})"

    def __str__(self):
        return "{" + ", ".join(f"{n}: {t}" for n, t in self.fields) + "}"


# ---------------------------------------------------------------------------
# Inference: one walk types a collection, leniently or strictly.
# ---------------------------------------------------------------------------

# how a conflict names the kinds it found
_KIND_NAME = {**{k: str(t) for k, t in TYPE_OF_KIND.items()}, "doc": "{…}", "array": "Arr⟨…⟩"}


def _doc_type(docs, where):
    """The type of the documents `docs`: each attribute, in first-seen
    order, typed by its non-null values in all of them. `where` is None for
    lenient typing, else the documents' location for strict errors."""
    attrs = {}  # name -> its non-null values
    for d in docs:
        for name, v in d.items():
            vals = attrs.get(name)
            if vals is None:
                vals = attrs[name] = []
            if v is not None:
                vals.append(v)
    fields = []
    for name, vals in attrs.items():
        if where is None:
            t = _value_type(vals, None)
            if t is not None:
                fields.append((name, t))
        elif not values.is_valid_attr(name):
            raise InvalidDocumentError(f"invalid attribute name at {where}: {name!r}")
        else:
            fields.append((name, _value_type(vals, f"{where}.{name}")))
    return DocT(fields)


def _value_type(vals, where):
    """The type of the non-null values `vals` of one attribute, or of the
    elements of its arrays. They need exactly one kind; else lenient typing
    (`where` None) returns None and strict typing raises."""
    kinds = {kind_of(v) for v in vals}
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind == "doc":
            return _doc_type(vals, where)
        if kind == "array":
            elems = [x for v in vals for x in v if x is not None]
            if not elems and where is not None:
                raise UntypableArrayError(
                    f"array at {where} is empty or all-null; element type unknown")
            elem = _value_type(elems, where)
            return None if elem is None else ArrayT(elem)
        return TYPE_OF_KIND[kind]
    if where is None:
        return None
    if kinds:
        a, b = list(dict.fromkeys(kind_of(v) for v in vals))[:2]
        raise HeterogeneousArrayError(
            f"conflicting types at {where}: {_KIND_NAME[a]} vs {_KIND_NAME[b]}")
    raise UntypableNullError(f"only null values at {where}; type is undetermined")


def lenient_doc_type(docs) -> DocT:
    """The type of the documents `docs`, without the attributes whose
    non-null values, at any depth, are not of exactly one kind."""
    return _doc_type(docs, None)


def infer_collection_type(docs, where="collection") -> DocT:
    """The type of the collection `docs`, named `where` in errors: the
    lenient type, raising a TypeInferenceError where that drops an attribute."""
    if kind_of(docs) != "array":
        raise InvalidDocumentError(f"{where} is not an array")
    for i, doc in enumerate(docs):
        if kind_of(doc) != "doc":
            raise InvalidDocumentError(f"{where}[{i}] is not a document")
    if not docs:
        raise UntypableArrayError(f"{where} is empty; document type unknown")
    return _doc_type(docs, where)


def compute_schema(db) -> dict:
    """Infer {collection name -> ArrayT(DocT(...))} for a whole database.
    Every error is prefixed with `collection '<name>': `."""
    schema = {}
    for name, docs in db.items():
        try:
            schema[name] = ArrayT(infer_collection_type(docs, where=name))
        except (TypeInferenceError, InvalidDocumentError) as e:
            raise type(e)(f"collection {name!r}: {e}") from None
    return schema


# ---------------------------------------------------------------------------
# Conformance and path utilities
# ---------------------------------------------------------------------------

def conforms(v, t) -> bool:
    """Whether a value inhabits a type. Null inhabits every type; a document
    may omit attributes of its type but not carry extra ones."""
    if v is None:
        return True
    k = kind_of(v)
    if isinstance(t, ArrayT):
        return k == "array" and all(conforms(x, t.elem) for x in v)
    if isinstance(t, DocT):
        if k != "doc":
            return False
        attrs = t.attrs
        return all(n in attrs and conforms(x, attrs[n]) for n, x in v.items())
    return k == t.kind


def type_of_path(doct: DocT, path) -> object:
    """Type at a path, descending only through document attributes (never
    into arrays). None when the path does not resolve."""
    cur = doct
    for seg in path:
        if not isinstance(cur, DocT):
            return None
        cur = cur.get(seg)
        if cur is None:
            return None
    return cur


def typed_paths(doct: DocT):
    """Every path reachable without crossing an array, in lexicographic
    order, each paired with its type. Array-valued attributes appear as
    paths themselves but are not entered."""
    out = []

    def walk(prefix, t):
        for name, vt in t.fields:
            path = prefix + (name,)
            out.append((path, vt))
            if isinstance(vt, DocT):
                walk(path, vt)

    walk((), doct)
    out.sort(key=lambda entry: entry[0])
    return out


def doc_replace_path(doct: DocT, path, new) -> DocT:
    """`doct` with the type at `path`, a path through documents that
    resolves in it, replaced by `new`; field order is kept."""
    head, rest = path[0], path[1:]
    return DocT(
        (n, (doc_replace_path(t, rest, new) if rest else new) if n == head else t)
        for n, t in doct.fields
    )


def doc_intersect(a: DocT, b: DocT) -> DocT:
    """The attributes of `a` that `b` has with an equal type, in `a`'s order;
    an attribute that is a document in both keeps their intersection."""
    fields = []
    for name, t in a.fields:
        u = b.attrs.get(name)
        if isinstance(t, DocT) and isinstance(u, DocT):
            fields.append((name, doc_intersect(t, u)))
        elif t == u:
            fields.append((name, t))
    return DocT(fields)


# ---------------------------------------------------------------------------
# JSON codec for types and schemas
# ---------------------------------------------------------------------------

def _json_kind(kind: str) -> str:
    """The codec's name for a primitive kind, which spells "str" as "string"."""
    return "string" if kind == "str" else kind


_TYPE_OF_JSON_KIND = {_json_kind(k): t for k, t in TYPE_OF_KIND.items()}


def type_from_json(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise InvalidDocumentError(f"invalid type JSON: {obj!r}")
    kind = obj["kind"]
    if kind in _TYPE_OF_JSON_KIND:
        return _TYPE_OF_JSON_KIND[kind]
    if kind == "array":
        if "elem" not in obj:
            raise InvalidDocumentError("array type JSON needs an 'elem' type")
        return ArrayT(type_from_json(obj["elem"]))
    if kind == "doc":
        fields = obj.get("fields")
        if not isinstance(fields, dict):
            raise InvalidDocumentError("doc type JSON needs a 'fields' object")
        return DocT({n: type_from_json(t) for n, t in fields.items()})
    raise InvalidDocumentError(f"unknown type kind: {kind!r}")


def type_to_json(t):
    if isinstance(t, ArrayT):
        return {"kind": "array", "elem": type_to_json(t.elem)}
    if isinstance(t, DocT):
        return {"kind": "doc", "fields": {n: type_to_json(x) for n, x in t.fields}}
    return {"kind": _json_kind(t.kind)}


def schema_from_json(obj):
    if not isinstance(obj, dict):
        raise InvalidDocumentError("schema JSON must be an object")
    schema = {}
    for name, tj in obj.items():
        t = type_from_json(tj)
        if not isinstance(t, ArrayT) or not isinstance(t.elem, DocT):
            raise InvalidDocumentError(f"schema entry {name!r} must be an array of documents")
        schema[name] = t
    return schema


def schema_to_json(schema):
    return {name: type_to_json(t) for name, t in schema.items()}
