"""Value types, type inference, and schemas.

Document types are insertion-ordered but compare order-insensitively. Null is
a value of every type, so inference unifies: within an array (and across the
documents of a collection) an attribute's type is determined by its non-null
occurrences, and an attribute present in some documents and absent in others
is typed by the present occurrences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HeterogeneousArrayError,
    InvalidDocumentError,
    TypeInferenceError,
    UntypableArrayError,
    UntypableNullError,
)
from . import values
from .values import kind_of


@dataclass(frozen=True)
class NumT:
    def __str__(self):
        return "Num"


@dataclass(frozen=True)
class StringT:
    def __str__(self):
        return "String"


@dataclass(frozen=True)
class BoolT:
    def __str__(self):
        return "Bool"


@dataclass(frozen=True)
class DatetimeT:
    def __str__(self):
        return "Datetime"


@dataclass(frozen=True)
class ObjectIdT:
    def __str__(self):
        return "ObjectId"


NUM = NumT()
STRING = StringT()
BOOL = BoolT()
DATETIME = DatetimeT()
OBJECTID = ObjectIdT()

# Each primitive type and the kind of its values (values.kind_of), both ways.
# The inverse is keyed by the type's class, which hashes cheaply.
TYPE_OF_KIND = {"num": NUM, "str": STRING, "bool": BOOL, "datetime": DATETIME, "objectid": OBJECTID}
KIND_OF_TYPE = {type(t): k for k, t in TYPE_OF_KIND.items()}


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
    `attrs` maps each name of `fields` to its type; do not mutate it."""

    __slots__ = ("fields", "attrs")

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

    def __setattr__(self, *a):
        raise AttributeError("DocT is immutable")

    def get(self, name):
        return self.attrs.get(name)

    def __contains__(self, name):
        return name in self.attrs

    def __eq__(self, other):
        return isinstance(other, DocT) and self.attrs == other.attrs

    def __hash__(self):
        return hash(frozenset(self.attrs.items()))

    def __repr__(self):
        return f"DocT({list(self.fields)!r})"

    def __str__(self):
        return "{" + ", ".join(f"{n}: {t}" for n, t in self.fields) + "}"


# ---------------------------------------------------------------------------
# Inference. Internally a null infers to _UNKNOWN and unification resolves it
# against sibling occurrences; any _UNKNOWN left at the end is an error.
# ---------------------------------------------------------------------------

_UNKNOWN = ("unknown",)


def _infer(v, where):
    k = kind_of(v)
    if k == "null":
        return _UNKNOWN
    if k in TYPE_OF_KIND:
        return TYPE_OF_KIND[k]
    if k == "array":
        elem = _UNKNOWN
        for i, x in enumerate(v):
            elem = _unify(elem, _infer(x, f"{where}[{i}]"), where)
        return ArrayT(elem)
    # document
    fields = {}
    for name, x in v.items():
        if not values.is_valid_attr(name):
            raise InvalidDocumentError(f"invalid attribute name at {where}: {name!r}")
        fields[name] = _infer(x, f"{where}.{name}")
    return DocT(fields)


def _unify(a, b, where):
    if a is _UNKNOWN:
        return b
    if b is _UNKNOWN:
        return a
    if isinstance(a, ArrayT) and isinstance(b, ArrayT):
        return ArrayT(_unify(a.elem, b.elem, where))
    if isinstance(a, DocT) and isinstance(b, DocT):
        fields = dict(a.fields)
        for name, t in b.fields:
            fields[name] = _unify(fields[name], t, f"{where}.{name}") if name in fields else t
        return DocT(fields)
    if a == b:
        return a
    raise HeterogeneousArrayError(f"conflicting types at {where}: {a} vs {b}")


def _resolve(t, where):
    if t is _UNKNOWN:
        raise UntypableNullError(f"only null values at {where}; type is undetermined")
    if isinstance(t, ArrayT):
        if t.elem is _UNKNOWN:
            raise UntypableArrayError(f"array at {where} is empty or all-null; element type unknown")
        return ArrayT(_resolve(t.elem, where))
    if isinstance(t, DocT):
        return DocT({n: _resolve(x, f"{where}.{n}") for n, x in t.fields})
    return t


def infer_collection_type(docs, where="collection") -> DocT:
    """Unified document type across a collection's documents."""
    t = _UNKNOWN
    for i, doc in enumerate(docs):
        if kind_of(doc) != "doc":
            raise InvalidDocumentError(f"{where}[{i}] is not a document")
        t = _unify(t, _infer(doc, f"{where}[{i}]"), f"{where}[{i}]")
    if t is _UNKNOWN:
        raise UntypableArrayError(f"{where} is empty; document type unknown")
    return _resolve(t, where)


def compute_schema(db) -> dict:
    """Infer {collection name -> ArrayT(DocT(...))} for a whole database."""
    schema = {}
    for name, docs in db.items():
        try:
            schema[name] = ArrayT(infer_collection_type(docs, where=name))
        except TypeInferenceError as e:
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
    return k == KIND_OF_TYPE[type(t)]


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
    if not isinstance(obj, dict) or "kind" not in obj:
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
    return {"kind": _json_kind(KIND_OF_TYPE[type(t)])}


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
