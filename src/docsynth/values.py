"""Value model: documents, collections, databases, and access paths.

Values are plain Python data wherever possible:

    Null      -> None
    Num       -> int | float   (bool is excluded; it is its own kind)
    Str       -> str
    Bool      -> bool
    Datetime  -> Datetime wrapper (opaque, ordered by its ISO string)
    ObjectId  -> ObjectId wrapper (opaque, ordered by its hex string)
    Array     -> list
    Document  -> dict (insertion-ordered, attribute names are non-empty
                 strings without ".")

Python's own ``==`` conflates ``True`` with ``1``; use :func:`value_eq` /
:func:`value_key` everywhere equality or hashing of values matters.

A document attribute can be *absent*, which is distinct from holding Null.
:func:`get_path` returns the :data:`ABSENT` sentinel for missing paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern

from .errors import InvalidDocumentError


@dataclass(frozen=True, order=True)
class _Opaque:
    """A value known by its rendering alone; two subclasses' values are unequal, unordered."""

    value: str


class Datetime(_Opaque):
    """An opaque timestamp carrying its ISO-8601 rendering."""


class ObjectId(_Opaque):
    """An opaque object identifier carrying its hex rendering."""


class _Absent:
    __slots__ = ()

    def __repr__(self):
        return "ABSENT"

    def __bool__(self):
        return False


ABSENT = _Absent()

# Access paths are tuples of attribute names.
Path = tuple

_KIND_RANK = {
    "num": 1,
    "str": 2,
    "objectid": 3,
    "bool": 4,
    "datetime": 5,
    "array": 6,
    "doc": 7,
}

# bool precedes int: kind_of's isinstance fallback tries the entries in
# order, and bool is a subclass of int
_KIND_OF_PY_TYPE = {
    type(None): "null",
    bool: "bool",
    int: "num",
    float: "num",
    str: "str",
    Datetime: "datetime",
    ObjectId: "objectid",
    list: "array",
    dict: "doc",
}


def kind_of(v):
    """Return the kind tag of a value ('null', 'num', 'str', ...)."""
    kind = _KIND_OF_PY_TYPE.get(type(v))
    if kind is not None:
        return kind
    # subclasses and unsupported values
    for py_type, kind in _KIND_OF_PY_TYPE.items():
        if isinstance(v, py_type):
            return kind
    raise InvalidDocumentError(f"unsupported value of type {type(v).__name__}: {v!r}")


def value_eq(a, b) -> bool:
    """Deep equality. Null equals only Null; Num never equals Bool."""
    ka, kb = kind_of(a), kind_of(b)
    if ka != kb:
        return False
    if ka == "doc":
        return a.keys() == b.keys() and all(value_eq(a[k], b[k]) for k in a)
    if ka == "array":
        return len(a) == len(b) and all(value_eq(x, y) for x, y in zip(a, b))
    return a == b


class _NaNKey:
    """The key of one NaN: equal to no other key, as NaN equals no value."""

    __slots__ = ()

    def __repr__(self):
        return "nan"


def value_key(v):
    """Hashable canonical form; value_key(a) == value_key(b) iff value_eq.

    Numbers key by their exact value, so 2**53 + 1 and 2**53 stay apart
    while 1, 1.0 and -0.0, 0 meet (Python hashes an int and a float that are
    equal alike). Every call on a NaN gives a fresh key, so no two keys
    built from NaN are equal, not even two built from the same object.
    """
    k = kind_of(v)
    if k == "doc":
        return ("doc", tuple(sorted((n, value_key(x)) for n, x in v.items())))
    if k == "array":
        return ("array", tuple(value_key(x) for x in v))
    if k == "num":
        return ("num", _NaNKey() if v != v else v)
    if k == "null":
        return ("null",)
    return (k, v)


def value_cmp(a, b):
    """Three-way comparison used by the comparison predicates: -1, 0 or 1,
    or None when the values are unequal and unordered (the kinds differ,
    unequal documents or arrays, NaN). It is 0 exactly when value_eq holds.
    """
    ka = kind_of(a)
    if ka != kind_of(b):
        return None
    if ka in ("doc", "array"):
        return 0 if value_eq(a, b) else None
    if ka == "null" or a == b:
        return 0
    return -1 if a < b else 1 if b < a else None


def order_key(v):
    """Total order key across the kinds of non-null values, used only by
    Min/Max aggregation, which drops nulls first.

    A number keys as itself: Python compares an int with a float exactly,
    so 2**53 + 1 orders above 2**53, which float() would merge.
    """
    k = kind_of(v)
    if k in ("datetime", "objectid"):
        return (_KIND_RANK[k], v.value)
    if k in ("array", "doc"):
        return (_KIND_RANK[k], repr(value_key(v)))
    return (_KIND_RANK[k], v)


def collection_eq(a, b) -> bool:
    """Order-sensitive collection equality."""
    return len(a) == len(b) and all(value_eq(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------

def is_valid_attr(name) -> bool:
    return isinstance(name, str) and name != "" and "." not in name


def check_value(v):
    """Raise InvalidDocumentError at an unsupported value or attribute name in `v`."""
    k = kind_of(v)
    if k == "doc":
        for name, x in v.items():
            if not is_valid_attr(name):
                raise InvalidDocumentError(f"invalid attribute name: {name!r}")
            check_value(x)
    elif k == "array":
        for x in v:
            check_value(x)


def path_str(path: Path) -> str:
    return ".".join(path)


def get_path(doc, path: Path):
    """Resolve a path in a document; ABSENT when any hop is missing or the
    current value is not a document."""
    cur = doc
    for seg in path:
        if not isinstance(cur, dict) or seg not in cur:
            return ABSENT
        cur = cur[seg]
    return cur


def has_path(doc, path: Path) -> bool:
    return get_path(doc, path) is not ABSENT


def extract_attrs(doc, paths) -> dict:
    """Build a new document containing just the given paths, preserving
    nesting. Paths that do not resolve are skipped entirely."""
    out: dict = {}
    for path in paths:
        val = get_path(doc, path)
        if val is ABSENT:
            continue
        cur = out
        for seg in path[:-1]:
            nxt = cur.get(seg)
            if not isinstance(nxt, dict):
                nxt = {}
                cur[seg] = nxt
            cur = nxt
        cur[path[-1]] = val
    return out


def add_attrs(doc, paths, values) -> dict:
    """Return a copy of doc with each path set to the paired value.

    Intermediate documents are created (or shallow-copied) along the way;
    non-document intermediates are replaced. Synthesis never targets an
    existing path, but if one is given the final segment is overwritten.
    """
    out = dict(doc)
    for path, val in zip(paths, values):
        cur = out
        for seg in path[:-1]:
            nxt = cur.get(seg)
            nxt = dict(nxt) if isinstance(nxt, dict) else {}
            cur[seg] = nxt
            cur = nxt
        cur[path[-1]] = val
    return out


# ---------------------------------------------------------------------------
# JSON codec. Datetime and ObjectId travel as {"$date": ...} / {"$oid": ...}.
# ---------------------------------------------------------------------------

_TAG_OF_KIND = {"datetime": "$date", "objectid": "$oid"}
_OPAQUE_OF_TAG = {"$date": Datetime, "$oid": ObjectId}


def value_from_json(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [value_from_json(x) for x in obj]
    if isinstance(obj, dict):
        if len(obj) == 1:
            (tag, body), = obj.items()
            if tag in _OPAQUE_OF_TAG:
                if not isinstance(body, str):
                    raise InvalidDocumentError(f"{tag} expects a string, got {body!r}")
                return _OPAQUE_OF_TAG[tag](body)
        out = {}
        for name, val in obj.items():
            if not is_valid_attr(name):
                raise InvalidDocumentError(f"invalid attribute name: {name!r}")
            # interned, so the queries built from many decoded tasks share
            # their attribute names instead of each keeping its task's copy
            out[intern(name)] = value_from_json(val)
        return out
    raise InvalidDocumentError(f"unsupported JSON value: {obj!r}")


def value_to_json(v):
    k = kind_of(v)
    if k in _TAG_OF_KIND:
        return {_TAG_OF_KIND[k]: v.value}
    if k == "array":
        return [value_to_json(x) for x in v]
    if k == "doc":
        return {name: value_to_json(x) for name, x in v.items()}
    return v


def collection_from_json(obj):
    if not isinstance(obj, list):
        raise InvalidDocumentError("a collection must be a JSON array")
    docs = []
    for item in obj:
        doc = value_from_json(item)
        if not isinstance(doc, dict):
            raise InvalidDocumentError(f"collection element is not a document: {item!r}")
        docs.append(doc)
    return docs


def database_from_json(obj):
    if not isinstance(obj, dict):
        raise InvalidDocumentError("a database must be a JSON object")
    return {intern(name): collection_from_json(coll) for name, coll in obj.items()}


def database_to_json(db):
    return {name: [value_to_json(d) for d in coll] for name, coll in db.items()}
