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

from .errors import InvalidDocumentError


@dataclass(frozen=True, order=True)
class Datetime:
    """An opaque timestamp carrying its ISO-8601 rendering."""

    value: str


@dataclass(frozen=True, order=True)
class ObjectId:
    """An opaque object identifier carrying its hex rendering."""

    value: str


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
    "null": 0,
    "num": 1,
    "str": 2,
    "objectid": 3,
    "bool": 4,
    "datetime": 5,
    "array": 6,
    "doc": 7,
}


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
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "num"
    if isinstance(v, str):
        return "str"
    if isinstance(v, Datetime):
        return "datetime"
    if isinstance(v, ObjectId):
        return "objectid"
    if isinstance(v, list):
        return "array"
    if isinstance(v, dict):
        return "doc"
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


def value_key(v):
    """Hashable canonical form; value_key(a) == value_key(b) iff value_eq."""
    k = kind_of(v)
    if k == "doc":
        return ("doc", tuple(sorted((n, value_key(x)) for n, x in v.items())))
    if k == "array":
        return ("array", tuple(value_key(x) for x in v))
    if k == "num":
        return ("num", float(v))
    if k == "null":
        return ("null",)
    return (k, v)


def value_lt(a, b) -> bool:
    """Strict order used by the ``<``/``>`` predicates.

    False whenever either side is Null or the kinds differ; documents and
    arrays are never ordered.
    """
    ka, kb = kind_of(a), kind_of(b)
    if ka != kb or ka in ("null", "array", "doc"):
        return False
    if ka == "bool":
        return (not a) and b
    return a < b


def order_key(v):
    """Total order key across kinds, used only by Min/Max aggregation."""
    k = kind_of(v)
    if k == "num":
        return (_KIND_RANK[k], float(v))
    if k in ("datetime", "objectid"):
        return (_KIND_RANK[k], v.value)
    if k in ("array", "doc"):
        return (_KIND_RANK[k], repr(value_key(v)))
    if k == "null":
        return (_KIND_RANK[k], 0)
    return (_KIND_RANK[k], v)


def collection_eq(a, b) -> bool:
    """Order-sensitive collection equality."""
    return len(a) == len(b) and all(value_eq(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------

def is_valid_attr(name) -> bool:
    return isinstance(name, str) and name != "" and "." not in name


def parse_path(text: str) -> Path:
    """Split a dotted path string into a path tuple."""
    parts = tuple(text.split("."))
    if not text or not all(p != "" for p in parts):
        raise InvalidDocumentError(f"invalid access path: {text!r}")
    return parts


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

def value_from_json(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [value_from_json(x) for x in obj]
    if isinstance(obj, dict):
        if len(obj) == 1:
            if "$date" in obj:
                tag = obj["$date"]
                if not isinstance(tag, str):
                    raise InvalidDocumentError(f"$date expects a string, got {tag!r}")
                return Datetime(tag)
            if "$oid" in obj:
                tag = obj["$oid"]
                if not isinstance(tag, str):
                    raise InvalidDocumentError(f"$oid expects a string, got {tag!r}")
                return ObjectId(tag)
        out = {}
        for name, val in obj.items():
            if not is_valid_attr(name):
                raise InvalidDocumentError(f"invalid attribute name: {name!r}")
            out[name] = value_from_json(val)
        return out
    raise InvalidDocumentError(f"unsupported JSON value: {obj!r}")


def value_to_json(v):
    k = kind_of(v)
    if k == "datetime":
        return {"$date": v.value}
    if k == "objectid":
        return {"$oid": v.value}
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
    return {name: collection_from_json(coll) for name, coll in obj.items()}


def database_to_json(db):
    return {name: [value_to_json(d) for d in coll] for name, coll in db.items()}
