"""Augmented document types, the type algebra, and concretization.

An augmented type is a document type whose top level may additionally hold
placeholder attributes: ?¹ stands for exactly one attribute of the given
type, ?⁺ for one or more. Values may also be Any, which matches every value
type. Placeholders never nest below the top level.

Equality (and hence deduplication) treats attribute order as irrelevant and
placeholder labels as meaningful only up to bijective renaming: two augmented
types are interchangeable when their named entries agree and their
placeholders pair up by kind and value type.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import MalformedQueryError, NotASubsetError
from .types import DocT


class AnyType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Any"


ANY = AnyType()

_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


@dataclass(frozen=True)
class Placeholder:
    kind: str  # "one" | "many"
    label: int

    def __post_init__(self):
        if self.kind not in ("one", "many"):
            raise MalformedQueryError(f"placeholder kind must be 'one' or 'many': {self.kind!r}")

    def render(self) -> str:
        mark = "¹" if self.kind == "one" else "⁺"
        return "?" + mark + str(self.label).translate(_SUBSCRIPTS)


def _render_value(v) -> str:
    if v is ANY:
        return "Any"
    if isinstance(v, AugmentedType):
        return v.render()
    return str(v)


class AugmentedType:
    """Ordered attribute map; keys are names or top-level placeholders."""

    __slots__ = ("entries", "_named", "_placeholders", "_canon")

    def __init__(self, entries):
        entries = tuple(entries)
        named = {}
        placeholders = []
        for key, value in entries:
            if isinstance(key, Placeholder):
                placeholders.append((key, value))
            else:
                if key in named:
                    raise MalformedQueryError(f"duplicate attribute {key!r}")
                named[key] = value
            if isinstance(value, AugmentedType) and value.placeholders():
                raise MalformedQueryError("placeholders may only occur at top level")
        labels = [p.label for p, _ in placeholders]
        if len(labels) != len(set(labels)):
            raise MalformedQueryError("placeholder labels must be unique")
        self.entries = entries
        self._named = named
        self._placeholders = tuple(placeholders)
        self._canon = None

    def named(self) -> dict:
        return self._named

    def placeholders(self) -> tuple:
        return self._placeholders

    def get(self, name):
        return self._named.get(name)

    def __contains__(self, name):
        return name in self._named

    def _canonical(self):
        if self._canon is None:
            named = frozenset((k, _canon_value(v)) for k, v in self._named.items())
            phs = Counter((p.kind, _canon_value(v)) for p, v in self._placeholders)
            self._canon = (named, frozenset(phs.items()))
        return self._canon

    def __eq__(self, other):
        return isinstance(other, AugmentedType) and self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())

    def render(self) -> str:
        parts = [f"{k}: {_render_value(v)}" for k, v in self.entries if not isinstance(k, Placeholder)]
        for p, v in sorted(self._placeholders, key=lambda e: e[0].label):
            parts.append(f"{p.render()}: {_render_value(v)}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self):
        return self.render()


def _canon_value(v):
    if v is ANY:
        return "Any"
    if isinstance(v, AugmentedType):
        return v._canonical()
    return v


def from_doc_type(t: DocT) -> AugmentedType:
    entries = []
    for name, vt in t.fields:
        entries.append((name, from_doc_type(vt) if isinstance(vt, DocT) else vt))
    return AugmentedType(entries)


def to_doc_type(t: AugmentedType) -> DocT:
    """Drop placeholder entries and Any-typed entries, recursively."""
    fields = []
    for key, value in t.entries:
        if isinstance(key, Placeholder) or value is ANY:
            continue
        fields.append((key, to_doc_type(value) if isinstance(value, AugmentedType) else value))
    return DocT(fields)


# ---------------------------------------------------------------------------
# Type algebra. BOT is the absurd type; attributes mapped to it are deleted.
# ---------------------------------------------------------------------------

BOT = object()


def _value_union(a, b):
    if a is BOT:
        return b
    if b is BOT:
        return a
    if isinstance(a, AugmentedType) and isinstance(b, AugmentedType):
        return type_union(a, b)
    return a if _value_eq(a, b) else BOT


def _value_eq(a, b):
    if a is ANY or b is ANY:
        return a is b
    if isinstance(a, AugmentedType) or isinstance(b, AugmentedType):
        return isinstance(a, AugmentedType) and isinstance(b, AugmentedType) and a == b
    return a == b


def type_union(a: AugmentedType, b: AugmentedType) -> AugmentedType:
    entries = []
    b_map = dict(b.entries)
    for key, av in a.entries:
        if key in b_map:
            merged = _value_union(av, b_map.pop(key))
            if merged is not BOT:
                entries.append((key, merged))
        else:
            entries.append((key, av))
    for key, bv in b.entries:
        if key in b_map:
            entries.append((key, bv))
    return AugmentedType(entries)


def type_intersect(a: AugmentedType, b: AugmentedType) -> AugmentedType:
    entries = []
    b_map = dict(b.entries)
    for key, av in a.entries:
        if key not in b_map:
            continue
        bv = b_map[key]
        if isinstance(av, AugmentedType) and isinstance(bv, AugmentedType):
            entries.append((key, type_intersect(av, bv)))
        elif _value_eq(av, bv):
            entries.append((key, av))
    return AugmentedType(entries)


def type_subset(a: AugmentedType, b: AugmentedType) -> bool:
    b_map = dict(b.entries)
    for key, av in a.entries:
        if key not in b_map:
            return False
        bv = b_map[key]
        if isinstance(av, AugmentedType) and isinstance(bv, AugmentedType):
            if not type_subset(av, bv):
                return False
        elif not _value_eq(av, bv):
            return False
    return True


def type_subtract(a: AugmentedType, b: AugmentedType) -> AugmentedType:
    if not type_subset(b, a):
        raise NotASubsetError(f"{b!r} is not a subset of {a!r}")
    drop = set(k for k, _ in b.entries)
    return AugmentedType((k, v) for k, v in a.entries if k not in drop)


def type_replace_path(t: AugmentedType, path, new_value) -> AugmentedType:
    """Replace the value at an exact named path (no placeholder traversal)."""
    head, rest = path[0], path[1:]
    entries = list(t.entries)
    for i, (k, v) in enumerate(entries):
        if k == head:
            if not rest:
                entries[i] = (k, new_value)
            else:
                if not isinstance(v, AugmentedType):
                    raise MalformedQueryError(f"path {path!r} does not resolve in {t!r}")
                entries[i] = (k, type_replace_path(v, rest, new_value))
            return AugmentedType(entries)
    raise MalformedQueryError(f"path {path!r} does not resolve in {t!r}")


# ---------------------------------------------------------------------------
# The match relation between concrete document types and augmented types
# ---------------------------------------------------------------------------

def _match_value(plain, av) -> bool:
    if av is ANY:
        return True
    if isinstance(av, AugmentedType):
        if not isinstance(plain, DocT):
            return False
        if plain.attrs.keys() != av.named().keys():
            return False
        return all(_match_value(pt, av.get(name)) for name, pt in plain.fields)
    if isinstance(plain, DocT):
        return isinstance(av, DocT) and plain == av
    return plain == av


def matches(t: DocT, aug: AugmentedType) -> bool:
    """Whether some placeholder instantiation of `aug` is exactly `t`.

    Named attributes must be present with matching types; every remaining
    attribute must then be absorbed by the placeholders, each ?¹ taking
    exactly one and each ?⁺ at least one.
    """
    named = aug.named()
    for name, av in named.items():
        if name not in t:
            return False
        if not _match_value(t.attrs[name], av):
            return False
    remaining = sorted(name for name in t.attrs if name not in named)
    phs = sorted(aug.placeholders(), key=lambda e: (0 if e[0].kind == "one" else 1, e[0].label))
    if not phs:
        return not remaining
    if len(remaining) < len(phs):
        return False

    counts = [0] * len(phs)

    def assign(i):
        if i == len(remaining):
            return all(
                c == 1 if p.kind == "one" else c >= 1
                for (p, _), c in zip(phs, counts)
            )
        pt = t.attrs[remaining[i]]
        for k, (p, av) in enumerate(phs):
            if p.kind == "one" and counts[k] >= 1:
                continue
            if not _match_value(pt, av):
                continue
            counts[k] += 1
            if assign(i + 1):
                return True
            counts[k] -= 1
        return False

    return assign(0)


def concretizes(coll, aug: AugmentedType, *, doc_type: DocT) -> bool:
    """Whether the concrete collection, whose documents have type `doc_type`,
    can be an instance of the abstract document type `aug`.

    This is the type half of concretization; deduction decides the size half
    by folding each example's input size through the spine's stage kinds
    (`sizes.reachable`). It is vacuous for an empty collection (no document
    type exists to check).
    """
    return not coll or matches(doc_type, aug)


__all__ = [
    "ANY", "AnyType", "Placeholder", "AugmentedType",
    "from_doc_type", "to_doc_type", "BOT",
    "type_union", "type_intersect", "type_subset", "type_subtract",
    "type_replace_path",
    "matches", "concretizes",
]
