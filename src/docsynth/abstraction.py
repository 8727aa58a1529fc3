"""Augmented document types and concretization.

An augmented type is a document type of named attributes, a plain `DocT`,
plus placeholder attributes at its top level: ?¹ stands for exactly one
attribute of the given type, ?⁺ for one or more. A placeholder's value, and
a named attribute's, may also be Any, which matches every value type.
Nested values are plain `DocT`, `ArrayT` and primitive types, so
placeholders occur only at the top level by construction.

Equality (and hence deduplication) treats attribute order and placeholder
order as irrelevant: two augmented types are interchangeable when their named
parts are equal and their placeholders pair up by kind and value type.
"""

from __future__ import annotations

from collections import Counter

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

class AugmentedType:
    """A `DocT` of named attributes plus a tuple of top-level placeholder
    entries, each a (kind, value type) pair with kind "one" (?¹) or
    "many" (?⁺). Its canonical pair and hash are computed once, at
    construction."""

    __slots__ = ("doc", "placeholders", "_canon", "_hash")

    def __init__(self, doc: DocT, placeholders=()):
        self.doc = doc
        self.placeholders = tuple(placeholders)
        self._canon = (doc, frozenset(Counter(self.placeholders).items()))
        self._hash = hash(self._canon)

    def __eq__(self, other):
        return isinstance(other, AugmentedType) and self._canon == other._canon

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        parts = [f"{k}: {v}" for k, v in self.doc.fields]
        parts += sorted(f"?{'¹' if kind == 'one' else '⁺'}: {v}" for kind, v in self.placeholders)
        return "{" + ", ".join(parts) + "}"

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# The match relation between concrete document types and augmented types
# ---------------------------------------------------------------------------

def matches(t: DocT, aug: AugmentedType) -> bool:
    """Whether some placeholder instantiation of `aug` is exactly `t`.

    Named attributes must be present with equal types (or Any); every
    remaining attribute must then be absorbed by the placeholders, each ?¹
    taking exactly one and each ?⁺ at least one.
    """
    named = aug.doc.attrs
    for name, av in named.items():
        if name not in t.attrs or not (av is ANY or t.attrs[name] == av):
            return False
    remaining = sorted(name for name in t.attrs if name not in named)
    phs = sorted(aug.placeholders, key=lambda e: e[0] != "one")
    if not phs:
        return not remaining
    if len(remaining) < len(phs):
        return False

    counts = [0] * len(phs)

    def assign(i):
        if i == len(remaining):
            return all(
                c == 1 if kind == "one" else c >= 1
                for (kind, _), c in zip(phs, counts)
            )
        pt = t.attrs[remaining[i]]
        for k, (kind, av) in enumerate(phs):
            if kind == "one" and counts[k] >= 1:
                continue
            if not (av is ANY or pt == av):
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


__all__ = ["ANY", "AnyType", "AugmentedType", "matches", "concretizes"]
