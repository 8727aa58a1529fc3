"""Abstract evaluation of sketches.

A sketch fixes the pipeline's operator spine and leaf collection but leaves
every argument open. Evaluating it over the schema yields Λ, the document
types, with placeholders, that any completion's output could have; the
synthesizer prunes a sketch when the observed output matches none of them.
The size half of the abstraction needs no evaluation: deduction folds each
example's input size through the spine's stage kinds (`sizes.reachable`).

Each stage contributes its type successors. An abstract type is a `DocT` of
named attributes plus top-level placeholders (`abstraction.AugmentedType`),
and each successor builds its result from those two parts directly:

  match       the type itself.
  project     the named attributes the example's output type has with an
              equal type (`types.doc_intersect`), and every placeholder.
  add_fields  ?⁺: Any appended, unless it is already there.
  lookup      ?¹ appended, typed by one collection of the schema, one
              successor per collection.
  unwind      the array at one path that crosses no array replaced by its
              element type, one successor per such path, in lexicographic
              order (`types.typed_paths`).
  group       {_id: a set of at most max_group_keys named attributes}, with
              and without ?⁺: Num, per key set.

Evaluation is a left fold from the leaf outward: Λ starts from one interned
root tuple per collection, and each stage takes one successor step.
`AbsEvalContext` holds the schema and one example's output type, interns
types and tuples of types, and computes each (operator, parent tuple) step
once, so Λ of a spine costs one table lookup per stage and memo entries
share their objects. A type is interned by its one equality, which ignores
attribute order and placeholder order. Verdicts are safe under that, since
`matches` reads attributes by name. So are renders: every type of a context
comes from the schema roots through steps that keep the relative order of
attributes, so equal types in one context list their attributes alike. The
synthesizer refines a spine by prepending a stage at the leaf, so
`ops[:-1]` of a depth-d+1 spine is a depth-d spine, and breadth-first search
has taken every step but the last already.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .abstraction import ANY, AugmentedType
from .errors import MalformedQueryError, UnknownCollectionError
from .types import NUM, ArrayT, DocT, doc_intersect, doc_replace_path, typed_paths

OPERATOR_TAGS = ("project", "match", "add_fields", "unwind", "group", "lookup")


@dataclass(frozen=True, slots=True)
class Sketch:
    collection: str
    ops: tuple  # operator tags, innermost first

    def __post_init__(self):
        for tag in self.ops:
            if tag not in OPERATOR_TAGS:
                raise MalformedQueryError(f"unknown operator tag {tag!r}")

    @property
    def depth(self) -> int:
        return len(self.ops)

    def render(self) -> str:
        out = self.collection
        for tag in self.ops:
            out = f"{tag.capitalize() if tag != 'add_fields' else 'AddFields'}({out}, ·)"
        return out


def _successors(tag, t: AugmentedType, out_type: DocT, schema, max_group_keys):
    doc, phs = t.doc, t.placeholders
    if tag == "match":
        return [t]
    if tag == "project":
        return [AugmentedType(doc_intersect(doc, out_type), phs)]
    if tag == "add_fields":
        new = ("many", ANY)
        return [t if new in phs else AugmentedType(doc, phs + (new,))]
    if tag == "unwind":
        return [
            AugmentedType(doc_replace_path(doc, path, vt.elem), phs)
            for path, vt in typed_paths(doc) if isinstance(vt, ArrayT)
        ]
    if tag == "lookup":
        return [AugmentedType(doc, phs + (("one", foreign),)) for foreign in schema.values()]
    # group: the key document is {_id: a subset of the named attributes},
    # with or without the aggregates
    out = []
    for size in range(1, min(max_group_keys, len(doc.fields)) + 1):
        for keys in combinations(doc.fields, size):
            key_doc = DocT([("_id", DocT(keys))])
            out.append(AugmentedType(key_doc, [("many", NUM)]))
            out.append(AugmentedType(key_doc))
    return out


class AbsEvalContext:
    """The schema, one example's output type and the group-key bound, plus
    the interned abstract steps over them and deduction's type verdicts on
    that output."""

    def __init__(self, schema: dict, out_type: DocT, max_group_keys: int = 2):
        self.schema = schema  # collection -> ArrayT of its document type
        self.out_type = out_type
        self.max_group_keys = max_group_keys
        self.typed = {}      # document type -> whether out_type matches it
        self._types = {}     # abstract type -> the one equal type interned
        self._tuples = {}    # ids of interned types -> the one tuple of them
        self._steps = {}     # (tag, id(parent types)) -> the types after it
        # Types and type tuples are interned, and the intern tables keep them
        # alive as long as the context, so an id names one of them.
        self._roots = {      # collection -> the types of Λ for the bare spine
            name: self._intern_tuple((self._intern(AugmentedType(coll_type.elem)),))
            for name, coll_type in schema.items()
        }

    def types(self, collection: str, ops: tuple) -> tuple:
        """The document types of Λ for the spine `ops` over `collection`."""
        types = self._roots[collection]
        for tag in ops:
            types = self._step(types, tag)
        return types

    def _step(self, parent: tuple, tag: str) -> tuple:
        if not parent:
            return ()
        key = (tag, id(parent))
        types = self._steps.get(key)
        if types is None:
            nxt = {}
            for t in parent:
                for s in _successors(tag, t, self.out_type, self.schema, self.max_group_keys):
                    nxt.setdefault(self._intern(s), None)
            types = self._steps[key] = self._intern_tuple(tuple(nxt))
        return types

    def _intern_tuple(self, types: tuple) -> tuple:
        return self._tuples.setdefault(tuple(map(id, types)), types)

    def _intern(self, t: AugmentedType) -> AugmentedType:
        return self._types.setdefault(t, t)


def abs_eval(ctx: AbsEvalContext, sk: Sketch) -> tuple:
    """Λ: the document types any completion of sk can produce, as interned by ctx."""
    if sk.collection not in ctx.schema:
        raise UnknownCollectionError(f"unknown collection {sk.collection!r}")
    return ctx.types(sk.collection, sk.ops)
