"""Abstract evaluation of sketches.

A sketch is an operator spine over the task's one input collection: a
tuple of stage kinds from `OPERATOR_TAGS`, innermost first, with every
argument left open. Evaluating it over the schema yields Λ, the document
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

Evaluation is a left fold from the leaf outward: Λ starts from the interned
root tuple of the searched collection, and each stage takes one successor
step. `AbsEvalContext` holds the schema, the searched collection and one
example's output type, interns types and tuples of types, and computes
each (operator, parent tuple) step once, so Λ of a spine costs one table
lookup per stage and memo entries share their objects. A type is interned
by its one equality, which ignores attribute order and placeholder order.
Verdicts are safe under that, since `matches` reads attributes by name. So
are renders: every type of a context comes from its root through steps
that keep the relative order of attributes, so equal types in one context
list their attributes alike. The synthesizer refines a spine by prepending
a stage at the leaf, so `ops[:-1]` of a depth-d+1 spine is a depth-d
spine, and breadth-first search has taken every step but the last already.
"""

from __future__ import annotations

from itertools import combinations

from .abstraction import ANY, AugmentedType
from .types import NUM, ArrayT, DocT, doc_intersect, doc_replace_path, typed_paths

OPERATOR_TAGS = ("project", "match", "add_fields", "unwind", "group", "lookup")


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
    """The schema, the searched collection, one example's output type and
    the group-key bound, plus the interned abstract steps over them and
    deduction's type verdicts on that output."""

    def __init__(self, schema: dict, collection: str, out_type: DocT, max_group_keys: int):
        self.schema = schema  # collection -> ArrayT of its document type
        self.out_type = out_type
        self.max_group_keys = max_group_keys
        self.typed = {}      # document type -> whether out_type matches it
        self._types = {}     # abstract type -> the one equal type interned
        self._tuples = {}    # ids of interned types -> the one tuple of them
        self._steps = {}     # (tag, id(parent types)) -> the types after it
        # Types and type tuples are interned, and the intern tables keep them
        # alive as long as the context, so an id names one of them.
        self.root = self._intern_tuple((self._intern(AugmentedType(schema[collection].elem)),))

    def step(self, parent: tuple, tag: str) -> tuple:
        """The types after one stage of kind `tag` on the interned `parent`."""
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


def abs_eval(ctx: AbsEvalContext, ops: tuple) -> tuple:
    """Λ: the document types any completion of the spine `ops` (stage kinds,
    innermost first) over ctx's collection can produce, as interned by ctx."""
    types = ctx.root
    for tag in ops:
        types = ctx.step(types, tag)
    return types
