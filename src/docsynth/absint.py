"""Abstract evaluation of sketches.

A sketch fixes the pipeline's operator spine and leaf collection but leaves
every argument open. Evaluating it over the schema yields Λ, the document
types, with placeholders, that any completion's output could have; the
synthesizer prunes a sketch when the observed output matches none of them.
The size half of the abstraction needs no evaluation: deduction folds each
example's input size through the spine's stage kinds (`sizes.reachable`).

Stage ids count outward from the leaf (leaf = 0), and stage j contributes
its type successors.

Evaluation is a left fold from the leaf outward: Λ starts from one interned
root tuple per collection, and each stage takes one successor step.
`AbsEvalContext` holds the schema and one example's output type, interns
types and tuples of types, and computes each (operator, parent tuple, stage)
step once, so Λ of a spine costs one table lookup per stage and memo entries
share their objects. A type is interned by one exact structural key, which
reads attribute order and placeholder labels, because the successors of a
type depend on both; `AugmentedType.__eq__` ignores them. The synthesizer
refines a spine by prepending a stage at the leaf, so `ops[:-1]` of a
depth-d+1 spine is a depth-d spine, and breadth-first search has taken every
step but the last already.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import (
    ANY,
    AugmentedType,
    Placeholder,
    from_doc_type,
    to_doc_type,
    type_intersect,
    type_replace_path,
    type_subtract,
    type_union,
)
from .errors import MalformedQueryError, UnknownCollectionError
from .types import ArrayT, DocT, NUM

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


def array_paths(t: AugmentedType, prefix=()):
    """Named paths to array-typed attributes, never crossing an array."""
    out = []
    for key, value in t.entries:
        if isinstance(key, Placeholder):
            continue
        path = prefix + (key,)
        if isinstance(value, ArrayT):
            out.append(path)
        elif isinstance(value, AugmentedType):
            out.extend(array_paths(value, path))
    return out


def _key_subsets(names, max_keys):
    """Non-empty subsets of at most max_keys names, smaller first, stable order."""
    from itertools import combinations

    for size in range(1, min(max_keys, len(names)) + 1):
        yield from combinations(names, size)


def _successors(tag, t: AugmentedType, j: int, out_aug: AugmentedType, schema, max_group_keys):
    if tag == "match":
        return [t]
    if tag == "project":
        t_k = from_doc_type(to_doc_type(t))
        return [type_union(type_subtract(t, t_k), type_intersect(t_k, out_aug))]
    if tag == "add_fields":
        return [type_union(t, AugmentedType([(Placeholder("many", 0), ANY)]))]
    if tag == "unwind":
        out = []
        for path in array_paths(t):
            elem = _path_value(t, path).elem
            new = from_doc_type(elem) if isinstance(elem, DocT) else elem
            out.append(type_replace_path(t, path, new))
        return out
    if tag == "lookup":
        return [
            type_union(t, AugmentedType([(Placeholder("one", j), foreign)]))
            for foreign in schema.values()
        ]
    # group
    t_kd = to_doc_type(t)
    names = [n for n, _ in t_kd.fields]
    out = []
    for subset in _key_subsets(names, max_group_keys):
        key_doc = from_doc_type(DocT((n, t_kd.attrs[n]) for n in subset))
        base = AugmentedType([("_id", key_doc)])
        out.append(type_union(base, AugmentedType([(Placeholder("many", j), NUM)])))
        out.append(base)
    return out


def _path_value(t: AugmentedType, path):
    cur = t
    for seg in path:
        cur = cur.get(seg)
    return cur


def _exact_key(t) -> tuple:
    """A key equal for two types exactly when they agree in attribute order,
    placeholder kinds and labels, and `DocT` field order, at every depth.

    The key is one flat tuple of tokens: a tuple per nested document raised
    the tracemalloc peak of the reddit_posts search from 7.4 to 9.1 MB.
    Each document token is followed by its entry count, so a token sequence
    parses back one way.
    """
    out = []

    def walk(v):
        if isinstance(v, AugmentedType):
            out.extend(("aug", len(v.entries)))
            for k, x in v.entries:
                out.append(k)
                walk(x)
        elif isinstance(v, DocT):
            out.extend(("doc", len(v.fields)))
            for n, x in v.fields:
                out.append(n)
                walk(x)
        elif isinstance(v, ArrayT):
            out.append("arr")
            walk(v.elem)
        else:
            out.append(v)

    walk(t)
    return tuple(out)


class AbsEvalContext:
    """The schema, one example's output type and the group-key bound, plus
    the interned abstract steps over them and deduction's type verdicts on
    that output."""

    def __init__(self, schema: dict, out_type: DocT, max_group_keys: int = 2):
        self.schema = schema  # collection -> ArrayT of its document type
        self.out_type = out_type
        self.out_aug = from_doc_type(out_type)
        self.max_group_keys = max_group_keys
        self.typed = {}      # document type -> whether out_type matches it
        self._types = {}     # exact key of a type -> the one type with that key
        self._tuples = {}    # ids of interned types -> the one tuple of them
        self._steps = {}     # (tag, id(parent types), stage) -> the types after it
        # Types and type tuples are interned, and the intern tables keep them
        # alive as long as the context, so an id names one of them.
        self._roots = {      # collection -> the types of Λ for the bare spine
            name: self._intern_tuple((self._intern(from_doc_type(coll_type.elem)),))
            for name, coll_type in schema.items()
        }

    def types(self, collection: str, ops: tuple) -> tuple:
        """The document types of Λ for the spine `ops` over `collection`."""
        types = self._roots[collection]
        for j, tag in enumerate(ops, start=1):
            types = self._step(types, tag, j)
        return types

    def _step(self, parent: tuple, tag: str, j: int) -> tuple:
        if not parent:
            return ()
        key = (tag, id(parent), j)
        types = self._steps.get(key)
        if types is None:
            nxt = {}
            for t in parent:
                for s in _successors(tag, t, j, self.out_aug, self.schema, self.max_group_keys):
                    nxt.setdefault(self._intern(s), None)
            types = self._steps[key] = self._intern_tuple(tuple(nxt))
        return types

    def _intern_tuple(self, types: tuple) -> tuple:
        return self._tuples.setdefault(tuple(map(id, types)), types)

    def _intern(self, t: AugmentedType) -> AugmentedType:
        return self._types.setdefault(_exact_key(t), t)


def abs_eval(ctx: AbsEvalContext, sk: Sketch) -> tuple:
    """Λ: the document types any completion of sk can produce, as interned by ctx."""
    if sk.collection not in ctx.schema:
        raise UnknownCollectionError(f"unknown collection {sk.collection!r}")
    return ctx.types(sk.collection, sk.ops)
