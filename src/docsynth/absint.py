"""Abstract evaluation of sketches.

A sketch fixes the pipeline's operator spine and leaf collection but leaves
every argument open. Evaluating it over an abstract database yields the set
of abstract collections any completion could produce; the synthesizer prunes
a sketch when the observed output concretizes none of them.

Stage ids count outward from the leaf (leaf = 0), and stage j contributes
both its size atom (tying l_j to l_{j-1}) and its type successors.

Evaluation is a left fold from the leaf outward, so the Λ of a spine is one
successor step from the Λ of `ops[:-1]`, the spine without its outermost
stage. `AbsEvalContext` holds one example's abstract database and a memo of
the types of every Λ it has computed, keyed by the ops tuple; a miss
computes the missing prefixes first. The synthesizer refines a spine by
prepending a stage at the leaf, so `ops[:-1]` of a depth-d+1 spine is a
depth-d spine, and breadth-first search has evaluated it already: each spine
costs one step. Types and tuples of types are interned per context, each
(operator, parent tuple, stage) step is computed once, and formulas are
built once per sequence of size atoms, so memo entries share their objects;
`abs_eval` pairs a spine's types with its formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import (
    ANY,
    AbstractCollection,
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
from .sizes import Rel
from .types import ArrayT, DocT, NUM

OPERATOR_TAGS = ("project", "match", "add_fields", "unwind", "group", "lookup")

# size atom contributed by each operator kind
STAGE_ATOM_OP = {
    "project": "=",
    "match": "<=",
    "add_fields": "=",
    "unwind": ">=",
    "group": "<",
    "lookup": "=",
}


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


def sketch_formula(sk: Sketch, base_formula):
    """The size formula the sketch induces, independent of any types."""
    f = base_formula
    for j, tag in enumerate(sk.ops, start=1):
        f = f.extended(Rel(STAGE_ATOM_OP[tag], j, j - 1))
    return f


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


def _successors(tag, t: AugmentedType, j: int, out_aug: AugmentedType, adb, max_group_keys):
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
        out = []
        for name, ac in adb.items():
            foreign = ArrayT(to_doc_type(ac.doc_type))
            out.append(type_union(t, AugmentedType([(Placeholder("one", j), foreign)])))
        return out
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


def _same(a, b) -> bool:
    """`==` that also tells apart attribute order and placeholder labels,
    which the successors of a type depend on."""
    if isinstance(a, AugmentedType):
        return isinstance(b, AugmentedType) and len(a.entries) == len(b.entries) and all(
            ka == kb and _same(va, vb) for (ka, va), (kb, vb) in zip(a.entries, b.entries)
        )
    if isinstance(a, DocT):
        return isinstance(b, DocT) and len(a.fields) == len(b.fields) and all(
            na == nb and _same(va, vb) for (na, va), (nb, vb) in zip(a.fields, b.fields)
        )
    if isinstance(a, ArrayT):
        return isinstance(b, ArrayT) and _same(a.elem, b.elem)
    return a == b


class AbsEvalContext:
    """One example's abstract database, output type and group-key bound, plus
    the memo of every Λ computed from them."""

    def __init__(self, adb: dict, out_type: DocT, max_group_keys: int = 2):
        self.adb = adb
        self.out_aug = from_doc_type(out_type)
        self.max_group_keys = max_group_keys
        self._lams = {}      # collection -> ops tuple -> the types of Λ
        self._types = {}     # t -> the types _same tells apart among those == t
        self._tuples = {}    # ids of interned types -> the one tuple of them
        self._steps = {}     # (tag, id(parent types), stage) -> the types after it
        self._formulas = {}  # (collection, atom ops) -> SizeFormula
        # Types and type tuples are interned, and the intern tables keep them
        # alive as long as the context, so an id names one of them.

    def types(self, collection: str, ops: tuple) -> tuple:
        """The document types of Λ for the spine `ops` over `collection`."""
        memo = self._lams.get(collection)
        if memo is None:
            memo = self._lams[collection] = {}
        types = memo.get(ops)
        if types is None:
            if ops:
                types = self._step(self.types(collection, ops[:-1]), ops[-1], len(ops))
            else:
                types = self._intern_tuple((self._intern(self.adb[collection].doc_type),))
            memo[ops] = types
        return types

    def formula(self, collection: str, atoms: tuple):
        """The size formula of every spine over `collection` with these atom ops."""
        f = self._formulas.get((collection, atoms))
        if f is None:
            if atoms:
                j = len(atoms)
                f = self.formula(collection, atoms[:-1]).extended(Rel(atoms[-1], j, j - 1))
            else:
                f = self.adb[collection].formula
            self._formulas[(collection, atoms)] = f
        return f

    def _step(self, parent: tuple, tag: str, j: int) -> tuple:
        if not parent:
            return ()
        key = (tag, id(parent), j)
        types = self._steps.get(key)
        if types is None:
            nxt = {}
            for t in parent:
                for s in _successors(tag, t, j, self.out_aug, self.adb, self.max_group_keys):
                    nxt.setdefault(self._intern(s), None)
            types = self._steps[key] = self._intern_tuple(tuple(nxt))
        return types

    def _intern_tuple(self, types: tuple) -> tuple:
        return self._tuples.setdefault(tuple(map(id, types)), types)

    def _intern(self, t: AugmentedType) -> AugmentedType:
        variants = self._types.get(t)
        if variants is None:
            self._types[t] = [t]
            return t
        for v in variants:
            if _same(v, t):
                return v
        variants.append(t)
        return t


def abs_eval(ctx: AbsEvalContext, sk: Sketch) -> list:
    """The set Λ of abstract collections reachable by any completion of sk."""
    if sk.collection not in ctx.adb:
        raise UnknownCollectionError(f"unknown collection {sk.collection!r}")
    types = ctx.types(sk.collection, sk.ops)
    if not types:
        return []
    formula = ctx.formula(sk.collection, tuple(STAGE_ATOM_OP[tag] for tag in sk.ops))
    return [AbstractCollection(t, formula) for t in types]
