"""Abstract evaluation of sketches.

A sketch fixes the pipeline's operator spine and leaf collection but leaves
every argument open. Evaluating it over an abstract database yields the set
of abstract collections any completion could produce; the synthesizer prunes
a sketch when the observed output concretizes none of them.

Stage ids count outward from the leaf (leaf = 0), and stage j contributes
both its size atom (tying l_j to l_{j-1}) and its type successors.
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


@dataclass(frozen=True)
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


def abs_eval(adb: dict, out_type: DocT, sk: Sketch, max_group_keys: int = 2):
    """The set Λ of abstract collections reachable by any completion of sk."""
    if sk.collection not in adb:
        raise UnknownCollectionError(f"unknown collection {sk.collection!r}")
    base = adb[sk.collection]
    out_aug = from_doc_type(out_type)
    types = {base.doc_type: None}
    formula = base.formula
    for j, tag in enumerate(sk.ops, start=1):
        formula = formula.extended(Rel(STAGE_ATOM_OP[tag], j, j - 1))
        nxt = {}
        for t in types:
            for s in _successors(tag, t, j, out_aug, adb, max_group_keys):
                nxt.setdefault(s, None)
        types = nxt
        if not types:
            return []
    return [AbstractCollection(t, formula) for t in types]
