"""Query language AST.

A query is a linear pipeline: every operator wraps exactly one inner query
and the innermost node is a collection reference. Access paths are tuples of
attribute names.

AST size convention (used for reporting): every operator, predicate,
expression and aggregator node counts 1, every access path counts 1, every
constant counts 1, and Group/Lookup attribute-name arguments count 1 each.
Bare-path expressions count just the path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedQueryError
from .types import TYPE_OF_KIND
from .values import is_valid_attr, kind_of

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*", "/", "%")
MATH_FNS = ("abs", "floor", "ceil")


def _check_path(path, what="path"):
    if not isinstance(path, tuple) or not path or not all(map(is_valid_attr, path)):
        raise MalformedQueryError(f"invalid {what}: {path!r}")


def _const_ok(v):
    return kind_of(v) in ("null", *TYPE_OF_KIND)


@dataclass(frozen=True, slots=True)
class _OnePath:
    """A node whose one argument is an access path."""

    path: tuple

    def __post_init__(self):
        _check_path(self.path)


@dataclass(frozen=True, slots=True)
class _Connective:
    left: object
    right: object


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TruePred:
    pass


@dataclass(frozen=True, slots=True)
class FalsePred:
    pass


@dataclass(frozen=True, slots=True)
class Cmp:
    path: tuple
    op: str
    value: object

    def __post_init__(self):
        _check_path(self.path)
        if self.op not in CMP_OPS:
            raise MalformedQueryError(f"unknown comparison operator: {self.op!r}")
        if not _const_ok(self.value):
            raise MalformedQueryError(f"comparison constant must be primitive or null: {self.value!r}")


@dataclass(frozen=True, slots=True)
class SizeEq:
    path: tuple
    size: int

    def __post_init__(self):
        _check_path(self.path)
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 0:
            raise MalformedQueryError(f"SizeEq needs a nonnegative integer, got {self.size!r}")


class Exists(_OnePath):
    __slots__ = ()


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Not:
    pred: object


TRUE = TruePred()
FALSE = FalsePred()


# ---------------------------------------------------------------------------
# Expressions (flat by design: operands are paths, not sub-expressions)
# ---------------------------------------------------------------------------

class PathExpr(_OnePath):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Arith:
    left: tuple
    op: str
    right: tuple

    def __post_init__(self):
        _check_path(self.left)
        _check_path(self.right)
        if self.op not in ARITH_OPS:
            raise MalformedQueryError(f"unknown arithmetic operator: {self.op!r}")


@dataclass(frozen=True, slots=True)
class FnCall:
    fn: str
    path: tuple

    def __post_init__(self):
        if self.fn not in MATH_FNS:
            raise MalformedQueryError(f"unknown math function: {self.fn!r}")
        _check_path(self.path)


# ---------------------------------------------------------------------------
# Aggregators
# ---------------------------------------------------------------------------

class Sum(_OnePath):
    __slots__ = ()


class Avg(_OnePath):
    __slots__ = ()


class Min(_OnePath):
    __slots__ = ()


class Max(_OnePath):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Count:
    pass


AGGREGATORS = (Count, Sum, Avg, Min, Max)  # in the synthesizer's enumeration order


# ---------------------------------------------------------------------------
# Query operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CollectionRef:
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise MalformedQueryError(f"invalid collection name: {self.name!r}")


@dataclass(frozen=True, slots=True)
class Project:
    source: object
    paths: tuple

    def __post_init__(self):
        if not self.paths:
            raise MalformedQueryError("Project needs at least one path")
        for p in self.paths:
            _check_path(p)


@dataclass(frozen=True, slots=True)
class Match:
    source: object
    pred: object


@dataclass(frozen=True, slots=True)
class AddFields:
    source: object
    paths: tuple
    exprs: tuple

    def __post_init__(self):
        if not self.paths or len(self.paths) != len(self.exprs):
            raise MalformedQueryError("AddFields needs matching, nonempty paths and exprs")
        for p in self.paths:
            _check_path(p)


@dataclass(frozen=True, slots=True)
class Unwind:
    source: object
    path: tuple

    def __post_init__(self):
        _check_path(self.path)


@dataclass(frozen=True, slots=True)
class Group:
    source: object
    keys: tuple
    names: tuple
    aggs: tuple

    def __post_init__(self):
        if not self.keys:
            raise MalformedQueryError("Group needs at least one key")
        for k in self.keys:
            _check_path(k)
        if len(self.names) != len(self.aggs):
            raise MalformedQueryError("Group needs matching names and aggregators")
        for n in self.names:
            if not is_valid_attr(n):
                raise MalformedQueryError(f"invalid aggregate name: {n!r}")
        if len(set(self.names)) != len(self.names):
            raise MalformedQueryError("duplicate aggregate names")
        if keys_share_a_name(self.keys):
            raise MalformedQueryError("group keys share a last segment")
        if "_id" in self.names:
            raise MalformedQueryError("an aggregate cannot be named _id")


def keys_share_a_name(keys) -> bool:
    """Whether two Group keys share a last segment, the name each shows
    under in the output `_id` document."""
    return len({k[-1] for k in keys}) != len(keys)


@dataclass(frozen=True, slots=True)
class Lookup:
    source: object
    local_path: tuple
    foreign_path: tuple
    foreign_coll: str
    as_attr: str

    def __post_init__(self):
        _check_path(self.local_path, "local path")
        _check_path(self.foreign_path, "foreign path")
        if not isinstance(self.foreign_coll, str) or not self.foreign_coll:
            raise MalformedQueryError("invalid foreign collection name")
        if not is_valid_attr(self.as_attr):
            raise MalformedQueryError(f"invalid lookup attribute: {self.as_attr!r}")


# ---------------------------------------------------------------------------
# Structure helpers and metrics
# ---------------------------------------------------------------------------

def source_collection(q) -> str:
    while not isinstance(q, CollectionRef):
        q = q.source
    return q.name


def stages(q):
    """Operators from innermost to outermost (collection ref excluded)."""
    out = []
    while not isinstance(q, CollectionRef):
        out.append(q)
        q = q.source
    out.reverse()
    return out


def pred_size(p) -> int:
    if isinstance(p, (TruePred, FalsePred)):
        return 1
    if isinstance(p, (Cmp, SizeEq)):
        return 3
    if isinstance(p, Exists):
        return 2
    if isinstance(p, (And, Or)):
        return 1 + pred_size(p.left) + pred_size(p.right)
    if isinstance(p, Not):
        return 1 + pred_size(p.pred)
    raise MalformedQueryError(f"not a predicate: {p!r}")


def expr_size(e) -> int:
    if isinstance(e, PathExpr):
        return 1
    if isinstance(e, Arith):
        return 3
    if isinstance(e, FnCall):
        return 2
    raise MalformedQueryError(f"not an expression: {e!r}")


def agg_size(a) -> int:
    return 1 if isinstance(a, Count) else 2


def ast_size(q) -> int:
    if isinstance(q, CollectionRef):
        return 1
    if isinstance(q, Project):
        return 1 + ast_size(q.source) + len(q.paths)
    if isinstance(q, Match):
        return 1 + ast_size(q.source) + pred_size(q.pred)
    if isinstance(q, AddFields):
        return 1 + ast_size(q.source) + len(q.paths) + sum(expr_size(e) for e in q.exprs)
    if isinstance(q, Unwind):
        return 1 + ast_size(q.source) + 1
    if isinstance(q, Group):
        return 1 + ast_size(q.source) + len(q.keys) + len(q.names) + sum(agg_size(a) for a in q.aggs)
    if isinstance(q, Lookup):
        return 1 + ast_size(q.source) + 4
    raise MalformedQueryError(f"not a query: {q!r}")

