"""Concrete text syntax for queries.

Rendering follows the algebraic operator notation, e.g.

    Project(Match(Unwind(posts, replies), replies.depth > 0), [title])

The parser accepts exactly what the renderer produces, plus the unicode
comparison/connective spellings. Path segments must be identifier-shaped
([A-Za-z_][A-Za-z0-9_]*) in text form; data attribute names outside that set
are representable in the AST and JSON encodings but not in this syntax.
Nor are NaN and the infinities, which the constant grammar cannot spell: a
number literal that overflows a float, or that has more digits than Python
converts to an int, is a ParseError.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from . import lang
from .lang import (
    AddFields,
    And,
    Arith,
    CollectionRef,
    Cmp,
    Count,
    Exists,
    FALSE,
    FalsePred,
    FnCall,
    Group,
    Lookup,
    Match,
    Not,
    Or,
    PathExpr,
    Project,
    SizeEq,
    TRUE,
    TruePred,
    Unwind,
)
from .values import Datetime, ObjectId, kind_of

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_path(path) -> str:
    for seg in path:
        if not _IDENT.match(seg):
            raise ParseError(f"path segment {seg!r} is not representable in text syntax")
    return ".".join(path)


def render_const(v) -> str:
    k = kind_of(v)
    if k == "null":
        return "null"
    if k == "bool":
        return "true" if v else "false"
    if k == "num":
        if isinstance(v, float) and not math.isfinite(v):
            raise ParseError(f"constant {v!r} is not representable in text syntax")
        return repr(v)
    if k == "str":
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if k in ("datetime", "objectid"):
        return f"{type(v).__name__}({render_const(v.value)})"
    raise ParseError(f"constant of kind {k} is not representable")


def render_pred(p) -> str:
    if isinstance(p, TruePred):
        return "true"
    if isinstance(p, FalsePred):
        return "false"
    if isinstance(p, Cmp):
        return f"{render_path(p.path)} {p.op} {render_const(p.value)}"
    if isinstance(p, SizeEq):
        return f"SizeEq({render_path(p.path)}, {p.size})"
    if isinstance(p, Exists):
        return f"Exists({render_path(p.path)})"
    if isinstance(p, And):
        return f"({render_pred(p.left)} && {render_pred(p.right)})"
    if isinstance(p, Or):
        return f"({render_pred(p.left)} || {render_pred(p.right)})"
    if isinstance(p, Not):
        return f"!({render_pred(p.pred)})"
    raise ParseError(f"not a predicate: {p!r}")


def render_expr(e) -> str:
    if isinstance(e, PathExpr):
        return render_path(e.path)
    if isinstance(e, Arith):
        return f"{render_path(e.left)} {e.op} {render_path(e.right)}"
    if isinstance(e, FnCall):
        return f"{e.fn}({render_path(e.path)})"
    raise ParseError(f"not an expression: {e!r}")


def render_agg(a) -> str:
    if isinstance(a, Count):
        return "Count()"
    return f"{type(a).__name__}({render_path(a.path)})"


def render_query(q) -> str:
    if isinstance(q, CollectionRef):
        return q.name
    if isinstance(q, Project):
        paths = ", ".join(render_path(p) for p in q.paths)
        return f"Project({render_query(q.source)}, [{paths}])"
    if isinstance(q, Match):
        return f"Match({render_query(q.source)}, {render_pred(q.pred)})"
    if isinstance(q, AddFields):
        paths = ", ".join(render_path(p) for p in q.paths)
        exprs = ", ".join(render_expr(e) for e in q.exprs)
        return f"AddFields({render_query(q.source)}, [{paths}], [{exprs}])"
    if isinstance(q, Unwind):
        return f"Unwind({render_query(q.source)}, {render_path(q.path)})"
    if isinstance(q, Group):
        keys = ", ".join(render_path(k) for k in q.keys)
        names = ", ".join(q.names)
        aggs = ", ".join(render_agg(a) for a in q.aggs)
        return f"Group({render_query(q.source)}, [{keys}], [{names}], [{aggs}])"
    if isinstance(q, Lookup):
        return (
            f"Lookup({render_query(q.source)}, {render_path(q.local_path)}, "
            f"{render_path(q.foreign_path)}, {q.foreign_coll}, {q.as_attr})"
        )
    raise ParseError(f"not a query: {q!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?:
        (?P<num>-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>"(?:[^"\\]|\\.)*")
      | (?P<op><=|>=|!=|&&|\|\||≤|≥|≠|∧|∨|[()\[\],.<>=!¬+\-*/%])
    )""",
    re.VERBOSE,
)

_OP_CANON = {"≤": "<=", "≥": ">=", "≠": "!=", "∧": "&&", "∨": "||", "¬": "!"}

# Each operator, `(`, `!`, `&&` and `||` nests the rest of its group a level
# deeper; past _MAX_DEPTH levels the parser raises ParseError, not RecursionError.
_MAX_DEPTH = 100
_QUERY_OPS = {"Project", "Match", "AddFields", "Unwind", "Group", "Lookup"}
_AGGREGATORS = {agg.__name__: agg for agg in lang.AGGREGATORS}


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            pos = m.end()
            for kind in ("num", "ident", "str", "op"):
                val = m.group(kind)
                if val is not None:
                    self.toks.append((kind, _OP_CANON.get(val, val), m.start()))
                    break
        self.i = 0
        self.depth = 0

    def peek(self, offset=0):
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def nest(self, pos):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"query nests deeper than {_MAX_DEPTH} levels", pos)

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, got {val!r}", pos)

    def ident(self, what="identifier"):
        kind, val, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected {what}, got {val!r}", pos)
        return val

    # -- shared pieces ------------------------------------------------------

    def path(self):
        segs = [self.ident("path segment")]
        while self.peek()[1] == ".":
            self.next()
            segs.append(self.ident("path segment"))
        return tuple(segs)

    def bracketed(self, item, allow_empty=False):
        """`[item, ...]` as a tuple; `[]` only when `allow_empty`."""
        self.expect("[")
        items = []
        if not (allow_empty and self.peek()[1] == "]"):
            items.append(item())
            while self.peek()[1] == ",":
                self.next()
                items.append(item())
        self.expect("]")
        return tuple(items)

    def number(self, val: str, pos: int):
        """The number the `num` token `val` spells. One that overflows a
        float, or has more digits than Python converts to an int, is an error."""
        try:
            v = float(val) if ("." in val or "e" in val or "E" in val) else int(val)
        except ValueError:
            raise ParseError("number literal has too many digits", pos) from None
        if isinstance(v, float) and math.isinf(v):
            raise ParseError(f"number literal {val} overflows", pos)
        return v

    def const(self):
        kind, val, pos = self.next()
        if kind == "num":
            return self.number(val, pos)
        if kind == "str":
            return self._unquote(val)
        if kind == "ident":
            if val == "null":
                return None
            if val == "true":
                return True
            if val == "false":
                return False
            if val in ("Datetime", "ObjectId"):
                self.expect("(")
                k2, v2, p2 = self.next()
                if k2 != "str":
                    raise ParseError(f"{val} expects a string literal", p2)
                self.expect(")")
                return Datetime(self._unquote(v2)) if val == "Datetime" else ObjectId(self._unquote(v2))
        raise ParseError(f"expected a constant, got {val!r}", pos)

    @staticmethod
    def _unquote(tok):
        body = tok[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")

    # -- predicates ---------------------------------------------------------

    def pred(self):
        left = self.pred_and()
        while self.peek()[1] == "||":
            self.nest(self.next()[2])
            left = Or(left, self.pred_and())
        return left

    def pred_and(self):
        left = self.pred_unary()
        while self.peek()[1] == "&&":
            self.nest(self.next()[2])
            left = And(left, self.pred_unary())
        return left

    def pred_unary(self):
        depth = self.depth
        while self.peek()[1] == "!":
            self.nest(self.next()[2])
        negations = self.depth - depth
        p = self.pred_atom()
        self.depth = depth
        for _ in range(negations):
            p = Not(p)
        return p

    def pred_atom(self):
        kind, val, pos = self.peek()
        if val == "(":
            self.nest(self.next()[2])
            inner = self.pred()
            self.expect(")")
            return inner
        if kind == "ident":
            if val == "true":
                self.next()
                return TRUE
            if val == "false":
                self.next()
                return FALSE
            if val == "SizeEq":
                self.next()
                self.expect("(")
                path = self.path()
                self.expect(",")
                k2, v2, p2 = self.next()
                if k2 != "num" or not v2.isdigit():
                    raise ParseError("SizeEq expects a nonnegative integer", p2)
                self.expect(")")
                return SizeEq(path, self.number(v2, p2))
            if val == "Exists":
                self.next()
                self.expect("(")
                path = self.path()
                self.expect(")")
                return Exists(path)
            path = self.path()
            kind2, op, pos2 = self.next()
            if op not in lang.CMP_OPS:
                raise ParseError(f"expected a comparison operator, got {op!r}", pos2)
            return Cmp(path, op, self.const())
        raise ParseError(f"expected a predicate, got {val!r}", pos)

    # -- expressions --------------------------------------------------------

    def expr(self):
        kind, val, pos = self.peek()
        if kind == "ident" and val in lang.MATH_FNS and self.peek(1)[1] == "(":
            self.next()
            self.expect("(")
            path = self.path()
            self.expect(")")
            return FnCall(val, path)
        left = self.path()
        if self.peek()[1] in lang.ARITH_OPS:
            op = self.next()[1]
            return Arith(left, op, self.path())
        return PathExpr(left)

    # -- aggregators --------------------------------------------------------

    def agg(self):
        name = self.ident("aggregator")
        self.expect("(")
        agg = _AGGREGATORS.get(name)
        if agg is None:
            raise ParseError(f"unknown aggregator {name!r}")
        if agg is Count:
            self.expect(")")
            return Count()
        path = self.path()
        self.expect(")")
        return agg(path)

    # -- queries ------------------------------------------------------------

    def query(self):
        kind, val, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected a query, got {val!r}", pos)
        if val not in _QUERY_OPS:
            return CollectionRef(val)
        depth = self.depth
        self.nest(pos)
        self.expect("(")
        source = self.query()
        self.expect(",")
        if val == "Project":
            q = Project(source, self.bracketed(self.path))
        elif val == "Match":
            q = Match(source, self.pred())
        elif val == "AddFields":
            paths = self.bracketed(self.path)
            self.expect(",")
            q = AddFields(source, paths, self.bracketed(self.expr))
        elif val == "Unwind":
            q = Unwind(source, self.path())
        elif val == "Group":
            keys = self.bracketed(self.path)
            self.expect(",")
            names = self.bracketed(lambda: self.ident("attribute name"), allow_empty=True)
            self.expect(",")
            q = Group(source, keys, names, self.bracketed(self.agg, allow_empty=True))
        else:
            local = self.path()
            self.expect(",")
            foreign = self.path()
            self.expect(",")
            coll = self.ident("collection name")
            self.expect(",")
            attr = self.ident("attribute name")
            q = Lookup(source, local, foreign, coll, attr)
        self.expect(")")
        self.depth = depth
        return q


def parse_query(text: str):
    p = _Parser(text)
    q = p.query()
    if p.peek()[0] is not None:
        raise ParseError(f"trailing input after query: {p.peek()[1]!r}", p.peek()[2])
    return q
