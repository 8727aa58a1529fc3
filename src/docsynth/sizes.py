"""Size formulas over stage-size variables l_0 .. l_n and their solver.

A formula is a chain: `l_0 = c` grounds the input size, and the j-th
relation op ties l_j to its immediate predecessor (`l_j = l_{j-1}`,
`l_j <= l_{j-1}`, `l_j >= l_{j-1}`, `l_j < l_{j-1}`). All variables range
over the non-negative integers. `SizeFormula(c, ops)` holds exactly that
shape, so no other shape can be built, and forward interval propagation is
a complete decision procedure for it.

`reachable` is the same fold from a concrete size, used inside completion
to prune a partial program once its inner stages are chosen. Its images are
per operator kind and sound for the interpreter and the candidate
generators, not for the chain atoms, so two are wider than their atoms:
Unwind can drop documents (an empty or absent array) as well as multiply
them, so it maps any size to 0..∞ rather than `>=`; Group maps 0 to 0 and
n >= 2 to 1..n-1, and has no candidate at all at n = 1, because a key set
must merge something in every example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MalformedFormulaError

REL_OPS = ("=", "<=", ">=", "<")

_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_OP_GLYPH = {"=": "=", "<=": "≤", ">=": "≥", "<": "<"}


def _var(i: int) -> str:
    return "l" + str(i).translate(_SUBSCRIPTS)


@dataclass(frozen=True, slots=True)
class SizeFormula:
    """`l_0 = ground` and, for each j, `l_j ops[j-1] l_{j-1}`."""

    ground: int
    ops: tuple = ()

    def __post_init__(self):
        g = self.ground
        if not isinstance(g, int) or isinstance(g, bool) or g < 0:
            raise MalformedFormulaError(f"ground value must be a non-negative integer: {g!r}")
        for op in self.ops:
            if op not in REL_OPS:
                raise MalformedFormulaError(f"unknown relation {op!r}")

    def render(self) -> str:
        return " ∧ ".join([f"{_var(0)}={self.ground}"] + [
            f"{_var(j)}{_OP_GLYPH[op]}{_var(j - 1)}" for j, op in enumerate(self.ops, start=1)
        ])


def is_sat(f: SizeFormula, probe=None) -> bool:
    """Whether `f` has a non-negative integer model; `probe` pins l_n to that value.

    One [lo, hi] fold along the chain, exact for this formula class: each
    relation maps the predecessor's interval through a monotone image ('='
    copies, '<=' drops the lower bound, '>=' drops the upper bound, '<'
    drops the lower bound, shifts the upper bound down one and dies when
    the predecessor is pinned at zero).
    """
    lo = hi = f.ground
    for op in f.ops:
        if op == "<":  # strict decrease needs a predecessor of at least 1
            if hi < 1:
                return False
            lo, hi = 0, hi - 1
        elif op == "<=":
            lo = 0
        elif op == ">=":
            hi = math.inf
    return probe is None or lo <= probe <= hi


def reachable(n: int, tags, m: int) -> bool:
    """Whether n documents can become m through stages of kinds `tags`, innermost first.

    One [lo, hi] fold whose images are exact unions of the per-size images:
    Match maps n to 0..n, Unwind to 0..∞, Group 0 to 0 and n >= 2 to
    1..n-1 (n = 1 to nothing); Project, AddFields and Lookup keep n.
    """
    lo = hi = n
    for tag in tags:
        if tag == "match":
            lo = 0
        elif tag == "unwind":
            lo, hi = 0, math.inf
        elif tag == "group":
            if lo == hi == 1:
                return False
            lo, hi = min(lo, 1), max(hi - 1, 0)
    return lo <= m <= hi
