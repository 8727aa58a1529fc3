"""Size formulas over stage-size variables l_0 .. l_n and their solver.

A formula is a chain: `l_0 = c` grounds the input size, and the j-th
relation op ties l_j to its immediate predecessor (`l_j = l_{j-1}`,
`l_j <= l_{j-1}`, `l_j >= l_{j-1}`, `l_j < l_{j-1}`). All variables range
over the non-negative integers. `SizeFormula(c, ops)` holds exactly that
shape, so no other shape can be built, and forward interval propagation is
a complete decision procedure for it.
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
