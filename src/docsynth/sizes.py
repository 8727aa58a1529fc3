"""Size formulas over stage-size variables l_0 .. l_n and their solver.

A formula is a conjunction of one grounding atom `l_0 = c` plus relational
atoms tying each later variable to its immediate predecessor (`l_j = l_i`,
`l_j <= l_i`, `l_j >= l_i`, `l_j < l_i` with j = i + 1). All variables range
over the non-negative integers.

The chain shape (at most one relational atom per variable, each pointing one
step back) is what makes forward interval propagation a complete decision
procedure here, so it is enforced at construction time.
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


@dataclass(frozen=True)
class Ground:
    var: int
    value: int

    def __post_init__(self):
        if self.var != 0:
            raise MalformedFormulaError("grounding atom must bind l0")
        if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 0:
            raise MalformedFormulaError(f"ground value must be a non-negative integer: {self.value!r}")

    def render(self) -> str:
        return f"{_var(self.var)}={self.value}"


@dataclass(frozen=True)
class Rel:
    op: str
    left: int
    right: int

    def __post_init__(self):
        if self.op not in REL_OPS:
            raise MalformedFormulaError(f"unknown relation {self.op!r}")
        if self.left != self.right + 1:
            raise MalformedFormulaError(
                f"relational atom must tie l{self.left} to its predecessor, got l{self.right}"
            )

    def render(self) -> str:
        return f"{_var(self.left)}{_OP_GLYPH[self.op]}{_var(self.right)}"


class SizeFormula:
    """Immutable conjunction of atoms with a contiguous variable range."""

    __slots__ = ("atoms", "_n")

    def __init__(self, atoms):
        atoms = tuple(atoms)
        grounds = [a for a in atoms if isinstance(a, Ground)]
        rels = [a for a in atoms if isinstance(a, Rel)]
        if len(grounds) != 1 or len(grounds) + len(rels) != len(atoms):
            raise MalformedFormulaError("formula needs exactly one grounding atom plus relational atoms")
        seen_left = set()
        for r in rels:
            if r.left in seen_left:
                raise MalformedFormulaError(f"variable l{r.left} is constrained twice")
            seen_left.add(r.left)
        n = max([0] + [r.left for r in rels])
        covered = {0} | {v for r in rels for v in (r.left, r.right)}
        if covered != set(range(n + 1)):
            raise MalformedFormulaError("variable indices must form a contiguous range")
        self.atoms = atoms
        self._n = n

    @property
    def max_label(self) -> int:
        return self._n

    def extended(self, atom) -> "SizeFormula":
        return SizeFormula(self.atoms + (atom,))

    def render(self) -> str:
        ordered = sorted(self.atoms, key=lambda a: 0 if isinstance(a, Ground) else a.left)
        return " ∧ ".join(a.render() for a in ordered)

    def __repr__(self):
        return f"SizeFormula({self.render()})"

    def __eq__(self, other):
        return isinstance(other, SizeFormula) and set(self.atoms) == set(other.atoms)

    def __hash__(self):
        return hash(frozenset(self.atoms))


def is_sat(f: SizeFormula, probe=None) -> bool:
    """Whether `f` has a non-negative integer model; `probe` pins l_n to that value.

    Forward [lo, hi] propagation along the chain, exact for this formula
    class: every relational atom maps the predecessor's interval through a
    monotone image ('=' copies, '<=' drops the lower bound, '>=' drops the
    upper bound, '<' shifts the upper bound down one and dies when the
    predecessor is pinned at zero).
    """
    n = f.max_label
    lo = [0] * (n + 1)
    hi = [math.inf] * (n + 1)
    rel_for = {}
    for a in f.atoms:
        if isinstance(a, Ground):
            lo[0] = max(lo[0], a.value)
            hi[0] = min(hi[0], a.value)
        else:
            rel_for[a.left] = a
    for j in range(1, n + 1):
        a = rel_for.get(j)
        if a is None:
            continue
        plo, phi = lo[j - 1], hi[j - 1]
        if plo > phi:
            return False
        if a.op == "=":
            lo[j], hi[j] = max(lo[j], plo), min(hi[j], phi)
        elif a.op == "<=":
            hi[j] = min(hi[j], phi)
        elif a.op == ">=":
            lo[j] = max(lo[j], plo)
        else:  # strict decrease needs a predecessor of at least 1
            if phi < 1:
                return False
            hi[j] = min(hi[j], phi - 1)
    if probe is not None:
        lo[n] = max(lo[n], probe)
        hi[n] = min(hi[n], probe)
    return lo[n] <= hi[n]
