"""Size formulas over stage-size variables l_0 .. l_n and the one fold that decides them.

The paper's formula is a chain: `l_0 = c` grounds the input size, and stage
j relates l_j to l_{j-1} by an atom of its operator kind. Here stage j's
relation is its operator kind itself, read through one table of per-kind
size images, the sizes that one stage of that kind can produce from n
documents under the interpreter and the candidate generators:

  project, add_fields, lookup   n -> n
  match                         n -> 0..n
  unwind                        n -> 0..∞
  group                         0 -> 0; 1 -> nothing; n >= 2 -> 1..n-1

`reachable` folds a size through these images. Deduction folds each
example's input size through a whole spine, and completion folds each
partial program's concrete size through the stages still to be chosen, so
spines and prefixes obey the same rule and no answer depends on which one
checks first.

Two images depart from the paper's atoms, because the atoms do not hold
for the interpreter. `$unwind` drops a document whose array is empty or
absent as well as multiplying the others, so Unwind is unconstrained, not
`l_j >= l_{j-1}`. A Group over an empty example stays empty, so it is not
a strict decrease at 0; from one document it has no candidate, because a
key set must merge something in every example. `SizeFormula.render` still
draws the paper's chain glyphs, with Unwind as `l_j∈ℕ`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MalformedFormulaError

_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
# the paper's chain glyph of each stage kind; None leaves l_j unconstrained
_GLYPH = {
    "project": "=", "add_fields": "=", "lookup": "=",
    "match": "≤", "group": "<", "unwind": None,
}


def _var(i: int) -> str:
    return "l" + str(i).translate(_SUBSCRIPTS)


@dataclass(frozen=True, slots=True)
class SizeFormula:
    """`l_0 = ground`, and l_j is an image of l_{j-1} under a stage of kind ops[j-1]."""

    ground: int
    ops: tuple = ()

    def __post_init__(self):
        g = self.ground
        if not isinstance(g, int) or isinstance(g, bool) or g < 0:
            raise MalformedFormulaError(f"ground value must be a non-negative integer: {g!r}")
        for tag in self.ops:
            if tag not in _GLYPH:
                raise MalformedFormulaError(f"unknown stage kind {tag!r}")

    def render(self) -> str:
        atoms = [f"{_var(0)}={self.ground}"]
        for j, tag in enumerate(self.ops, start=1):
            glyph = _GLYPH[tag]
            atoms.append(f"{_var(j)}∈ℕ" if glyph is None else f"{_var(j)}{glyph}{_var(j - 1)}")
        return " ∧ ".join(atoms)


def reachable(n: int, tags, m: int) -> bool:
    """Whether n documents can become m through stages of kinds `tags`, innermost first.

    One [lo, hi] fold whose images are exact unions of the per-size images
    in the table above.
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
