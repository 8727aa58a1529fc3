"""Size formula construction, rendering, and solver tests against a brute-force oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st

from docsynth.errors import MalformedFormulaError
from docsynth.sizes import Ground, Rel, SizeFormula, is_sat
from .oracles import sat_by_enumeration


def chain(c, ops):
    atoms = [Ground(0, c)]
    for j, op in enumerate(ops, start=1):
        atoms.append(Rel(op, j, j - 1))
    return SizeFormula(atoms)


PHI_MATCH = chain(3, [">=", "<=", "="])
PHI_GROUP = chain(3, [">=", "<=", "<", "=", "<=", "="])


class TestRender:
    def test_unicode_rendering(self):
        assert PHI_MATCH.render() == "l₀=3 ∧ l₁≥l₀ ∧ l₂≤l₁ ∧ l₃=l₂"
        assert PHI_GROUP.render() == (
            "l₀=3 ∧ l₁≥l₀ ∧ l₂≤l₁ ∧ l₃<l₂ ∧ l₄=l₃ ∧ l₅≤l₄ ∧ l₆=l₅"
        )
        assert chain(0, []).render() == "l₀=0"

    def test_max_label(self):
        assert PHI_GROUP.max_label == 6
        assert chain(3, []).max_label == 0

    def test_equality_ignores_atom_order(self):
        a = SizeFormula([Ground(0, 3), Rel("<=", 1, 0)])
        b = SizeFormula([Rel("<=", 1, 0), Ground(0, 3)])
        assert a == b and hash(a) == hash(b)


class TestVerdicts:
    def test_match_chain_probes(self):
        for probe in (2, 9, 0):
            assert is_sat(PHI_MATCH, probe) is True

    def test_group_chain_probes(self):
        for probe in (2, 0, 3):
            assert is_sat(PHI_GROUP, probe) is True

    def test_strict_decrease_from_zero(self):
        assert is_sat(chain(0, ["<"])) is False

    def test_equality_chain_pins_value(self):
        f = chain(3, ["="])
        assert is_sat(f, 5) is False
        assert is_sat(f, 3) is True

    def test_unprobed(self):
        assert is_sat(PHI_GROUP) is True
        assert is_sat(chain(2, ["<", "<", "<"])) is False
        assert is_sat(chain(2, ["<", "<"])) is True

    def test_default_solver_entry_point(self):
        assert is_sat(PHI_MATCH, 2) is True
        assert is_sat(chain(0, ["<"])) is False


class TestValidation:
    def test_ground_not_at_l0(self):
        with pytest.raises(MalformedFormulaError):
            Ground(1, 3)

    def test_ground_value_checked(self):
        with pytest.raises(MalformedFormulaError):
            Ground(0, -1)
        with pytest.raises(MalformedFormulaError):
            Ground(0, True)

    def test_rel_must_point_one_back(self):
        with pytest.raises(MalformedFormulaError):
            Rel("<=", 2, 0)
        with pytest.raises(MalformedFormulaError):
            Rel("~", 1, 0)

    def test_formula_invariants(self):
        with pytest.raises(MalformedFormulaError):
            SizeFormula([Ground(0, 1), Ground(0, 2)])
        with pytest.raises(MalformedFormulaError):
            SizeFormula([Rel("=", 1, 0)])
        with pytest.raises(MalformedFormulaError):
            SizeFormula([Ground(0, 1), Rel("=", 3, 2)])
        with pytest.raises(MalformedFormulaError):
            SizeFormula([Ground(0, 1), Rel("=", 1, 0), Rel("<", 1, 0)])


# ---------------------------------------------------------------------------
# Equivalence with the exhaustive oracle on random chains
# ---------------------------------------------------------------------------

chains = st.tuples(
    st.integers(0, 10),
    st.lists(st.sampled_from(["=", "<=", ">=", "<"]), max_size=7),
    st.one_of(st.none(), st.integers(0, 12)),
)


def to_oracle_atoms(f):
    out = []
    for a in f.atoms:
        if isinstance(a, Ground):
            out.append(("ground", a.value))
        else:
            out.append((a.op, a.left, a.right))
    return out


@given(chains)
@example((1, [">=", ">=", ">=", ">=", "=", "="], 0))
@settings(max_examples=300)
def test_interval_matches_oracle(case):
    c, ops, probe = case
    f = chain(c, ops)
    oracle_probe = None if probe is None else (f.max_label, probe)
    expected = sat_by_enumeration(to_oracle_atoms(f), f.max_label + 1, oracle_probe)
    assert is_sat(f, probe) == expected


@given(chains)
@settings(max_examples=150)
def test_relaxation_is_monotone(case):
    c, ops, probe = case
    f = chain(c, ops)
    if not is_sat(f, probe):
        return
    for k, op in enumerate(ops):
        if op in ("<", "="):
            relaxed = chain(c, ops[:k] + ["<="] + ops[k + 1:])
            assert is_sat(relaxed, probe) is True
