"""Size formula construction, rendering, and solver tests against a brute-force oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st

from docsynth.errors import MalformedFormulaError
from docsynth.sizes import SizeFormula, is_sat, reachable
from .oracles import sat_by_enumeration


def chain(c, ops):
    return SizeFormula(c, tuple(ops))


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
        assert len(PHI_GROUP.ops) == 6
        assert len(chain(3, []).ops) == 0

    def test_equality_ignores_atom_order(self):
        # a formula is a value: equal parts, however built, give equal formulas
        a = SizeFormula(3, ("<=",))
        b = SizeFormula(3, tuple(["<="]))
        assert a == b and hash(a) == hash(b)
        assert a != SizeFormula(3, (">=",)) and a != SizeFormula(4, ("<=",))


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
    def test_ground_value_checked(self):
        with pytest.raises(MalformedFormulaError):
            SizeFormula(-1)
        with pytest.raises(MalformedFormulaError):
            SizeFormula(True)

    def test_unknown_relation_rejected(self):
        with pytest.raises(MalformedFormulaError):
            SizeFormula(1, ("~",))
        with pytest.raises(MalformedFormulaError):
            SizeFormula(1, ("=", "=="))


# ---------------------------------------------------------------------------
# Equivalence with the exhaustive oracle on random chains
# ---------------------------------------------------------------------------

chains = st.tuples(
    st.integers(0, 10),
    st.lists(st.sampled_from(["=", "<=", ">=", "<"]), max_size=7),
    st.one_of(st.none(), st.integers(0, 12)),
)


def to_oracle_atoms(f):
    return [("ground", f.ground)] + [(op, j, j - 1) for j, op in enumerate(f.ops, start=1)]


@given(chains)
@example((1, [">=", ">=", ">=", ">=", "=", "="], 0))
@settings(max_examples=300)
def test_interval_matches_oracle(case):
    c, ops, probe = case
    f = chain(c, ops)
    oracle_probe = None if probe is None else (len(f.ops), probe)
    expected = sat_by_enumeration(to_oracle_atoms(f), len(f.ops) + 1, oracle_probe)
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


# ---------------------------------------------------------------------------
# The prefix fold: per-operator size images, as the interpreter runs them
# ---------------------------------------------------------------------------

PROBES = range(13)

# one stage of each kind: n -> the sizes it can produce, among PROBES
IMAGES = {
    "project": lambda n: {n},
    "add_fields": lambda n: {n},
    "lookup": lambda n: {n},
    "match": lambda n: set(range(n + 1)),
    "unwind": lambda n: set(PROBES),
    "group": lambda n: {0} if n == 0 else set(range(1, n)),
}


class TestReachable:
    def test_per_operator_images(self):
        for tag, image in IMAGES.items():
            for n in range(8):
                got = {m for m in PROBES if reachable(n, (tag,), m)}
                assert got == image(n), (tag, n)

    def test_group_pins(self):
        assert [m for m in PROBES if reachable(0, ("group",), m)] == [0]
        assert [m for m in PROBES if reachable(1, ("group",), m)] == []
        assert [m for m in PROBES if reachable(5, ("group",), m)] == [1, 2, 3, 4]

    def test_unwind_is_unbounded_both_ways(self):
        # empty or absent arrays drop documents; long ones multiply them
        assert reachable(3, ("unwind",), 0)
        assert reachable(0, ("unwind",), 10**9)
        assert reachable(2, ("unwind", "group", "group"), 10**9)

    def test_no_stages_pins_the_size(self):
        assert reachable(4, (), 4)
        assert not reachable(4, (), 3) and not reachable(4, (), 5)


def reachable_by_enumeration(n, tags, m, cap=40):
    """Compose the per-size images on explicit size sets, Unwind capped at `cap`."""
    sizes = {n}
    for tag in tags:
        if tag == "unwind":
            sizes = set(range(cap + 1)) if sizes else set()
        else:
            sizes = set().union(*(IMAGES[tag](s) for s in sizes))
    return m in sizes


@given(st.integers(0, 6), st.lists(st.sampled_from(sorted(IMAGES)), max_size=6), st.sampled_from(PROBES))
@example(1, ["match", "group"], 0)
@example(2, ["group", "group"], 0)
@example(1, ["group", "unwind"], 0)
@settings(max_examples=400)
def test_fold_matches_composed_images(n, tags, m):
    # the cap is exact here: six Group stages lower it by at most 6, to 34 > max(PROBES)
    assert reachable(n, tags, m) == reachable_by_enumeration(n, tags, m)
