"""The size fold against its oracles: the per-kind image table composed on
explicit size sets, and the image table against pipeline replay."""

from hypothesis import example, given, settings, strategies as st

from docsynth.sizes import reachable
from .oracles import (
    IMAGES, PROBES, agg_count, reachable_by_enumeration, replay, sizes_by_enumeration,
)

PHI_MATCH = ("unwind", "match", "project")
PHI_GROUP = ("unwind", "match", "group", "add_fields", "match", "project")


def image(n, tags):
    """The sizes among PROBES that the fold admits."""
    return {m for m in PROBES if reachable(n, tags, m)}


class TestVerdicts:
    def test_match_chain_probes(self):
        for probe in (2, 9, 0):
            assert reachable(3, PHI_MATCH, probe) is True

    def test_group_chain_probes(self):
        for probe in (2, 0, 3):
            assert reachable(3, PHI_GROUP, probe) is True

    def test_group_keeps_zero_at_zero(self):
        # an empty example stays empty through a Group, and one document
        # has no Group at all
        assert image(0, ("group",)) == {0}
        assert image(1, ("group",)) == set()
        assert image(0, ("group", "group", "group")) == {0}

    def test_equality_chain_pins_value(self):
        ops = ["project"]
        assert reachable(3, ops, 5) is False
        assert reachable(3, ops, 3) is True

    def test_unprobed(self):
        assert image(3, PHI_GROUP)
        assert image(3, ("group", "group", "group")) == set()
        assert image(3, ("group", "group")) == {1}
        assert image(2, ("group", "group")) == set()

    def test_default_solver_entry_point(self):
        # the kinds may come in any iterable, innermost first
        assert reachable(2, iter(PHI_MATCH), 2) is True
        assert reachable(0, ["group"], 0) is True


# ---------------------------------------------------------------------------
# Equivalence with the composed per-kind images on random spines
# ---------------------------------------------------------------------------

KINDS = sorted(IMAGES)

spines = st.tuples(
    st.integers(0, 10),
    st.lists(st.sampled_from(KINDS), max_size=7),
    st.one_of(st.none(), st.integers(0, 12)),
)


@given(spines)
@example((1, ["unwind"] * 4 + ["project"] * 2, 0))
@example((0, ["group"], None))
@example((1, ["group"], None))
@settings(max_examples=300)
def test_interval_matches_oracle(case):
    n, tags, probe = case
    # the cap is exact here: seven Group stages lower it by at most 7, to 33 > max(PROBES)
    expected = sizes_by_enumeration(n, tags)
    if probe is None:
        # every non-empty set of sizes holds one at most max(n, 1), so PROBES decide it
        assert bool(image(n, tags)) == bool(expected)
    else:
        assert reachable(n, tags, probe) == (probe in expected)


# kind -> the kinds whose image holds its image at every size
WIDER = {
    tag: [w for w in KINDS if w != tag and all(IMAGES[tag](n) <= IMAGES[w](n) for n in PROBES)]
    for tag in KINDS
}


@given(spines)
@settings(max_examples=150)
def test_relaxation_is_monotone(case):
    n, tags, probe = case
    probes = PROBES if probe is None else [probe]
    for m in probes:
        if not reachable(n, tags, m):
            continue
        for k, tag in enumerate(tags):
            for wider in WIDER[tag]:
                assert reachable(n, tags[:k] + [wider] + tags[k + 1:], m) is True


def test_relaxations_exist():
    # the property above must bite: Match holds every fixed-size kind and Group
    assert set(WIDER["project"]) == {"add_fields", "lookup", "match", "unwind"}
    assert set(WIDER["group"]) == {"match", "unwind"}
    assert WIDER["unwind"] == []


# ---------------------------------------------------------------------------
# The prefix fold: per-operator size images, as the interpreter runs them
# ---------------------------------------------------------------------------

class TestReachable:
    def test_per_operator_images(self):
        for tag, img in IMAGES.items():
            for n in range(8):
                assert image(n, (tag,)) == img(n), (tag, n)

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


@given(st.integers(0, 6), st.lists(st.sampled_from(KINDS), max_size=6), st.sampled_from(PROBES))
@example(1, ["match", "group"], 0)
@example(2, ["group", "group"], 0)
@example(1, ["group", "unwind"], 0)
@settings(max_examples=400)
def test_fold_matches_composed_images(n, tags, m):
    # the cap is exact here: six Group stages lower it by at most 6, to 34 > max(PROBES)
    assert reachable(n, tags, m) == reachable_by_enumeration(n, tags, m)


# ---------------------------------------------------------------------------
# The image table against pipeline replay: one stage of each kind over small
# collections with empty and absent arrays, nulls and empty collections
# ---------------------------------------------------------------------------

_scalars = st.one_of(st.none(), st.integers(0, 2))
_docs = st.fixed_dictionaries({}, optional={
    "k": _scalars,
    "xs": st.one_of(st.none(), st.lists(_scalars, max_size=2)),
})
_colls = st.lists(_docs, max_size=6)

_PREDICATES = [
    lambda d: True,
    lambda d: False,
    lambda d: d.get("k") is None,
    lambda d: d.get("k") == 1,
    lambda d: "xs" in d,
]


def _stage(kind, pick):
    if kind == "project":
        return ("project", [["k"], ["xs"], ["k", "xs"], ["zz"]][pick % 4])
    if kind == "match":
        return ("match", _PREDICATES[pick % len(_PREDICATES)])
    if kind == "add_fields":
        return ("addfields", [("z", lambda d: 1)])
    if kind == "unwind":
        return ("unwind", "xs")
    if kind == "group":
        return ("group", [["k"], ["xs"], ["k", "xs"]][pick % 3], [("n", agg_count)])
    return ("lookup", "k", "k", "f", "j")


@given(st.sampled_from(KINDS), _colls, _colls, st.integers(0, 11))
@example("unwind", [{"xs": []}, {}, {"xs": None}, {"xs": [1]}], [], 0)
@example("group", [], [], 0)
@example("group", [{"k": 1}, {"k": None}, {}], [], 0)
@settings(max_examples=400)
def test_images_hold_for_replay(kind, coll, foreign, pick):
    n = len(coll)
    got = len(replay({"c": coll, "f": foreign}, "c", [_stage(kind, pick)]))
    if kind == "group" and n and got == n:
        return  # merges nothing: the synthesizer offers no such Group candidate
    assert got in IMAGES[kind](n), (kind, coll, got)
