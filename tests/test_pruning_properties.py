"""Search-pruning properties checked over randomly generated pairs.

Soundness: deduction never rejects the spine of a query that actually
produced the output. Safety: whenever deduction rejects a spine on an
example, exhaustive completion of that spine finds nothing either.
Bounded completeness: synthesis recovers a query for examples produced
by a known query of small depth. Plus determinism and the guarantee
that disabling pruning never changes the answer, only the work done.
"""

import pytest

from docsynth.absint import OPERATOR_TAGS, Sketch
from docsynth.interp import eval_query
from docsynth.synth import (
    Example, Search, SynthesisConfig, SynthesisTask, complete_sketch, deduce, synthesize,
)
from docsynth.types import compute_schema
from docsynth.values import collection_eq

from .generators import gen_pair
from .oracles import skeleton


def task_of(seed, **kw):
    db, coll, query, output, constants = gen_pair(seed, **kw)
    schema = compute_schema(db)
    task = SynthesisTask(schema, coll, (Example(db, output),), tuple(dict.fromkeys(constants)))
    return task, query, output


class TestPruningSoundness:
    # the spine of a query that produced the output must never be pruned
    def test_thousand_random_pairs(self):
        cfg = SynthesisConfig()
        for seed in range(1000):
            db, coll, query, output, _ = gen_pair(seed)
            sk = skeleton(query)
            task = SynthesisTask(compute_schema(db), coll, (Example(db, output),))
            assert deduce(Search(task, cfg), sk), (
                f"seed {seed}: pruned the true spine {sk.ops} of {query}"
            )

    def test_soundness_survives_each_ablation(self):
        for flags in ({"disable_size_abstraction": True}, {"disable_type_abstraction": True}):
            cfg = SynthesisConfig(**flags)
            for seed in range(200):
                db, coll, query, output, _ = gen_pair(seed)
                sk = skeleton(query)
                task = SynthesisTask(compute_schema(db), coll, (Example(db, output),))
                assert deduce(Search(task, cfg), sk), (
                    f"seed {seed} under {flags}"
                )


def all_sketches(coll, max_depth):
    frontier = [Sketch(coll, ())]
    yield frontier[0]
    for _ in range(max_depth):
        nxt = []
        for sk in frontier:
            for tag in OPERATOR_TAGS:
                child = Sketch(coll, (tag,) + sk.ops)
                nxt.append(child)
                yield child
        frontier = nxt


class TestPruningSafety:
    # deduction false on an example => the spine has no completion on it
    def test_hundred_tiny_pairs_depth_two(self):
        cfg = SynthesisConfig()
        pruned = completed = 0
        for seed in range(100):
            db, coll, query, output, constants = gen_pair(seed, tiny=True, max_depth=2)
            task = SynthesisTask(compute_schema(db), coll, (Example(db, output),), tuple(constants))
            search = Search(task, cfg)
            for sk in all_sketches(coll, 2):
                if deduce(search, sk):
                    continue
                pruned += 1
                got = complete_sketch(search, sk)
                assert got is None, (
                    f"seed {seed}: pruned spine {sk.ops} completes to {got}"
                )
            completed += 1
        assert completed == 100
        assert pruned > 100  # the property must actually bite


class TestBoundedCompleteness:
    def test_synthesis_recovers_examples_from_small_queries(self):
        cfg = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        for seed in range(25):
            task, query, output = task_of(seed, max_depth=2, for_synthesis=True)
            result = synthesize(task, cfg)
            assert result.status == "success", (
                f"seed {seed}: no query found though {query} produced the examples"
            )
            got = eval_query(task.examples[0].input, result.query)
            assert collection_eq(got, output)


class TestDeterminism:
    def test_repeated_runs_agree(self):
        cfg = SynthesisConfig(timeout_seconds=60, max_pipeline_depth=2)
        for seed in (3, 11, 42, 77, 140):
            task, _, _ = task_of(seed, max_depth=2, for_synthesis=True)
            a = synthesize(task, cfg)
            b = synthesize(task, cfg)
            assert a.query == b.query
            assert a.stats["sketchesExplored"] == b.stats["sketchesExplored"]
            assert a.stats["programsCompleted"] == b.stats["programsCompleted"]


class TestPruningMonotonicity:
    # pruning changes the work done, never the answer
    def test_ablations_return_same_query_with_no_less_work(self):
        base_cfg = SynthesisConfig(timeout_seconds=120, max_pipeline_depth=2)
        ablations = [
            SynthesisConfig(timeout_seconds=120, max_pipeline_depth=2, disable_size_abstraction=True),
            SynthesisConfig(timeout_seconds=120, max_pipeline_depth=2, disable_type_abstraction=True),
            SynthesisConfig(
                timeout_seconds=120, max_pipeline_depth=2,
                disable_size_abstraction=True, disable_type_abstraction=True,
            ),
        ]
        for seed in range(10):
            task, _, _ = task_of(seed, max_depth=2, for_synthesis=True)
            base = synthesize(task, base_cfg)
            assert base.status == "success"
            for cfg in ablations:
                ablated = synthesize(task, cfg)
                assert ablated.query == base.query, f"seed {seed}"
                assert (
                    ablated.stats["programsCompleted"] >= base.stats["programsCompleted"]
                ), f"seed {seed}"
