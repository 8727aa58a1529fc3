"""End-to-end acceptance checks.

Eight checks, one per shipping requirement: the forum task end to end,
deduction trace fidelity on it, the two pruning properties at scale, size
fold agreement with the composed per-kind images, the interpreter's reference
behaviors, the cost/answer split under disabled pruning, and the bundled
task suite. Each test prints a single PASS/FAIL line (visible with -s).
"""

import glob
import json
import os
import random
from contextlib import contextmanager
from pathlib import Path

from docsynth.absint import OPERATOR_TAGS, AbsEvalContext, Sketch, abs_eval
from docsynth.cli import main
from docsynth.interp import eval_agg, eval_query
from docsynth.lang import (
    AddFields, Avg, CollectionRef, Cmp, Count, Group, Match, Min, PathExpr,
    Project, Sum, Unwind, stages,
)
from docsynth.mongo import optimize, render_shell, translate
from docsynth.sizes import reachable
from docsynth.synth import (
    Example, Search, SynthesisConfig, SynthesisTask, complete_sketch, deduce, synthesize,
)
from docsynth.taskio import load_task
from docsynth.text import render_query
from docsynth.types import compute_schema
from docsynth.values import collection_eq

from .conftest import reddit_posts_result
from .generators import gen_pair
from .oracles import PROBES, sizes_by_enumeration, skeleton

HERE = Path(__file__).parent
TASKS_DIR = HERE.parent / "tasks"
GOLDEN = json.loads((HERE / "golden" / "replay_stages.json").read_text())


@contextmanager
def reported(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}", flush=True)
        raise
    print(f"PASS {label}", flush=True)


def test_forum_task_end_to_end():
    with reported("end-to-end synthesis of the forum task"):
        task = load_task(str(TASKS_DIR / "reddit_posts.json"))
        result = reddit_posts_result()
        assert result.status == "success"
        for ex in task.examples:
            assert eval_query(ex.input, result.query) == ex.output
        coll, pipe = translate(result.query)
        shell = render_shell(coll, optimize(pipe)) + "\n"
        assert shell == (HERE / "golden" / "forum_pipeline.txt").read_text()
        assert result.stats["sketchesExplored"] == 11213


def test_forum_deduction_verdicts_and_traces():
    with reported("deduction verdicts and abstract traces on the forum task"):
        task = load_task(str(TASKS_DIR / "reddit_posts.json"))
        cfg = SynthesisConfig()
        bare = Sketch("posts", ())
        three = Sketch("posts", ("unwind", "match", "project"))
        six = Sketch("posts", ("unwind", "match", "group", "add_fields", "match", "project"))
        search = Search(task, cfg)
        assert deduce(search, bare) is False
        assert deduce(search, three) is False
        assert deduce(search, six) is True

        out_type = compute_schema({"out": task.examples[0].output})["out"].elem

        lam = abs_eval(AbsEvalContext(task.schema, out_type), three)
        assert [t.render() for t in lam] == ["{title: String}"]

        lam = abs_eval(AbsEvalContext(task.schema, out_type), six)
        assert "{?⁺₀: Any, ?⁺₃: Num}" in [t.render() for t in lam]

        # the size half: the input posts folded through each spine's kinds
        n, m = len(task.examples[0].input["posts"]), len(task.examples[0].output)
        assert (n, m) == (3, 2)
        assert [reachable(n, sk.ops, m) for sk in (bare, three, six)] == [False, True, True]


def test_pruning_never_rejects_a_true_spine():
    with reported("pruning soundness on 1000 random pairs"):
        cfg = SynthesisConfig()
        for seed in range(1000):
            db, coll, query, output, _ = gen_pair(seed)
            task = SynthesisTask(compute_schema(db), coll, (Example(db, output),))
            ok = deduce(Search(task, cfg), skeleton(query))
            assert ok, f"seed {seed}: rejected the spine of {query}"


def test_pruned_spines_have_no_completion():
    with reported("pruning safety on 100 tiny pairs"):
        cfg = SynthesisConfig()
        pruned = 0
        for seed in range(100):
            db, coll, query, output, constants = gen_pair(seed, tiny=True, max_depth=2)
            task = SynthesisTask(compute_schema(db), coll, (Example(db, output),), tuple(constants))
            search = Search(task, cfg)
            # the oracle completes with no pruning, so "no completion" does not
            # rest on the prefix size check
            oracle = Search(task, SynthesisConfig(
                disable_size_abstraction=True, disable_type_abstraction=True,
            ))
            worklist, frontier = [Sketch(coll, ())], [Sketch(coll, ())]
            for _ in range(2):
                frontier = [
                    Sketch(coll, (tag,) + sk.ops)
                    for sk in frontier for tag in OPERATOR_TAGS
                ]
                worklist.extend(frontier)
            for sk in worklist:
                if deduce(search, sk):
                    continue
                pruned += 1
                got = complete_sketch(oracle, sk)
                assert got is None, f"seed {seed}: pruned spine {sk.ops} completes to {got}"
        assert pruned > 100


def test_size_solver_agrees_with_bruteforce():
    with reported("size fold vs composed per-kind images on 10000 spines"):
        rng = random.Random(20260814)
        for _ in range(10000):
            n = rng.randint(0, 10)
            tags = tuple(rng.choice(OPERATOR_TAGS) for _ in range(rng.randint(0, 7)))
            probe = None if rng.random() < 0.5 else rng.randint(0, 12)
            want = sizes_by_enumeration(n, tags)
            if probe is None:
                # a non-empty set holds a size of at most max(n, 1)
                got = any(reachable(n, tags, m) for m in PROBES)
                assert got == bool(want), f"n={n} tags={tags}"
            else:
                assert reachable(n, tags, probe) == (probe in want), (
                    f"n={n} tags={tags} probe={probe}"
                )


def test_interpreter_reference_behaviors():
    with reported("interpreter reference behaviors"):
        # array flattening emits one document per element, in order
        db = {"c": [{"a": 1, "b": [2, 3]}, {"a": 4, "b": [5, 6]}]}
        out = eval_query(db, Unwind(CollectionRef("c"), ("b",)))
        assert out == [{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 4, "b": 5}, {"a": 4, "b": 6}]

        # the six forum stages replayed one at a time against frozen outputs
        q = CollectionRef("posts")
        builders = [
            lambda s: Unwind(s, ("replies",)),
            lambda s: Match(s, Cmp(("replies", "depth"), ">", 0)),
            lambda s: Group(s, (("_id",), ("title",)), ("reply_count",), (Count(),)),
            lambda s: AddFields(s, (("title",),), (PathExpr(("_id", "title")),)),
            lambda s: Match(s, Cmp(("reply_count",), ">", 1)),
            lambda s: Project(s, (("reply_count",), ("title",))),
        ]
        for i, build in enumerate(builders):
            q = build(q)
            assert collection_eq(eval_query(GOLDEN["input"], q), GOLDEN["stages"][i])

        # null handling in aggregators
        assert eval_agg([{"x": 1}, {"x": None}, {"x": 2}], Sum(("x",))) == 3
        assert eval_agg([{"x": None}], Sum(("x",))) == 0
        assert eval_agg([{"x": None}], Min(("x",))) is None
        assert eval_agg([{"x": 1}, {"x": None}, {"x": 2}], Avg(("x",))) == 1.5


def test_disabling_pruning_costs_work_not_answers():
    with reported("ablations cost work, never change answers"):
        task = load_task(str(TASKS_DIR / "hard_unwind_group.json"))
        base = synthesize(task, SynthesisConfig())
        no_type = synthesize(task, SynthesisConfig(disable_type_abstraction=True))
        no_both = synthesize(
            task,
            SynthesisConfig(disable_type_abstraction=True, disable_size_abstraction=True),
        )
        assert base.status == no_type.status == no_both.status == "success"
        assert no_type.stats["programsCompleted"] > base.stats["programsCompleted"]
        assert no_type.query == base.query
        assert no_both.query == base.query


def test_bundled_tasks_all_solved_and_verified(tmp_path):
    with reported("bundled task suite solved and verified"):
        paths = sorted(glob.glob(str(TASKS_DIR / "*.json")))
        assert len(paths) >= 10
        seen_tags = set()
        two_key_group = False
        for path in paths:
            task = load_task(path)
            name = os.path.basename(path)
            result = reddit_posts_result() if name == "reddit_posts.json" else synthesize(task)
            assert result.status == "success", f"{name} not solved"
            seen_tags.update(skeleton(result.query).ops)
            two_key_group = two_key_group or any(
                isinstance(s, Group) and len(s.keys) == 2 for s in stages(result.query)
            )
            qfile = tmp_path / (name + ".query")
            qfile.write_text(render_query(result.query) + "\n", encoding="utf-8")
            assert main(["eval", path, str(qfile)]) == 0, f"{name} failed replay"
        assert seen_tags == set(OPERATOR_TAGS)
        assert two_key_group
