"""Answer goldens for every shipped task and the seed-1 wide_examples tasks.

The first query that satisfies the examples wins, so the enumeration order
decides which of several observationally equal queries comes back. Each
entry of golden/answers.json pins the returned DSL text, the optimized
MongoDB pipeline and the search counts, so a refactor of the search that
changes any answer or any count fails here.

golden/ablations.json pins the same for the four settings of the two
pruning flags (`disable_size_abstraction`, `disable_type_abstraction`) on
every shipped task but reddit_posts, whose search without type abstraction
is far slower than the rest.

Each pinned pipeline is also replayed without a search, by the independent
`oracles.replay_pipeline`: it must give every example's output, so a stage
shape that does not compute what the answer computes fails here.
"""

import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from docsynth.mongo import optimize, render_shell, translate
from docsynth.synth import SynthesisConfig, synthesize
from docsynth.taskio import load_task, task_from_json
from docsynth.text import parse_query, render_query
from docsynth.values import database_to_json, value_to_json

from . import oracles
from .conftest import reddit_posts_result

HERE = Path(__file__).parent
ROOT = HERE.parent
ANSWERS = json.loads((HERE / "golden" / "answers.json").read_text())
ABLATIONS = json.loads((HERE / "golden" / "ablations.json").read_text())
SETTINGS = {
    "default": SynthesisConfig(),
    "no_size": SynthesisConfig(disable_size_abstraction=True),
    "no_type": SynthesisConfig(disable_type_abstraction=True),
    "no_size_no_type": SynthesisConfig(disable_size_abstraction=True, disable_type_abstraction=True),
}
WIDE_PREFIX = "wide_examples/"


@lru_cache(maxsize=None)
def wide_tasks():
    """The wide_examples tasks of seed 1, from the benchmark's own generator."""
    spec = importlib.util.spec_from_file_location("_wide_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return {WIDE_PREFIX + r.name: r.task for r in workloads.wide_examples(1)}


def load(name):
    if name.startswith(WIDE_PREFIX):
        return task_from_json(wide_tasks()[name])
    return load_task(str(ROOT / "tasks" / (name + ".json")))


def answer(name):
    result = reddit_posts_result() if name == "reddit_posts" else synthesize(load(name))
    assert result.status == "success"
    coll, pipe = translate(result.query)
    return {
        "query": render_query(result.query),
        "pipeline": render_shell(coll, optimize(pipe)),
        "sketches": result.stats["sketchesExplored"],
        "completions": result.stats["programsCompleted"],
    }


def test_goldens_cover_every_task():
    shipped = {p.stem for p in (ROOT / "tasks").glob("*.json")}
    assert set(ANSWERS) == shipped | set(wide_tasks())


@pytest.mark.parametrize("name", sorted(ANSWERS))
def test_answer_matches_golden(name):
    assert answer(name) == ANSWERS[name]


@pytest.mark.parametrize("name", sorted(ANSWERS))
def test_pinned_pipeline_replays_every_example(name):
    coll, pipe = translate(parse_query(ANSWERS[name]["query"]))
    pipeline = optimize(pipe)
    assert render_shell(coll, pipeline) == ANSWERS[name]["pipeline"]
    for ex in load(name).examples:
        got = oracles.replay_pipeline(database_to_json(ex.input), coll, value_to_json(pipeline))
        assert oracles.same_value(got, value_to_json(ex.output))


def test_ablation_goldens_cover_every_setting():
    shipped = {p.stem for p in (ROOT / "tasks").glob("*.json")}
    assert set(ABLATIONS) == shipped - {"reddit_posts"}
    assert all(set(by_setting) == set(SETTINGS) for by_setting in ABLATIONS.values())


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation_matches_golden(name, setting):
    result = synthesize(load(name), SETTINGS[setting])
    assert {
        "status": result.status,
        "query": render_query(result.query) if result.query is not None else None,
        "sketches": result.stats["sketchesExplored"],
        "completions": result.stats["programsCompleted"],
    } == ABLATIONS[name][setting]
