"""Answer goldens for every shipped task and the seed-1 wide_examples tasks.

The first query that satisfies the examples wins, so the enumeration order
decides which of several observationally equal queries comes back. Each
entry of golden/answers.json pins the returned DSL text, the optimized
MongoDB pipeline and the search counts, so a refactor of the search that
changes any answer or any count fails here.
"""

import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from docsynth.mongo import optimize, render_shell, translate
from docsynth.synth import synthesize
from docsynth.taskio import load_task, task_from_json
from docsynth.text import render_query

from .conftest import reddit_posts_result

HERE = Path(__file__).parent
ROOT = HERE.parent
ANSWERS = json.loads((HERE / "golden" / "answers.json").read_text())
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
