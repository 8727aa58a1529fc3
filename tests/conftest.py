"""Hypothesis settings and shared results for the whole suite.

The example database is off, so every run draws from the strategies and the
explicit @example cases only, and never replays a machine-local .hypothesis
cache. No test has a deadline: no test depends on wall time, and a slow
machine must not fail an example that a fast one passes.

The default-config search of tasks/reddit_posts.json is the slowest the
repository ships, so the tests that only read its result share one run.
Tests that compare separate runs (determinism, ablations) still search on
their own.
"""

from functools import lru_cache
from pathlib import Path

from hypothesis import settings

from docsynth.synth import synthesize
from docsynth.taskio import load_task

settings.register_profile("docsynth", database=None, deadline=None)
settings.load_profile("docsynth")

REDDIT_POSTS = Path(__file__).parent.parent / "tasks" / "reddit_posts.json"


@lru_cache(maxsize=None)
def reddit_posts_result():
    """The result of synthesize(reddit_posts) with the default config; read it, do not change it."""
    return synthesize(load_task(str(REDDIT_POSTS)))
