"""Example-driven synthesis of aggregation queries over document databases.

The package turns a task (collection schema, input/output example pairs,
optional constants) into a pipeline query that reproduces every example,
and can translate that query into a MongoDB aggregation pipeline. Search
runs over operator spines, pruning spines whose over-approximated output
(document types with placeholders, and the input size folded through
per-stage-kind size images) cannot produce the example outputs, then fills
the surviving spines stage by stage against concrete intermediate
collections.
"""

from docsynth.errors import DocsynthError, EvalError, ParseError, TaskError
from docsynth.interp import eval_query
from docsynth.mongo import optimize, render_shell, translate
from docsynth.synth import (
    Example,
    SynthesisConfig,
    SynthesisResult,
    SynthesisTask,
    synthesize,
)
from docsynth.taskio import load_task, task_from_json, task_to_json
from docsynth.text import parse_query, render_query
from docsynth.types import compute_schema

__version__ = "0.1.0"

__all__ = [
    "DocsynthError",
    "EvalError",
    "Example",
    "ParseError",
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisTask",
    "TaskError",
    "__version__",
    "compute_schema",
    "eval_query",
    "load_task",
    "optimize",
    "parse_query",
    "render_query",
    "render_shell",
    "synthesize",
    "task_from_json",
    "task_to_json",
    "translate",
]
