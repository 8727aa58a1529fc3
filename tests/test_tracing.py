"""The benchmark's per-layer tracer still sees every layer.

perfbench/tracing.py times docsynth's layers by rebinding function names in
the modules that call them. A layer that is renamed, or that the library no
longer calls through those names, would otherwise show up only in a traced
benchmark run, as an AttributeError or as a layer that silently reads zero.
This test runs one request the way the benchmark serves it, under the
tracer, and requires a span from every layer.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from docsynth import interp, mongo, synth, taskio, text

ROOT = Path(__file__).parent.parent

LAYERS = {
    "taskio", "types.compute_schema", "synth", "deduce", "absint.abs_eval",
    "abstraction.concretizes", "complete", "predicates", "lenient_type",
    "interp.apply_stage", "interp.eval_query", "mongo", "text",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_layer_records_a_span():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    modules = (synth, interp, mongo, text, taskio)
    before = [dict(vars(m)) for m in modules]
    tracing.instrument(tracer, SimpleNamespace(synth=synth, interp=interp, mongo=mongo,
                                               text=text, taskio=taskio))
    obj = json.loads((ROOT / "tasks" / "hard_unwind_group.json").read_text())
    tracer.attach()
    try:
        task = taskio.task_from_json(obj)
        result = synth.synthesize(task)
        assert result.status == "success"
        for ex in task.examples:
            assert interp.eval_query(ex.input, result.query) == ex.output
        collection, pipeline = mongo.translate(result.query)
        mongo.render_shell(collection, mongo.optimize(pipeline))
        assert text.parse_query(text.render_query(result.query)) == result.query
    finally:
        tracer.detach()
    assert set(tracer.names) == LAYERS
    assert [dict(vars(m)) for m in modules] == before
