"""Outside-in spans around docsynth's layers.

The tracer rebinds public functions in the module namespaces that call them
(for example `docsynth.synth.abs_eval`, which `deduce` looks up at call
time), so the program itself is unchanged and untraced runs pay nothing.
Each call becomes a span: name, parent span, request, start and end. Spans
are kept in flat arrays in memory and written out when the run ends; self
times are computed from them afterwards, as a span's duration minus the
durations of its direct children (calls are nested on one thread, so the
children never overlap).

Layers and where they are bound:

  taskio                 docsynth.taskio.task_from_json
  types.compute_schema   docsynth.taskio.compute_schema
  synth                  docsynth.synth.synthesize (the worklist loop)
  deduce                 docsynth.synth.deduce
  absint.abs_eval        docsynth.synth.abs_eval
  abstraction.concretizes docsynth.synth.concretizes
  complete               docsynth.synth.complete_sketch
  predicates             docsynth.synth.enumerate_predicates (a generator:
                         one span per item produced)
  lenient_type           docsynth.synth.lenient_doc_type
  interp.apply_stage     docsynth.synth.apply_stage (stages run by the search)
  interp.eval_query      docsynth.interp.eval_query (the final verification)
  mongo                  docsynth.mongo.translate / optimize / render_shell
  text                   docsynth.text.render_query / parse_query

The benchmark opens one `request` span per request around all of them, so
the self times of all layers, `request` included, add up to the traced
request time.
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.stack = [-1]
        self.current_request = -1
        self._bindings = []

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(self._intern(name))
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = perf_counter()
        self.stack.pop()

    def span_fn(self, name: str, fn, count=None):
        """`fn` wrapped in a span; `count(args, result)` runs after it ends."""
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(args, result)
            return result

        return traced

    def span_gen(self, name: str, fn, per_item: str):
        """A generator function wrapped so each item it produces is a span."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                self.counts[per_item] += 1
                yield item

        return traced

    def bind(self, module, attr: str, wrapped):
        """Register `wrapped` to replace `module.attr` while attached."""
        self._bindings.append((module, attr, getattr(module, attr), wrapped))

    def attach(self):
        for module, attr, _, wrapped in self._bindings:
            setattr(module, attr, wrapped)

    def detach(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """Total self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        name = self.name
        for i in range(n):
            totals[name[i]] += end[i] - start[i] - child[i]
        return dict(zip(self.names, totals))

    def write(self, path: str):
        """Write every span as a tab-separated line, times in ns from the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t{names[self.name[i]]}\t"
                         f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n")


def instrument(tracer: Tracer, mods) -> None:
    """Register traced versions of docsynth's layer functions; `attach` binds them."""
    counts = tracer.counts
    synth, interp, mongo, text, taskio = mods.synth, mods.interp, mods.mongo, mods.text, mods.taskio

    def on_deduce(args, feasible):
        counts["deduce.calls"] += 1
        if not feasible:
            counts["deduce.pruned"] += 1

    def on_complete(args, query):
        counts["complete.calls"] += 1
        if query is not None:
            counts["complete.solved"] += 1

    def on_apply(args, out):
        counts["interp.apply_stage.calls"] += 1
        counts["interp.apply_stage.docs_in"] += len(args[1])

    def counter(key):
        def on_call(args, result):
            counts[key] += 1
        return on_call

    def on_translate(args, result):
        counts["mongo.stages_in"] += len(result[1])

    def on_optimize(args, result):
        counts["mongo.stages_out"] += len(result)

    span = tracer.span_fn
    tracer.bind(taskio, "task_from_json", span("taskio", taskio.task_from_json))
    tracer.bind(taskio, "compute_schema", span("types.compute_schema", taskio.compute_schema))
    tracer.bind(synth, "synthesize", span("synth", synth.synthesize))
    tracer.bind(synth, "deduce", span("deduce", synth.deduce, on_deduce))
    tracer.bind(synth, "abs_eval", span("absint.abs_eval", synth.abs_eval, counter("absint.abs_eval.calls")))
    tracer.bind(synth, "concretizes", span("abstraction.concretizes", synth.concretizes,
                                           counter("abstraction.concretizes.calls")))
    tracer.bind(synth, "complete_sketch", span("complete", synth.complete_sketch, on_complete))
    tracer.bind(synth, "enumerate_predicates",
                tracer.span_gen("predicates", synth.enumerate_predicates, "predicates.yielded"))
    tracer.bind(synth, "lenient_doc_type", span("lenient_type", synth.lenient_doc_type,
                                                counter("lenient_type.calls")))
    tracer.bind(synth, "apply_stage", span("interp.apply_stage", synth.apply_stage, on_apply))
    tracer.bind(interp, "eval_query", span("interp.eval_query", interp.eval_query))
    tracer.bind(mongo, "translate", span("mongo", mongo.translate, on_translate))
    tracer.bind(mongo, "optimize", span("mongo", mongo.optimize, on_optimize))
    tracer.bind(mongo, "render_shell", span("mongo", mongo.render_shell))
    tracer.bind(text, "render_query", span("text", text.render_query))
    tracer.bind(text, "parse_query", span("text", text.parse_query))
