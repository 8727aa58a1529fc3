"""Loading synthesis tasks from JSON files.

A task file is a JSON object with the following members:

    collection   required; name of the collection the query starts from
    examples     required; non-empty array of {"input": .., "output": ..}
                 where input maps collection names to document arrays and
                 output is a document array
    constants    optional; array of scalar values usable as literals
    schema       optional; {collection -> type}. When omitted, the schema
                 is inferred from the first example's input and the other
                 examples are checked against it.

Scalar values follow the extended-JSON conventions used everywhere else
({"$date": ..}, {"$oid": ..}). Validation errors are reported as TaskError
with the JSON path of the offending member, e.g. "examples[1].output".
"""

from __future__ import annotations

import json

from .errors import InvalidDocumentError, TaskError, TypeInferenceError
from .synth import Example, SynthesisTask
from .types import compute_schema, schema_from_json, schema_to_json
from .values import collection_from_json, database_from_json, database_to_json, value_from_json, value_to_json


def _fail(path: str, msg: str):
    raise TaskError(f"{path}: {msg}")


def task_from_json(obj) -> SynthesisTask:
    """Validate a decoded task object; TaskError messages carry JSON paths."""
    if not isinstance(obj, dict):
        _fail("$", f"task must be a JSON object, got {type(obj).__name__}")

    known = {"collection", "examples", "constants", "schema"}
    for key in obj:
        if key not in known:
            _fail(key, "unknown member")

    collection = obj.get("collection")
    if not isinstance(collection, str) or not collection:
        _fail("collection", "required and must be a non-empty string")

    raw_examples = obj.get("examples")
    if not isinstance(raw_examples, list) or not raw_examples:
        _fail("examples", "required and must be a non-empty array")

    examples = []
    for i, raw in enumerate(raw_examples):
        where = f"examples[{i}]"
        if not isinstance(raw, dict):
            _fail(where, "example must be an object")
        for key in raw:
            if key not in ("input", "output"):
                _fail(f"{where}.{key}", "unknown member")
        try:
            db = database_from_json(raw.get("input"))
        except InvalidDocumentError as e:
            _fail(f"{where}.input", str(e))
        if collection not in db:
            _fail(f"{where}.input", f"missing collection {collection!r}")
        try:
            out = collection_from_json(raw.get("output"))
        except InvalidDocumentError as e:
            _fail(f"{where}.output", str(e))
        examples.append(Example(db, out))

    constants = []
    raw_constants = obj.get("constants", [])
    if not isinstance(raw_constants, list):
        _fail("constants", "must be an array")
    for i, raw in enumerate(raw_constants):
        try:
            v = value_from_json(raw)
        except InvalidDocumentError as e:
            _fail(f"constants[{i}]", str(e))
        if isinstance(v, (list, dict)):
            _fail(f"constants[{i}]", "constants must be scalars")
        constants.append(v)

    if "schema" in obj:
        try:
            schema = schema_from_json(obj["schema"])
        except (InvalidDocumentError, TypeInferenceError, TaskError) as e:
            _fail("schema", str(e))
    else:
        try:
            schema = compute_schema(examples[0].input)
        except TypeInferenceError as e:
            _fail("examples[0].input", f"cannot infer schema: {e}")

    try:
        return SynthesisTask(schema, collection, tuple(examples), tuple(constants))
    except TaskError as e:
        raise TaskError(str(e)) from None


def load_task(path) -> SynthesisTask:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise TaskError(f"cannot read task file {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise TaskError(f"{path} is not valid JSON: {e}") from None
    return task_from_json(obj)


def task_to_json(task: SynthesisTask) -> dict:
    """Inverse of task_from_json, always writing the schema explicitly."""
    return {
        "schema": schema_to_json(task.schema),
        "collection": task.collection,
        "constants": [value_to_json(c) for c in task.constants],
        "examples": [
            {"input": database_to_json(ex.input), "output": [value_to_json(d) for d in ex.output]}
            for ex in task.examples
        ],
    }
