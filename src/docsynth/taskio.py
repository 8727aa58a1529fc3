"""Synthesis tasks: the `SynthesisTask` record, which checks itself, and its JSON form.

A task file is a JSON object with the following members:

    collection   required; name of the collection the query starts from
    examples     required; non-empty array of {"input": .., "output": ..}
                 where input maps collection names to document arrays and
                 output is a document array
    constants    optional; array of scalar values usable as literals
    schema       optional; {collection -> type}. When omitted (None in a
                 `SynthesisTask`), it is inferred from the first example's
                 input and only the other examples are checked against it.

Scalar values follow the extended-JSON conventions used everywhere else
({"$date": ..}, {"$oid": ..}). Validation errors are reported as TaskError
with the JSON path of the offending member, e.g. "examples[1].output".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from sys import intern

from .errors import InvalidDocumentError, TaskError, TypeInferenceError
from .types import compute_schema, conforms, schema_from_json, schema_to_json
from .values import (
    check_value, collection_from_json, database_from_json, database_to_json, kind_of,
    value_from_json, value_to_json,
)


@dataclass(frozen=True)
class Example:
    input: dict
    output: list


@dataclass(frozen=True)
class SynthesisTask:
    schema: dict
    collection: str
    examples: tuple
    constants: tuple = ()

    def __post_init__(self):
        try:
            self._check()
        except RecursionError:
            raise TaskError("task is nested too deeply") from None

    def _check(self):
        for i, c in enumerate(self.constants):
            try:
                kind = kind_of(c)
            except InvalidDocumentError as e:
                raise TaskError(f"constants[{i}]: {e}") from None
            if kind in ("doc", "array"):
                raise TaskError(f"constants[{i}]: constants must be scalars")
        if not self.examples:
            raise TaskError("at least one example is required")
        if self.schema is not None and self.collection not in self.schema:
            raise TaskError(f"collection {self.collection!r} not in schema")
        for i, ex in enumerate(self.examples):
            if not isinstance(ex.input, dict):
                raise TaskError(f"examples[{i}].input must map collection names to documents")
            if not isinstance(ex.output, list) or not all(isinstance(d, dict) for d in ex.output):
                raise TaskError(f"examples[{i}].output must be a list of documents")
            try:
                check_value(ex.output)
            except InvalidDocumentError as e:
                raise TaskError(f"examples[{i}].output: {e}") from None
            if self.schema is None:  # example 0, which conforms to what it infers
                if self.collection not in ex.input:
                    raise TaskError(f"examples[0].input: missing collection {self.collection!r}")
                try:
                    object.__setattr__(self, "schema", compute_schema(ex.input))
                except (TypeInferenceError, InvalidDocumentError) as e:
                    raise TaskError(f"examples[0].input: cannot infer schema: {e}") from None
                continue
            for name, coll_type in self.schema.items():
                docs = ex.input.get(name)
                if docs is None:
                    # the search reads every schema collection, through Lookup
                    raise TaskError(f"examples[{i}].input: missing collection {name!r}")
                try:
                    ok = conforms(docs, coll_type)
                except InvalidDocumentError as e:
                    raise TaskError(f"examples[{i}].input[{name!r}]: {e}") from None
                if not ok:
                    raise TaskError(f"examples[{i}].input[{name!r}] does not conform to the schema")


def _fail(path: str, msg: str):
    raise TaskError(f"{path}: {msg}")


def task_from_json(obj) -> SynthesisTask:
    """Validate a decoded task object; TaskError messages carry JSON paths."""
    try:  # decoding values recurses once per level, before SynthesisTask checks them
        return _decode_task(obj)
    except RecursionError:
        raise TaskError("task is nested too deeply") from None


def _decode_task(obj) -> SynthesisTask:
    if not isinstance(obj, dict):
        _fail("$", f"task must be a JSON object, got {type(obj).__name__}")

    known = {"collection", "examples", "constants", "schema"}
    for key in obj:
        if key not in known:
            _fail(key, "unknown member")

    collection = obj.get("collection")
    if not isinstance(collection, str) or not collection:
        _fail("collection", "required and must be a non-empty string")
    collection = intern(collection)  # as values interns the names it decodes

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
        constants.append(v)

    schema = None
    if "schema" in obj:
        try:
            schema = schema_from_json(obj["schema"])
        except (InvalidDocumentError, TypeInferenceError, TaskError) as e:
            _fail("schema", str(e))

    return SynthesisTask(schema, collection, tuple(examples), tuple(constants))


def load_task(path) -> SynthesisTask:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise TaskError(f"cannot read task file {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise TaskError(f"cannot read task file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise TaskError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise TaskError(f"{path} is nested too deeply") from None
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
