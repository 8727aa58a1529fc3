"""Mutated task files keep the error contract.

Two shipped tasks are mutated: addfields_arith as written, with its schema
inferred, and lookup_join as `task_to_json` writes it, with an explicit
two-collection schema. Every JSON member at every depth, and the whole
task, is replaced in turn by each value of `VALUES`. Each mutant goes
through `task_from_json` and, when that accepts it, a depth-1 `synthesize`;
only `DocsynthError` subclasses may escape. Every fifth mutant also goes
through `docsynth synth --max-depth 1` as a file, which must exit 0, 2 or
3, or print `error:` and exit 1.

The mutants are a fixed list, and nothing here reads the clock: a
depth-1 search visits 7 spines, far inside the default timeout, and its
status is not asserted.
"""

import json
import math
from pathlib import Path

import pytest

from docsynth.cli import main
from docsynth.errors import DocsynthError
from docsynth.synth import SynthesisConfig, synthesize
from docsynth.taskio import load_task, task_from_json, task_to_json

TASKS_DIR = Path(__file__).parent.parent / "tasks"
VALUES = (
    None, True, 1.5, "x", [], {}, [1], {"a": 1}, {"$date": 1}, {"kind": ["num"]},
    math.nan, math.inf, 10**400,
)
DEPTH_1 = SynthesisConfig(max_pipeline_depth=1)


def base_tasks() -> dict:
    return {
        "addfields_arith": json.loads((TASKS_DIR / "addfields_arith.json").read_text(encoding="utf-8")),
        "lookup_join": task_to_json(load_task(str(TASKS_DIR / "lookup_join.json"))),
    }


def members(obj, prefix=()):
    """The path of every member and element of `obj`, at every depth, parents first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from members(value, prefix + (key,))


def replaced(obj, path, value):
    """A copy of `obj` with the member at `path` replaced by `value`."""
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = replaced(obj[path[0]], path[1:], value)
    return out


def mutants(task):
    """(path, value, mutant) for the whole task and each member, by each value."""
    for path in [()] + list(members(task)):
        for value in VALUES:
            yield path, value, replaced(task, path, value)


@pytest.mark.parametrize("name", sorted(base_tasks()))
def test_library_raises_only_its_own_errors(name):
    tried = searched = 0
    for path, value, mutant in mutants(base_tasks()[name]):
        tried += 1
        try:
            task = task_from_json(mutant)
        except DocsynthError:
            continue
        except Exception as e:  # anything else breaks the contract
            pytest.fail(f"{name} with {path} = {value!r}: task_from_json raised {e!r}")
        searched += 1
        try:
            synthesize(task, DEPTH_1)
        except DocsynthError:
            pass
        except Exception as e:  # anything else breaks the contract
            pytest.fail(f"{name} with {path} = {value!r}: synthesize raised {e!r}")
    assert searched > tried // 4  # the property must reach the search


@pytest.mark.parametrize("name", sorted(base_tasks()))
def test_cli_prints_error_and_exits_1(name, tmp_path, capsys):
    ran = failed = 0
    for path, value, mutant in list(mutants(base_tasks()[name]))[::5]:
        file = tmp_path / "task.json"
        file.write_text(json.dumps(mutant), encoding="utf-8")
        try:
            code = main(["synth", str(file), "--max-depth", "1", "--emit", "dsl"])
        except Exception as e:  # anything else breaks the contract
            pytest.fail(f"{name} with {path} = {value!r}: the CLI raised {e!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), f"{name} with {path} = {value!r}: exit {code}"
        if code == 1:
            assert err.startswith("error:"), f"{name} with {path} = {value!r}: {err!r}"
            failed += 1
        ran += 1
    assert failed and ran > failed
