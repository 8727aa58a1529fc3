"""The bundled tasks are what scripts/freeze_tasks.py builds.

The script is loaded as a module, so nothing under tasks/ is written: every
spec must rebuild its task file byte for byte, and the specs must name
exactly the files that ship.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
TASKS_DIR = ROOT / "tasks"


def load_freeze_tasks():
    spec = importlib.util.spec_from_file_location("_freeze_tasks", ROOT / "scripts" / "freeze_tasks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_specs_name_the_shipped_task_files():
    names = [spec["name"] for spec in load_freeze_tasks().TASKS]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(p.stem for p in TASKS_DIR.glob("*.json"))


def test_every_spec_rebuilds_its_task_file():
    freeze = load_freeze_tasks()
    for spec in freeze.TASKS:
        shipped = (TASKS_DIR / f"{spec['name']}.json").read_text(encoding="utf-8")
        task = freeze.build(spec)
        assert task == json.loads(shipped), spec["name"]
        # as main() writes it: two-space indent and a final newline
        assert json.dumps(task, indent=2) + "\n" == shipped, spec["name"]
