"""Λ golden for shallow spines.

golden/lambda_depth2.json pins, for every shipped task, every collection of
its schema, every spine of depth at most 2 and each example, the sorted
renderings of Λ, the abstract document types the spine can produce. A
refactor of the type half of deduction must keep every one of them.

Regenerate (only when the abstraction is meant to change) with
`PYTHONPATH=src python -m tests.test_lambda_golden` from the repo root.
"""

import json
from itertools import product
from pathlib import Path

from docsynth.absint import OPERATOR_TAGS, AbsEvalContext, Sketch, abs_eval
from docsynth.taskio import load_task
from docsynth.types import lenient_doc_type

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "lambda_depth2.json"
MAX_DEPTH = 2


def lambda_renders() -> dict:
    out = {}
    for path in sorted((HERE.parent / "tasks").glob("*.json")):
        task = load_task(str(path))
        contexts = [AbsEvalContext(task.schema, lenient_doc_type(ex.output)) for ex in task.examples]
        by_spine = out[path.stem] = {}
        for coll in task.schema:
            for depth in range(MAX_DEPTH + 1):
                for ops in product(OPERATOR_TAGS, repeat=depth):
                    sk = Sketch(coll, ops)
                    by_spine[sk.render()] = [
                        sorted(t.render() for t in abs_eval(ctx, sk)) for ctx in contexts
                    ]
    return out


def test_lambda_of_shallow_spines_matches_golden():
    assert lambda_renders() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def dump(renders: dict) -> str:
    """JSON text with one line per spine."""
    def line(obj):
        return json.dumps(obj, ensure_ascii=False)

    tasks = [
        f" {line(name)}: {{\n" + ",\n".join(
            f"  {line(spine)}: {line(lams)}" for spine, lams in sorted(by_spine.items())
        ) + "\n }"
        for name, by_spine in sorted(renders.items())
    ]
    return "{\n" + ",\n".join(tasks) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(dump(lambda_renders()), encoding="utf-8")
