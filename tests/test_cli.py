"""Command-line interface and task-file loading.

All invocations go through main(argv) in process; nothing shells out.
"""

import csv
import glob
import json
import os
import sys
from types import SimpleNamespace

import pytest

from docsynth.cli import main
from docsynth.errors import TaskError
from docsynth.synth import SynthesisConfig, synthesize
from docsynth.taskio import Example, SynthesisTask, load_task, task_from_json, task_to_json
from docsynth.types import compute_schema, conforms
from docsynth.values import value_to_json

from . import oracles
from .test_synth import FORUM_DB


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def nested_task_text(depth):
    """A task whose one input document nests an attribute `depth` arrays deep."""
    value = "[" * depth + "1" + "]" * depth
    return ('{"collection": "items", "examples": [{"input": {"items": [{"a": %s}]}, "output": []}]}'
            % value)


def simple_task(marker=6):
    return {
        "collection": "items",
        "constants": [5],
        "examples": [
            {
                "input": {"items": [{"a": 1}, {"a": marker}, {"a": 8}]},
                "output": [{"a": marker}, {"a": 8}],
            }
        ],
    }


class TestTaskFromJson:
    def test_accepts_minimal_task(self):
        task = task_from_json(simple_task())
        assert task.collection == "items"
        assert task.constants == (5,)
        assert len(task.examples) == 1
        # schema was inferred from the first example
        assert task.schema == compute_schema(task.examples[0].input)

    def test_top_level_must_be_object(self):
        with pytest.raises(TaskError, match=r"\$"):
            task_from_json([1, 2])

    def test_missing_collection(self):
        t = simple_task()
        del t["collection"]
        with pytest.raises(TaskError, match="collection"):
            task_from_json(t)

    def test_unknown_member_is_rejected(self):
        t = simple_task()
        t["exmaples"] = []
        with pytest.raises(TaskError, match="exmaples"):
            task_from_json(t)

    def test_empty_examples(self):
        t = simple_task()
        t["examples"] = []
        with pytest.raises(TaskError, match="examples"):
            task_from_json(t)

    def test_error_names_the_bad_example(self):
        t = simple_task()
        t["examples"].append({"input": {"items": "nope"}, "output": []})
        with pytest.raises(TaskError, match=r"examples\[1\]\.input"):
            task_from_json(t)

    def test_error_names_the_bad_output(self):
        t = simple_task()
        t["examples"][0]["output"] = {"a": 1}
        with pytest.raises(TaskError, match=r"examples\[0\]\.output"):
            task_from_json(t)

    def test_input_must_contain_the_collection(self):
        t = simple_task()
        t["collection"] = "orders"
        with pytest.raises(TaskError, match="orders"):
            task_from_json(t)

    def test_example_0_missing_the_collection_is_named(self):
        t = simple_task()
        t["collection"] = "orders"
        with pytest.raises(TaskError) as exc:
            task_from_json(t)
        assert str(exc.value) == "examples[0].input: missing collection 'orders'"

    @pytest.mark.parametrize("depth", [600, 1500])
    def test_deep_nesting_is_task_error(self, depth):
        value = 1
        for _ in range(depth):
            value = [value]
        t = simple_task()
        t["examples"][0]["input"]["items"] = [{"a": value}]
        with pytest.raises(TaskError, match="nested too deeply"):
            task_from_json(t)

    def test_constant_must_be_scalar(self):
        t = simple_task()
        t["constants"] = [[1, 2]]
        with pytest.raises(TaskError, match=r"constants\[0\]"):
            task_from_json(t)

    def test_second_example_checked_against_inferred_schema(self):
        t = simple_task()
        t["examples"].append(
            {"input": {"items": [{"a": "str-not-num"}]}, "output": []}
        )
        with pytest.raises(TaskError, match=r"examples\[1\]"):
            task_from_json(t)

    def test_explicit_schema_roundtrip(self):
        task = task_from_json(simple_task())
        again = task_from_json(task_to_json(task))
        assert again.schema == task.schema
        assert again.examples == task.examples
        assert again.constants == task.constants

    def test_date_and_oid_scalars_decode(self):
        t = simple_task()
        t["examples"][0]["input"]["items"] = [
            {"a": 1, "when": {"$date": "2024-01-01"}, "ref": {"$oid": "abc123"}}
        ]
        t["examples"][0]["output"] = []
        task = task_from_json(t)
        doc = task.examples[0].input["items"][0]
        assert doc["when"].value == "2024-01-01"
        assert doc["ref"].value == "abc123"


class TestLoadTask:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TaskError, match="cannot read"):
            load_task(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(TaskError, match="not valid JSON"):
            load_task(str(p))

    def test_file_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"collection": "\xff"}')
        with pytest.raises(TaskError, match="cannot read task file .*utf-8"):
            load_task(str(p))

    @pytest.mark.parametrize("depth", [600, 1500])
    def test_deep_nesting_is_task_error(self, tmp_path, depth):
        # on CPython 3.11, 600 levels exhaust the stack while decoding values, 1500 inside json.load
        p = tmp_path / "deep.json"
        p.write_text(nested_task_text(depth))
        with pytest.raises(TaskError, match="nested too deeply"):
            load_task(str(p))


class TestSchemaInference:
    DB = {"items": [{"a": 1, "b": "x"}, {"a": 2}], "tags": [{"name": "t"}]}

    def test_schema_is_inferred_from_example_0(self):
        task = SynthesisTask(None, "items", (Example(self.DB, []),))
        assert task.schema == compute_schema(self.DB)

    def test_only_later_examples_are_walked(self, monkeypatch):
        walked = []

        def spy(docs, t):
            walked.append(docs)
            return conforms(docs, t)

        monkeypatch.setattr("docsynth.taskio.conforms", spy)
        later = [{"items": [{"a": 3}], "tags": []}, {"items": [], "tags": [{"name": "u"}]}]
        examples = tuple(Example(db, []) for db in [self.DB] + later)
        task = SynthesisTask(None, "items", examples)
        assert walked == [db[name] for db in later for name in ("items", "tags")]
        walked.clear()
        SynthesisTask(task.schema, "items", examples)
        assert walked == [db[name] for db in [self.DB] + later for name in ("items", "tags")]

    @pytest.mark.parametrize("tags, error", [([], "tags is empty"), (3, "tags is not an array")])
    def test_inference_error_names_example_0(self, tags, error):
        with pytest.raises(TaskError) as exc:
            SynthesisTask(None, "items", (Example({"items": [{"a": 1}], "tags": tags}, []),))
        assert str(exc.value).startswith(f"examples[0].input: cannot infer schema: collection 'tags': {error}")

    def test_deep_nesting_is_task_error(self):
        # a task built in code maps the stack overflow of a deep value, as task_from_json does
        value = 1
        for _ in range(1500):
            value = [value]
        with pytest.raises(TaskError, match="nested too deeply"):
            SynthesisTask(None, "c", (Example({"c": [{"a": value}]}, []),))


class TestSynthCommand:
    def test_success_emits_both_and_stats(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "Match(items, a > 5)\n"
            "\n"
            "db.items.aggregate([\n"
            "  {$match: {a: {$gt: 5}}}])\n"
        )
        assert "status=success" in out
        assert "sketches=" in out and "completions=" in out and "ast=" in out
        assert "prefix_pruned=" in out

    def test_stats_line_reports_reused_states(self, capsys):
        # hard_unwind_group reaches equal stage states from different prefixes
        path = os.path.join(TASKS_DIR, "hard_unwind_group.json")
        assert synthesize(load_task(path)).stats["statesReused"] == 26
        assert main(["synth", path, "--emit", "dsl"]) == 0
        assert " reused=26 " in capsys.readouterr().out

    def test_emit_dsl_only(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--emit", "dsl"]) == 0
        out = capsys.readouterr().out
        assert "Match(items, a > 5)" in out
        assert "aggregate" not in out

    def test_emit_mongo_only(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--emit", "mongo"]) == 0
        out = capsys.readouterr().out
        assert "Match(items" not in out
        assert "db.items.aggregate([" in out

    def test_non_finite_constant_has_no_dsl_text_and_js_spelling(self, tmp_path, capsys):
        inf = float("inf")
        t = {"collection": "c",
             "examples": [{"input": {"c": [{"x": 1}, {"x": inf}]}, "output": [{"x": inf}]}]}
        path = write_json(tmp_path / "t.json", t)  # json writes the bare token Infinity
        assert main(["synth", path, "--emit", "dsl"]) == 1
        assert "not representable" in capsys.readouterr().err
        assert main(["synth", path, "--emit", "mongo"]) == 0
        assert "{$match: {x: {$eq: Infinity}}}" in capsys.readouterr().out

    def non_finite_task(self, tmp_path):
        inf = float("inf")
        t = {"collection": "c",
             "examples": [{"input": {"c": [{"x": 1}, {"x": inf}]}, "output": [{"x": inf}]}]}
        return write_json(tmp_path / "t.json", t)

    def test_emit_both_keeps_pipeline_and_stats_without_dsl_text(self, tmp_path, capsys):
        path = self.non_finite_task(tmp_path)
        assert main(["synth", path]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("db.c.aggregate([\n  {$match: {x: {$eq: Infinity}}}])\n")
        assert "status=success" in out
        assert "warning: DSL text omitted: constant inf is not representable" in err
        dest = tmp_path / "query.txt"
        assert main(["synth", path, "--out", str(dest)]) == 0
        out, err = capsys.readouterr()
        assert "{$match: {x: {$eq: Infinity}}}" in dest.read_text()
        assert "status=success" in out and "aggregate" not in out
        assert "warning: DSL text omitted" in err

    def test_emit_dsl_prints_stats_then_fails(self, tmp_path, capsys):
        path = self.non_finite_task(tmp_path)
        assert main(["synth", path, "--emit", "dsl"]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("status=success ")
        assert err == "error: constant inf is not representable in text syntax\n"

    def test_out_file_receives_artifacts(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        dest = tmp_path / "query.txt"
        assert main(["synth", path, "--emit", "dsl", "--out", str(dest)]) == 0
        out = capsys.readouterr().out
        assert dest.read_text() == "Match(items, a > 5)\n"
        assert "Match" not in out  # stdout carries only the stats line
        assert "status=success" in out

    def test_timeout_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--timeout", "1e-9"]) == 2
        assert "status=timeout" in capsys.readouterr().out

    def test_exhaustion_exit_code(self, tmp_path, capsys):
        t = simple_task()
        t["examples"][0]["output"] = [{"z": 99}]  # no operator can mint this
        path = write_json(tmp_path / "t.json", t)
        assert main(["synth", path, "--max-depth", "1"]) == 3
        assert "status=exhausted" in capsys.readouterr().out

    def test_no_flags_build_the_default_config(self, tmp_path, capsys, monkeypatch):
        seen = []

        def spy(task, cfg, trace=None):
            seen.append(cfg)
            return synthesize(task, cfg, trace=trace)

        monkeypatch.setattr("docsynth.cli.synthesize", spy)
        assert main(["synth", write_json(tmp_path / "t.json", simple_task())]) == 0
        assert seen == [SynthesisConfig()]

    def test_example_missing_a_collection_is_input_error(self, tmp_path, capsys):
        t = simple_task()
        t["examples"][0]["input"]["tags"] = [{"name": "x"}]
        t["examples"].append({"input": {"items": [{"a": 1}]}, "output": []})
        assert main(["synth", write_json(tmp_path / "t.json", t)]) == 1
        assert "examples[1].input: missing collection 'tags'" in capsys.readouterr().err

    def test_task_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"collection": "\xff"}')
        assert main(["synth", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read task file")

    def test_deeply_nested_task_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text(nested_task_text(600))
        assert main(["synth", str(p)]) == 1
        assert capsys.readouterr().err == "error: task is nested too deeply\n"

    def test_unwritable_out_path_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        dest = tmp_path / "missing" / "out.txt"
        assert main(["synth", path, "--out", str(dest)]) == 1
        assert f"error: cannot write {dest}: " in capsys.readouterr().err

    def test_missing_task_file_is_input_error(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "no.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_task_reports_json_path(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", {"collection": "items", "examples": [{"input": {"items": 3}, "output": []}]})
        assert main(["synth", path]) == 1
        err = capsys.readouterr().err
        assert "examples[0].input" in err

    def test_array_type_without_elem_is_schema_error(self, tmp_path, capsys):
        t = simple_task()
        t["schema"] = {"items": {"kind": "array"}}
        path = write_json(tmp_path / "t.json", t)
        assert main(["synth", path]) == 1
        assert "error: schema:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["array"], {"k": 1}, 3, None])
    def test_type_kind_that_is_not_a_string_is_schema_error(self, tmp_path, capsys, kind):
        t = simple_task()
        t["schema"] = {"items": {"kind": kind}}
        path = write_json(tmp_path / "t.json", t)
        assert main(["synth", path]) == 1
        assert "error: schema: invalid type JSON" in capsys.readouterr().err

    def test_trace_logs_one_line_per_sketch(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--trace", "--emit", "dsl"]) == 0
        captured = capsys.readouterr()
        trace_lines = [l for l in captured.err.splitlines() if l.startswith("trace:")]
        stats = [l for l in captured.out.splitlines() if l.startswith("status=")][0]
        explored = int(stats.split("sketches=")[1].split()[0])
        assert len(trace_lines) == explored
        assert any(l.endswith("pruned") for l in trace_lines)
        assert any(l.endswith("feasible") for l in trace_lines)

    def test_bad_flag_value_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--timeout", "-1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_timeout_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--timeout", "nan"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEvalCommand:
    def test_matching_query_exits_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        qp = tmp_path / "q.txt"
        qp.write_text("Match(items, a > 5)")
        assert main(["eval", path, str(qp)]) == 0
        out = capsys.readouterr().out
        assert "example 0: ok" in out

    def test_mismatch_shows_diff_and_fails(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        qp = tmp_path / "q.txt"
        qp.write_text("Match(items, a > 7)")
        assert main(["eval", path, str(qp)]) == 1
        out = capsys.readouterr().out
        assert "example 0: mismatch" in out
        assert "-" in out and "+" in out  # unified diff markers

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        qp = tmp_path / "q.txt"
        qp.write_text("Match(items, a >")
        assert main(["eval", path, str(qp)]) == 1
        assert "offset" in capsys.readouterr().err

    def test_exponent_size_is_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        qp = tmp_path / "q.txt"
        qp.write_text("Match(items, SizeEq(a, 1e3))")
        assert main(["eval", path, str(qp)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        qp = tmp_path / "q.txt"
        qp.write_bytes(b"Match(items, a > 5)\xff")
        assert main(["eval", path, str(qp)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read query file")

    def test_huge_integer_beside_a_float_is_null(self, tmp_path, capsys):
        db = {"items": [{"a": 10**400, "b": 1.5}]}
        path = write_json(tmp_path / "t.json", {"collection": "items", "examples": [
            {"input": db, "output": [{"a": 10**400, "b": 1.5, "c": None}]}]})
        qp = tmp_path / "q.txt"
        qp.write_text("AddFields(items, [c], [a + b])")
        assert main(["eval", path, str(qp)]) == 0
        assert "example 0: ok" in capsys.readouterr().out

    def test_eval_error_is_reported_per_example(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        qp = tmp_path / "q.txt"
        qp.write_text("Unwind(items, a)")  # a is not an array
        assert main(["eval", path, str(qp)]) == 1
        assert "evaluation failed" in capsys.readouterr().out

    @pytest.mark.parametrize("opener, closer", [("!", ""), ("(", ")")])
    def test_deeply_nested_query_is_input_error(self, tmp_path, capsys, opener, closer):
        # a query nested 1,000 levels deep is a ParseError, not a RecursionError traceback
        pred = "a > 5"
        for _ in range(1000):
            pred = opener + pred + closer
        path = write_json(tmp_path / "t.json", simple_task())
        qp = tmp_path / "q.txt"
        qp.write_text(f"Match(items, {pred})")
        assert main(["eval", path, str(qp)]) == 1
        assert capsys.readouterr().err.startswith("error: query nests deeper than 100 levels")


class TestBenchCommand:
    def make_dir(self, tmp_path, broken=False):
        d = tmp_path / "suite"
        d.mkdir()
        write_json(d / "b_match.json", simple_task())
        ident = {
            "collection": "xs",
            "examples": [{"input": {"xs": [{"v": 1}]}, "output": [{"v": 1}]}],
        }
        write_json(d / "a_ident.json", ident)
        if broken:
            (d / "c_broken.json").write_text("{not json")
        return d

    def test_empty_dir_is_empty_report(self, tmp_path, capsys):
        d = tmp_path / "none"
        d.mkdir()
        assert main(["bench", str(d)]) == 0
        assert "no tasks found" in capsys.readouterr().out

    def test_rows_sorted_by_filename(self, tmp_path, capsys):
        d = self.make_dir(tmp_path)
        assert main(["bench", str(d)]) == 0
        out = capsys.readouterr().out
        assert out.index("a_ident") < out.index("b_match")
        assert "solved 2/2" in out

    def test_broken_task_never_aborts(self, tmp_path, capsys):
        d = self.make_dir(tmp_path, broken=True)
        assert main(["bench", str(d)]) == 0
        captured = capsys.readouterr()
        assert "solved 2/3" in captured.out
        assert "c_broken" in captured.err

    def test_csv_columns(self, tmp_path, capsys):
        d = self.make_dir(tmp_path)
        dest = tmp_path / "report.csv"
        assert main(["bench", str(d), "--csv", str(dest)]) == 0
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "solved", "elapsed_s", "sketches", "completions", "ast_size"]
        assert [r[0] for r in rows[1:]] == ["a_ident", "b_match"]
        assert rows[1][1] == "yes" and rows[2][1] == "yes"

    def test_unwritable_csv_path_is_input_error(self, tmp_path, capsys):
        d = self.make_dir(tmp_path)
        dest = tmp_path / "missing" / "report.csv"
        assert main(["bench", str(d), "--csv", str(dest)]) == 1
        assert f"error: cannot write {dest}: " in capsys.readouterr().err

    def test_aggregate_rows_present(self, tmp_path, capsys):
        d = self.make_dir(tmp_path)
        assert main(["bench", str(d)]) == 0
        out = capsys.readouterr().out
        for label in ("avg", "med", "min", "max"):
            assert label in out

    def test_jobs_flag_keeps_report_order(self, tmp_path, capsys):
        d = self.make_dir(tmp_path)
        assert main(["bench", str(d), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.index("a_ident") < out.index("b_match")
        assert "solved 2/2" in out

    def test_not_a_directory_is_input_error(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "missing")]) == 1
        assert "error:" in capsys.readouterr().err


TASKS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tasks")


class TestBundledTasks:
    def test_reddit_task_loads(self):
        task = load_task(os.path.join(TASKS_DIR, "reddit_posts.json"))
        assert task.collection == "posts"
        assert task.constants == (0, 1)
        assert task.examples[0].input == FORUM_DB

    def test_suite_has_at_least_ten_tasks(self):
        assert len(glob.glob(os.path.join(TASKS_DIR, "*.json"))) >= 10


class FakeMongoClient:
    """Stands in for pymongo.MongoClient. It keeps what the CLI inserts,
    stamps an `_id` on each stored document as a server does, and answers
    `aggregate` by replaying the pipeline with `oracles.replay_pipeline`."""

    def __init__(self, uri, serverSelectionTimeoutMS):
        self.dbs = {}

    def __getitem__(self, name):
        return self.dbs.setdefault(name, FakeDatabase())

    def drop_database(self, name):
        self.dbs.pop(name, None)

    def close(self):
        pass


class FakeDatabase(dict):
    def __missing__(self, name):
        coll = self[name] = FakeCollection(self, name)
        return coll


class FakeCollection:
    def __init__(self, db, name):
        self.db, self.name, self.docs = db, name, []

    def drop(self):
        self.docs = []

    def insert_many(self, docs):
        for d in docs:
            d.setdefault("_id", len(self.docs))
            self.docs.append(d)

    def aggregate(self, pipeline):
        data = {name: [value_to_json(d) for d in coll.docs] for name, coll in self.db.items()}
        return oracles.replay_pipeline(data, self.name, value_to_json(pipeline))


class TestVerifyMongo:
    @pytest.fixture(autouse=True)
    def fake_pymongo(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "pymongo", SimpleNamespace(MongoClient=FakeMongoClient))

    def test_each_example_reports_ok(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--emit", "mongo", "--verify-mongo", "mongodb://h"]) == 0
        assert capsys.readouterr().err == "verify-mongo: example 0: ok\n"

    def test_group_key_document_is_compared_as_is(self, capsys):
        path = os.path.join(TASKS_DIR, "unwind_group_count.json")
        assert main(["synth", path, "--emit", "mongo", "--verify-mongo", "mongodb://h"]) == 0
        out, err = capsys.readouterr()
        assert '{$group: {_id: {tags: "$tags"}, n: {$count: {}}}}' in out
        assert err == "verify-mongo: example 0: ok\n"

    def test_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(FakeCollection, "aggregate", lambda self, pipeline: [])
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--verify-mongo", "mongodb://h"]) == 1
        assert capsys.readouterr().err == "verify-mongo: example 0: mismatch\n"

    def test_missing_pymongo_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "pymongo", None)
        path = write_json(tmp_path / "t.json", simple_task())
        assert main(["synth", path, "--verify-mongo", "mongodb://h"]) == 1
        assert "requires the pymongo package" in capsys.readouterr().err
