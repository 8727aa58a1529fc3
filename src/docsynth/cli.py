"""Command-line front end: synth, eval, and bench subcommands.

Exit codes for synth: 0 synthesis succeeded, 2 timed out, 3 search space
exhausted, 1 bad input (task file, flags). eval exits 0 only when the query
reproduces every example output. bench always exits 0 unless the task
directory itself is unusable.

The DOCSYNTH_LOG environment variable (error, info, trace) controls log
verbosity on stderr; the default is error.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import logging
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .errors import DocsynthError, EvalError, TaskError
from .interp import eval_query
from .lang import Group
from .mongo import optimize, render_shell, translate
from .synth import SynthesisConfig, synthesize
from .taskio import load_task
from .text import parse_query, render_query
from .values import collection_eq, value_to_json

log = logging.getLogger("docsynth")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "trace": logging.DEBUG}


def _configure_logging():
    name = os.environ.get("DOCSYNTH_LOG", "error").lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        print(f"warning: unknown DOCSYNTH_LOG level {name!r}, using error", file=sys.stderr)
        level = logging.ERROR
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _config_from_args(args) -> SynthesisConfig:
    return SynthesisConfig(
        timeout_seconds=args.timeout,
        max_pipeline_depth=args.max_depth,
        max_group_keys=args.max_group_keys,
        disable_size_abstraction=args.no_size_abstraction,
        disable_type_abstraction=args.no_type_abstraction,
    )


_STATUS_EXIT = {"success": 0, "timeout": 2, "exhausted": 3}


def cmd_synth(args) -> int:
    task = load_task(args.task)
    cfg = _config_from_args(args)

    trace_cb = None
    if args.trace:
        def trace_cb(sk, feasible):
            ops = " ".join(sk.ops) if sk.ops else "(bare)"
            print(f"trace: {sk.collection}[{ops}] {'feasible' if feasible else 'pruned'}", file=sys.stderr)

    result = synthesize(task, cfg, trace=trace_cb)
    stats = result.stats
    stats_line = (
        f"status={result.status}"
        f" sketches={stats['sketchesExplored']}"
        f" completions={stats['programsCompleted']}"
        f" prefix_pruned={stats['prefixesPruned']}"
        f" reused={stats['statesReused']}"
        f" ast={stats['astSize']}"
        f" elapsed={stats['elapsedSeconds']:.2f}s"
    )

    if result.status != "success":
        print(stats_line)
        return _STATUS_EXIT[result.status]

    parts = []
    if args.emit in ("dsl", "both"):
        parts.append(render_query(result.query))
    if args.emit in ("mongo", "both"):
        coll, pipeline = translate(result.query)
        parts.append(render_shell(coll, optimize(pipeline)))
    text = "\n\n".join(parts) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    print(stats_line)

    if args.verify_mongo:
        ok = _verify_mongo(args.verify_mongo, task, result.query)
        if not ok:
            return 1
    return 0


def _diff(expected, actual) -> str:
    want = json.dumps([value_to_json(d) for d in expected], indent=2, default=str).splitlines()
    got = json.dumps([value_to_json(d) for d in actual], indent=2, default=str).splitlines()
    return "\n".join(difflib.unified_diff(want, got, fromfile="expected", tofile="actual", lineterm=""))


def cmd_eval(args) -> int:
    task = load_task(args.task)
    try:
        with open(args.query, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as e:
        raise TaskError(f"cannot read query file {args.query}: {e.strerror or e}") from None
    query = parse_query(source)

    failures = 0
    for i, ex in enumerate(task.examples):
        try:
            actual = eval_query(ex.input, query)
        except EvalError as e:
            print(f"example {i}: evaluation failed: {e}")
            failures += 1
            continue
        if collection_eq(actual, ex.output):
            print(f"example {i}: ok")
        else:
            print(f"example {i}: mismatch")
            print(_diff(ex.output, actual))
            failures += 1
    return 0 if failures == 0 else 1


# --- bench ------------------------------------------------------------------

_BENCH_COLUMNS = ("name", "solved", "elapsed_s", "sketches", "completions", "ast_size")


def _bench_one(path, cfg: SynthesisConfig) -> dict:
    name = os.path.splitext(os.path.basename(path))[0]
    row = {"name": name, "solved": False, "elapsed_s": 0.0, "sketches": 0, "completions": 0, "ast_size": 0}
    start = time.monotonic()
    try:
        task = load_task(path)
        result = synthesize(task, cfg)
    except Exception as e:  # a broken task must not sink the whole run
        row["elapsed_s"] = time.monotonic() - start
        row["error"] = str(e) or type(e).__name__
        return row
    stats = result.stats
    row.update(
        solved=result.status == "success",
        elapsed_s=stats["elapsedSeconds"],
        sketches=stats["sketchesExplored"],
        completions=stats["programsCompleted"],
        ast_size=stats["astSize"],
    )
    return row


def _aggregate(rows) -> list:
    solved = [r for r in rows if r["solved"]]
    out = []
    for label, fn in (("avg", statistics.fmean), ("med", statistics.median), ("min", min), ("max", max)):
        agg = {"name": label, "solved": ""}
        for col in ("elapsed_s", "sketches", "completions", "ast_size"):
            agg[col] = fn([r[col] for r in solved]) if solved else ""
        out.append(agg)
    return out


def _format_cell(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def _print_table(rows):
    cells = [[_format_cell(r.get(c, "")) for c in _BENCH_COLUMNS] for r in rows]
    widths = [
        max([len(col)] + [len(row[i]) for row in cells])
        for i, col in enumerate(_BENCH_COLUMNS)
    ]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(_BENCH_COLUMNS))
    print(header)
    print("-" * len(header))
    for row in cells:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def cmd_bench(args) -> int:
    if not os.path.isdir(args.dir):
        raise TaskError(f"not a directory: {args.dir}")
    paths = sorted(
        os.path.join(args.dir, n) for n in os.listdir(args.dir) if n.endswith(".json")
    )
    cfg = _config_from_args(args)

    if args.jobs > 1 and len(paths) > 1:
        # pool.map keeps input order, so the report stays stable under -j
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_one, paths, [cfg] * len(paths)))
    else:
        rows = [_bench_one(p, cfg) for p in paths]

    for row in rows:
        if "error" in row:
            print(f"warning: {row['name']}: {row['error']}", file=sys.stderr)

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_BENCH_COLUMNS)
            for r in rows:
                writer.writerow([_format_cell(r[c]) for c in _BENCH_COLUMNS])

    if not rows:
        print("no tasks found")
        return 0

    _print_table(rows + _aggregate(rows))
    n_solved = sum(1 for r in rows if r["solved"])
    print(f"solved {n_solved}/{len(rows)}")
    return 0


# --- optional live verification ----------------------------------------------

def rewrap_group_ids(docs, key_name):
    """Undo the translator's single-key _id flattening so live pipeline
    results compare against example outputs, which keep the key document."""
    out = []
    for d in docs:
        if "_id" in d and not isinstance(d["_id"], dict):
            d = dict(d)
            d["_id"] = {key_name: d["_id"]}
        out.append(d)
    return out


def _last_single_group_key(query):
    key = None
    q = query
    while hasattr(q, "source"):
        if isinstance(q, Group) and len(q.keys) == 1 and key is None:
            key = q.keys[0][-1]
        q = q.source
    return key


def _verify_mongo(uri, task, query) -> bool:
    try:
        import pymongo
    except ImportError:
        raise TaskError("--verify-mongo requires the pymongo package") from None

    coll, pipeline = translate(query)
    pipeline = optimize(pipeline)
    has_group = any("$group" in stage for stage in pipeline)
    key_name = _last_single_group_key(query)
    client = pymongo.MongoClient(uri, serverSelectionTimeoutMS=5000)
    dbname = "docsynth_verify"
    ok = True
    try:
        for i, ex in enumerate(task.examples):
            db = client[dbname]
            for name, docs in ex.input.items():
                db[name].drop()
                if docs:
                    db[name].insert_many([dict(d) for d in docs])
            got = list(db[coll].aggregate(pipeline))
            # insert_many stamps an _id on every stored document; drop it
            # from results unless the expected output actually carries one
            if not any("_id" in d for d in ex.output):
                got = [{k: v for k, v in d.items() if k != "_id"} for d in got]
            elif key_name is not None:
                got = rewrap_group_ids(got, key_name)
            if has_group:
                matches = sorted(map(_canon, got)) == sorted(map(_canon, ex.output))
            else:
                matches = list(map(_canon, got)) == list(map(_canon, ex.output))
            if not matches:
                print(f"verify-mongo: example {i}: mismatch", file=sys.stderr)
                ok = False
            else:
                log.info("verify-mongo: example %d ok", i)
    finally:
        client.drop_database(dbname)
        client.close()
    return ok


def _canon(doc):
    try:
        doc = value_to_json(doc)
    except DocsynthError:
        pass
    return json.dumps(doc, sort_keys=True, default=str)


# --- entry point --------------------------------------------------------------

def _add_synth_flags(p):
    default = SynthesisConfig()
    p.add_argument("--timeout", type=float, default=default.timeout_seconds, metavar="SECONDS")
    p.add_argument("--max-depth", type=int, default=default.max_pipeline_depth, metavar="N")
    p.add_argument("--max-group-keys", type=int, default=default.max_group_keys, metavar="N")
    p.add_argument("--no-size-abstraction", action="store_true")
    p.add_argument("--no-type-abstraction", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="docsynth", description="Synthesize aggregation queries from examples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a query from a task file")
    p.add_argument("task", help="path to a task JSON file")
    _add_synth_flags(p)
    p.add_argument("--emit", choices=("dsl", "mongo", "both"), default="both")
    p.add_argument("--out", metavar="PATH", help="write emitted artifacts to a file")
    p.add_argument("--trace", action="store_true", help="log every explored sketch to stderr")
    p.add_argument("--verify-mongo", metavar="URI", help="replay the pipeline on a live server")
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("eval", help="run a query against a task's examples")
    p.add_argument("task", help="path to a task JSON file")
    p.add_argument("query", help="path to a query text file")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("bench", help="synthesize every task in a directory")
    p.add_argument("dir", help="directory of task JSON files")
    _add_synth_flags(p)
    p.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    p.add_argument("--jobs", type=int, default=1, metavar="N")
    p.set_defaults(run=cmd_bench)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except DocsynthError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
