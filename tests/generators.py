"""Random (database, query) pair generation for property tests.

The generator deliberately stays inside the fragment where deduction is
exact and the completer's candidate grammar can express the query:

  - attribute names are globally unique per pair and never "_id"
  - unwound array paths are present and non-empty in every document
  - every Group stage merges something (strictly fewer rows out than in)
    and produces at least two groups; keys are top-level attributes the
    query itself did not mint (added fields, join arrays and earlier
    aggregates live behind placeholders, where grouping cannot see them,
    and deduction's Group step builds key documents from top-level
    attributes only, so the type half prunes a spine whose Group needs a
    nested key); accumulator arguments are top-level numeric attributes
    present in every document; aggregate names are fresh
  - Project appears only as the final stage and keeps only paths present
    in every document
  - AddFields writes fresh top-level attributes with total expressions
    (no division or modulus, so no null results); deduction's AddFields
    step adds a top-level placeholder only, so the type half prunes a
    spine whose AddFields writes a nested path
  - predicates are single atoms whose constants are recorded on the task
  - no stage result leaves an array attribute empty in every document
    (such an attribute has no inferable element type, so output typing
    drops it and whatever produced it looks unprovable)
  - no filter erases an optional attribute from every surviving document
    (the filtered type is the unfiltered one, so every attribute it names
    must stay witnessed)

Pairs from here are the ones the safety properties quantify over. The
size half follows the interpreter's per-kind images, so it admits Unwind
over empty or absent arrays and Group over an empty example; two such
tasks are pinned in `tests/test_synth.py::TestSizeFlagIndependence`, and
widening this fragment to them is still open.
"""

import random
import string

from docsynth.interp import apply_stage, eval_query
from docsynth.lang import (
    AddFields, Arith, Avg, Cmp, CollectionRef, Count, Exists, FnCall, Group,
    Lookup, Match, Max, Min, PathExpr, Project, SizeEq, Sum, Unwind,
)
from docsynth.taskio import Example, SynthesisTask
from docsynth.values import get_path, kind_of, ABSENT


class _Namer:
    def __init__(self):
        self.n = 0

    def fresh(self, tag="f"):
        self.n += 1
        return f"{tag}{self.n}"


def _rand_str(rng):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def gen_db(rng, namer, tiny=False):
    """A one- or two-collection database with a known field inventory.

    Returns (db, info) where info records, for the main collection:
    num_fields, str_fields, opt_fields (present in only some documents),
    unwind_arrays (doc-element arrays, non-empty everywhere), and the
    foreign collection's join data when present.
    """
    n_docs = rng.randint(1, 3) if tiny else rng.randint(3, 6)
    num_fields = [namer.fresh("n") for _ in range(1 if tiny else rng.randint(1, 2))]
    str_fields = [namer.fresh("s") for _ in range(rng.randint(0, 1))]
    opt_fields = [] if tiny else [namer.fresh("o") for _ in range(rng.randint(0, 1))]
    unwind_arrays = []
    nested = None
    if not tiny:
        if rng.random() < 0.6:
            leaf = namer.fresh("v")
            unwind_arrays.append((namer.fresh("arr"), leaf))
        if rng.random() < 0.3:
            nested = (namer.fresh("d"), namer.fresh("x"), namer.fresh("y"))

    docs = []
    for i in range(n_docs):
        d = {}
        for f in num_fields:
            d[f] = rng.randint(0, 9)
        for f in str_fields:
            d[f] = _rand_str(rng)
        for f in opt_fields:
            # keep the field inferable: the first document always has it
            if i == 0 or rng.random() < 0.6:
                d[f] = rng.randint(0, 9)
        for arr, leaf in unwind_arrays:
            d[arr] = [{leaf: rng.randint(0, 9)} for _ in range(rng.randint(1, 3))]
        if nested:
            dn, dx, dy = nested
            d[dn] = {dx: rng.randint(0, 9), dy: _rand_str(rng)}
        docs.append(d)

    coll = namer.fresh("c")
    db = {coll: docs}
    foreign = None
    if not tiny and rng.random() < 0.4:
        fcoll = namer.fresh("c")
        fkey = namer.fresh("k")
        fval = namer.fresh("w")
        db[fcoll] = [{fkey: rng.randint(0, 9), fval: _rand_str(rng)} for _ in range(rng.randint(1, 3))]
        foreign = (fcoll, fkey)

    info = {
        "coll": coll,
        "num_fields": num_fields,
        "str_fields": str_fields,
        "opt_fields": opt_fields,
        "unwind_arrays": list(unwind_arrays),
        "nested": nested,
        "foreign": foreign,
    }
    return db, info


def _present_paths(docs):
    """Top-level and one-level-nested paths present in every document."""
    if not docs:
        return []
    paths = []
    for name, v in docs[0].items():
        if all(name in d for d in docs):
            paths.append((name,))
            if all(kind_of(d.get(name)) == "doc" for d in docs):
                for sub in docs[0][name]:
                    if all(sub in d[name] for d in docs):
                        paths.append((name, sub))
    return paths


def _paths_of_kind(docs, kind):
    out = []
    for p in _present_paths(docs):
        vals = [get_path(d, p) for d in docs]
        if all(v is not ABSENT and kind_of(v) == kind for v in vals):
            out.append(p)
    return out


def _gen_match_stage(rng, docs, constants):
    choices = []
    num_paths = _paths_of_kind(docs, "num")
    if num_paths:
        choices.append("cmp")
    optional = [
        (name,)
        for name in {k for d in docs for k in d}
        if not all(name in d for d in docs)
    ]
    if optional:
        choices.append("exists")
    arr_paths = _paths_of_kind(docs, "array")
    if arr_paths:
        choices.append("sizeeq")
    if not choices:
        return None
    kind = rng.choice(choices)
    if kind == "cmp":
        p = rng.choice(num_paths)
        c = rng.choice([get_path(d, p) for d in docs])
        constants.append(c)
        return Match(None, Cmp(p, rng.choice(("=", "<", "<=", ">", ">=", "!=")), c))
    if kind == "exists":
        return Match(None, Exists(rng.choice(sorted(optional))))
    p = rng.choice(arr_paths)
    n = len(get_path(rng.choice(docs), p))
    constants.append(n)
    return Match(None, SizeEq(p, n))


def _gen_add_fields_stage(rng, docs, namer):
    num_paths = [p for p in _paths_of_kind(docs, "num")]
    str_paths = [p for p in _paths_of_kind(docs, "str")]
    target = (namer.fresh("t"),)
    options = []
    if num_paths:
        options.append(lambda: PathExpr(rng.choice(num_paths)))
        options.append(lambda: Arith(rng.choice(num_paths), rng.choice("+-*"), rng.choice(num_paths)))
        options.append(lambda: FnCall(rng.choice(("abs", "floor", "ceil")), rng.choice(num_paths)))
    if str_paths:
        options.append(lambda: PathExpr(rng.choice(str_paths)))
    if not options:
        return None
    return AddFields(None, (target,), (rng.choice(options)(),))


def _gen_group_stage(rng, docs, namer, synthetic):
    # keys behind a placeholder (earlier aggregates, added fields, join
    # attrs) are invisible to abstract grouping, so never key on them
    keys_pool = [p for p in _present_paths(docs) if len(p) == 1
                 and p[0] not in synthetic
                 and all(kind_of(get_path(d, p)) in ("num", "str", "bool") for d in docs)]
    if not keys_pool:
        return None
    num_paths = [p for p in _paths_of_kind(docs, "num") if len(p) == 1]
    rng.shuffle(keys_pool)
    for size in (1, 2):
        if len(keys_pool) < size:
            continue
        keys = tuple(sorted(keys_pool[:size]))
        partitions = {tuple(str(get_path(d, k)) for k in keys) for d in docs}
        # a Group candidate must merge something (synth._gen_group), so the pair must too
        if 2 <= len(partitions) < len(docs):
            aggs = []
            names = []
            for _ in range(rng.randint(1, 2)):
                name = namer.fresh("g")
                make = rng.choice([lambda: Count()] + (
                    [lambda: rng.choice((Sum, Min, Max, Avg))(rng.choice(num_paths))] if num_paths else []
                ))
                names.append(name)
                aggs.append(make())
            return Group(None, keys, tuple(names), tuple(aggs))
    return None


def gen_query(rng, db, info, namer, max_depth=4, constants=None, for_synthesis=False):
    """Build a query stage by stage, evaluating as it goes.

    Returns (query, output, constants). When for_synthesis is true the
    final output is guaranteed non-empty and stages that a completer
    cannot reproduce mid-pipeline (Project anywhere but last) are skipped.
    """
    if constants is None:
        constants = []
    coll = info["coll"]
    query = CollectionRef(coll)
    docs = list(db[coll])
    depth = rng.randint(0, max_depth)
    used_products = False  # an AddFields/Group/Lookup product is in flight
    grouped = False
    synthetic = set()  # attribute names minted mid-query

    for _ in range(depth):
        if not docs:
            break
        if for_synthesis and grouped:
            # post-group stages a completer can always re-derive
            tags = ["match"]
        else:
            tags = ["match", "add_fields"]
            if info["unwind_arrays"]:
                tags.append("unwind")
            if info["foreign"] and not used_products:
                tags.append("lookup")
            if not (for_synthesis and used_products):
                tags.append("group")
        tag = rng.choice(tags)
        stage = None
        if tag == "match":
            stage = _gen_match_stage(rng, docs, constants)
        elif tag == "add_fields":
            stage = _gen_add_fields_stage(rng, docs, namer)
        elif tag == "unwind":
            candidates = [
                (arr,) for arr, _leaf in info["unwind_arrays"]
                if all(isinstance(get_path(d, (arr,)), list) and get_path(d, (arr,)) for d in docs)
            ]
            if candidates:
                stage = Unwind(None, rng.choice(candidates))
        elif tag == "lookup":
            fcoll, fkey = info["foreign"]
            local_nums = [p for p in _paths_of_kind(docs, "num") if len(p) == 1]
            if local_nums:
                stage = Lookup(None, rng.choice(local_nums), (fkey,), fcoll, namer.fresh("j"))
        elif tag == "group":
            stage = _gen_group_stage(rng, docs, namer, synthetic)
        if stage is None:
            continue
        candidate = _rebind(stage, query)
        after = apply_stage(db, docs, candidate)
        if for_synthesis and isinstance(stage, Match) and not after:
            continue
        if after and isinstance(stage, Match) and _attr_paths(after) != _attr_paths(docs):
            # a filter leaves the document type alone, so one that erases
            # an optional attribute from every survivor puts the output
            # type out of reach of it
            continue
        if _has_blind_arrays(after):
            # an array attribute empty in every document has no inferable
            # element type, so output typing drops it and the stage that
            # made it (a missed join, a size-0 filter) becomes invisible
            continue
        query, docs = candidate, after
        if isinstance(stage, AddFields):
            used_products = True
            synthetic.update(p[0] for p in stage.paths)
        elif isinstance(stage, Lookup):
            used_products = True
            synthetic.add(stage.as_attr)
        elif isinstance(stage, Group):
            used_products = True
            grouped = True
            synthetic.update(stage.names)
            synthetic.add("_id")

    if docs and not used_products and rng.random() < 0.4:
        paths = _present_paths(docs)
        if paths:
            keep = tuple(sorted(rng.sample(paths, rng.randint(1, len(paths)))))
            keep = _prune_overlapping(keep)
            query = Project(query, keep)
            docs = apply_stage(db, docs, query)

    if for_synthesis and not docs:
        query = CollectionRef(coll)
        docs = list(db[coll])
    return query, docs, constants


def _attr_paths(docs):
    """Every attribute path witnessed by at least one document."""
    paths = set()

    def scan(prefix, doc):
        for name, v in doc.items():
            p = prefix + (name,)
            paths.add(p)
            k = kind_of(v)
            if k == "doc":
                scan(p, v)
            elif k == "array":
                for elem in v:
                    if kind_of(elem) == "doc":
                        scan(p, elem)

    for d in docs:
        scan((), d)
    return paths


def _has_blind_arrays(docs):
    """Whether some array attribute is empty in every document."""
    seen = {}

    def scan(prefix, doc):
        for name, v in doc.items():
            k = kind_of(v)
            if k == "array":
                p = prefix + (name,)
                seen[p] = seen.get(p, False) or bool(v)
                for elem in v:
                    if kind_of(elem) == "doc":
                        scan(p, elem)
            elif k == "doc":
                scan(prefix + (name,), v)

    for d in docs:
        scan((), d)
    return any(not ok for ok in seen.values())


def _prune_overlapping(paths):
    """Drop any path that is an ancestor of another kept path."""
    keep = []
    for p in paths:
        if not any(q != p and q[: len(p)] == p for q in paths):
            keep.append(p)
    return tuple(keep)


def _rebind(stage, source):
    import dataclasses

    return dataclasses.replace(stage, source=source)


def gen_pair(seed, max_depth=4, tiny=False, for_synthesis=False):
    """One (db, collection, query, output, constants) tuple."""
    rng = random.Random(seed)
    namer = _Namer()
    db, info = gen_db(rng, namer, tiny=tiny)
    query, output, constants = gen_query(
        rng, db, info, namer, max_depth=max_depth, for_synthesis=for_synthesis
    )
    assert output == eval_query(db, query)
    return db, info["coll"], query, output, constants


def task_of(seed, **kw):
    """The one-example task of `gen_pair(seed, **kw)`, its schema inferred, with its query and output."""
    db, coll, query, output, constants = gen_pair(seed, **kw)
    task = SynthesisTask(None, coll, (Example(db, output),), tuple(dict.fromkeys(constants)))
    return task, query, output
