"""Every imported name in src/, tests/ and scripts/ is used, and the
oracles import nothing of the package they check.

A name counts as used when the module reads it anywhere (as a name, or as
the base of an attribute chain) or lists it in its `__all__`, which is how
a package re-exports. `from __future__` imports are directives, not names.

`tests/oracles.py` and `perfbench/checker.py` check answers with code that
shares none with what produced them. The oracles' docstring excepts one
test helper, `predicates_by_enumeration`; the checker has no exception.

A task is built and checked in `taskio` and searched in `synth`, and
neither module imports the other.

Every top-level function, class and assignment of `src/docsynth/*.py` is
read by some module of `src/`, `scripts/` or `perfbench/` outside its own
definition, so no library code lives for its unit tests alone. A name is
read as a name, as an attribute, or in a `from ... import`, which is how
`docsynth/__init__.py` re-exports. Dunders are exempt; nothing else is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCANNED = ("src", "tests", "scripts")
ORACLE_EXCEPTIONS = {"predicates_by_enumeration"}
LIBRARY_READERS = ("src", "scripts", "perfbench")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_unused_imports_are_reported():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\nprint(sys, d)\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def package_imports(source: str) -> list:
    """(line, enclosing top-level function or None) of each import of docsynth."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m == "docsynth" or m.startswith("docsynth.") for m in modules):
                found.append((node.lineno, owner))
    return found


def test_package_imports_are_reported():
    source = "import docsynth.lang\nfrom docsynthx import a\ndef f():\n    from docsynth import b\n"
    assert package_imports(source) == [(1, None), (4, "f")]


def test_oracles_import_nothing_of_the_package():
    oracles = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    checker = (ROOT / "perfbench" / "checker.py").read_text(encoding="utf-8")
    assert [(line, owner) for line, owner in package_imports(oracles)
            if owner not in ORACLE_EXCEPTIONS] == []
    assert package_imports(checker) == []


def package_modules(source: str) -> set:
    """The docsynth modules a module of the package imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level and node.module is None:
                found.update(f"docsynth.{alias.name}" for alias in node.names)
            elif node.level:
                found.add(f"docsynth.{node.module}")
            else:
                found.add(node.module)
    return found


def test_package_modules_are_reported():
    source = "from .synth import a\nfrom . import taskio\nimport docsynth.lang\nfrom os import path\n"
    assert package_modules(source) == {"docsynth.synth", "docsynth.taskio", "docsynth.lang", "os"}


def test_task_and_search_modules_do_not_import_each_other():
    src = ROOT / "src" / "docsynth"
    assert "docsynth.synth" not in package_modules((src / "taskio.py").read_text(encoding="utf-8"))
    assert "docsynth.taskio" not in package_modules((src / "synth.py").read_text(encoding="utf-8"))


def top_level_definitions(tree) -> list:
    """(name, defining statement) of each top-level def, class and assignment."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return found


def names_read(tree, skip=None) -> set:
    """Names `tree` reads, outside the statement `skip`."""
    read = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return read


def unread_definitions(modules: dict) -> list:
    """`module.name` of each top-level definition of a `modules` entry marked
    as library (`(tree, True)`) that no module reads outside its definition."""
    others = {path: names_read(tree) for path, (tree, _) in modules.items()}
    found = []
    for path, (tree, library) in modules.items():
        if not library:
            continue
        for name, node in top_level_definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in names_read(tree, skip=node):
                continue
            if not any(name in read for other, read in others.items() if other != path):
                found.append(f"{Path(path).stem}.{name}")
    return found


def test_unread_definitions_are_reported():
    lib = ast.parse("def f():\n    return f()\ndef g(): pass\nh = 1\n__all__ = []\ndef k(): return g\n")
    user = ast.parse("from lib import k\nimport lib\nlib.h\n")
    assert unread_definitions({"lib.py": (lib, True), "user.py": (user, False)}) == ["lib.f"]


def test_library_definitions_are_read_outside_tests():
    modules = {
        str(path): (ast.parse(path.read_text(encoding="utf-8")), path.parent.name == "docsynth")
        for top in LIBRARY_READERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert unread_definitions(modules) == []
