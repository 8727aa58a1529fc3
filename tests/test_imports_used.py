"""Every imported name in src/, tests/ and scripts/ is used, and the
oracles import nothing of the package they check.

A name counts as used when the module reads it anywhere (as a name, or as
the base of an attribute chain) or lists it in its `__all__`, which is how
a package re-exports. `from __future__` imports are directives, not names.

`tests/oracles.py` and `perfbench/checker.py` check answers with code that
shares none with what produced them. The oracles' docstring excepts two
test helpers, `skeleton` and `predicates_by_enumeration`; the checker has
no exception.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCANNED = ("src", "tests", "scripts")
ORACLE_EXCEPTIONS = {"skeleton", "predicates_by_enumeration"}


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
