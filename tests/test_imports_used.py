"""Every imported name in src/, tests/ and scripts/ is used.

A name counts as used when the module reads it anywhere (as a name, or as
the base of an attribute chain) or lists it in its `__all__`, which is how
a package re-exports. `from __future__` imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCANNED = ("src", "tests", "scripts")


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
