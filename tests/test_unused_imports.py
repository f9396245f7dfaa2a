"""Every name a library module or a test file imports is used there.

No linter ships with the project, so this scans the sources with ``ast``.
A name counts as used when it appears as an ``ast.Name`` anywhere in the
file (the root of an attribute chain such as ``np.linalg.solve`` is one) or
is listed in the module's ``__all__``.  ``conekit/__init__.py`` is skipped:
its imports are the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "conekit").glob("*.py")
                 if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno)
                         for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in used]


def test_unused_imports_scan_flags_dead_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy as np\n"
                     "from a.b import c, d as e\n"
                     "__all__ = ['c']\n"
                     "np.linalg.solve(os)\n")
    assert unused_imports(tree) == [("e", 3)]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for name, line in unused_imports(ast.parse(path.read_text()))]
    assert SOURCES and not found, "unused imports:\n" + "\n".join(found)
