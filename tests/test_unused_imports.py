"""Every name a library module or a test file imports is used there, and
every private library helper is referenced somewhere in the library.

No linter ships with the project, so this scans the sources with ``ast``.
A name counts as used when it appears as an ``ast.Name`` anywhere in the
file (the root of an attribute chain such as ``np.linalg.solve`` is one) or
is listed in the module's ``__all__``.  ``conekit/__init__.py`` is skipped:
its imports are the package's exports.  A module-level ``def _x`` or
``class _X`` counts as referenced when some library module names it as an
``ast.Name``, an attribute or an import alias; tests do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "conekit").glob("*.py")
                 if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))
LIBRARY = sorted((ROOT / "src" / "conekit").glob("*.py"))


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


def unreferenced_private_helpers(trees: dict) -> list[tuple[str, str, int]]:
    """(label, name, line) of module-level private functions and classes
    that no tree in ``trees`` (label -> ast.Module) references."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
                referenced.add(node.name)
    return [(label, node.name, node.lineno)
            for label, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]


def test_private_helper_scan_flags_dead_helpers():
    trees = {"a": ast.parse("def _imported(): pass\n"
                            "def _dead(): pass\n"
                            "class _Attr: pass\n"
                            "def __getattr__(name): pass\n"
                            "def _called(): pass\n"
                            "_called()\n"),
             "b": ast.parse("from a import _imported as f\n"
                            "import a\n"
                            "a._Attr\n")}
    assert unreferenced_private_helpers(trees) == [("a", "_dead", 2)]


def test_no_unreferenced_private_helpers():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text())
             for p in LIBRARY}
    found = [f"{label}:{line}: {name}"
             for label, name, line in unreferenced_private_helpers(trees)]
    assert trees and not found, "unreferenced helpers:\n" + "\n".join(found)
