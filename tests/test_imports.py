"""No module imports a name it never uses.

Every Python file under ``src/nbhdext``, ``tests`` and ``scripts`` is
parsed with ``ast``.  A name bound by an import must be read somewhere in
its file, as a name, the root of an attribute chain or inside a quoted
annotation.  ``from __future__`` imports and the re-exports of
``__init__.py`` files are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/nbhdext", "tests", "scripts")


def imported_names(tree):
    """(bound name, line) for each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name read in the module, including those of string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def scanned_files():
    files = [p for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))]
    return [p for p in files if p.name != "__init__.py"]


def test_no_module_imports_a_name_it_never_uses():
    files = scanned_files()
    assert len(files) >= 20
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for name, line in unused_imports(path)
    ]
    assert found == []


def test_the_scan_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os, sys as system\n"
        "from typing import Dict, List\n"
        "from __future__ import annotations\n"
        "def f(x: 'Dict[str, int]') -> None:\n"
        "    return os.sep\n"
    )
    assert sorted(name for name, _ in unused_imports(path)) == ["List", "system"]
