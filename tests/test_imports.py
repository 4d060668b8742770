"""No module imports a name it never uses, and the engine's layers import downward.

Every Python file under ``src/nbhdext``, ``tests`` and ``scripts`` is
parsed with ``ast``.  A name bound by an import must be read somewhere in
its file, as a name, the root of an attribute chain or inside a quoted
annotation.  ``from __future__`` imports and the re-exports of
``__init__.py`` files are skipped.

Within ``src/nbhdext``, only ``cli`` imports the two labs, ``formal`` and
``mclift``, the labs import only ``errors`` and the kernel modules
``filtered``, ``laurent`` and ``linsolve``, and the kernel modules import
neither ``cech`` nor ``scenarios``.
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


def engine_imports(tree):
    """The short names of the ``nbhdext`` modules a parsed module imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("nbhdext.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "nbhdext":
                    continue
                module = module.partition(".")[2]
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return found


LABS = {"formal", "mclift"}
KERNEL = {"filtered", "laurent", "linsolve"}
LAB_IMPORTS = KERNEL | {"errors"}


def test_only_the_command_line_imports_the_labs_and_the_kernel_imports_downward():
    imports = {
        path.stem: engine_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src/nbhdext").glob("*.py"))
    }
    assert {"cli", "cech", "scenarios"} | LABS | KERNEL <= set(imports)
    assert imports["cli"] >= LABS
    lab_importers = {m: sorted(i & LABS) for m, i in imports.items() if m != "cli" and i & LABS}
    assert lab_importers == {}
    upward = {m: sorted(imports[m] & {"cech", "scenarios"}) for m in sorted(KERNEL)}
    assert upward == {m: [] for m in sorted(KERNEL)}
    lab_upward = {m: sorted(imports[m] - LAB_IMPORTS) for m in sorted(LABS)}
    assert lab_upward == {m: [] for m in sorted(LABS)}


def test_the_layer_scan_sees_every_import_form():
    tree = ast.parse(
        "import os, nbhdext.cech\n"
        "from . import formal, __version__\n"
        "from .laurent import exact\n"
        "from nbhdext.mclift import is_mc\n"
        "from nbhdext import scenarios\n"
        "from fractions import Fraction\n"
        "def f():\n"
        "    from .linsolve import PolyMatrix\n"
    )
    assert engine_imports(tree) == {
        "cech", "formal", "__version__", "laurent", "mclift", "scenarios", "linsolve"}
