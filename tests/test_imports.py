"""Every name a module of the package imports is used in that module, and
every private module-level name of the package is read somewhere in it."""

import ast
from pathlib import Path

import pytest

import lotflow

PACKAGE = sorted(Path(lotflow.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names that ``source`` imports at any depth but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unread_private_names(sources: list) -> list:
    """Private module-level functions, classes and constants of ``sources``
    that no source reads, by name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.update(node.id for target in targets
                               for node in ast.walk(target) if isinstance(node, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nos.sep\nloads\n"
    assert unused_imports(source) == ["d", "math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unread_private_names_are_found():
    sources = ["def _a(): pass\ndef _b(): _a()\n_C, _E = 1, 2\n_E = 3\n"
               "class _D: pass\n__all__ = []\ndef f(): _G = 1\n",
               "import m\nfrom m import _C\nprint(_C, m._F)\n_F = 4\n"]
    assert unread_private_names(sources) == ["_D", "_E", "_b"]


def test_package_reads_every_private_name():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unread_private_names(sources) == []
