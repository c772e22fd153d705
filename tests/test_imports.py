"""Every module-level import in the package and its tests is used, and every
module-level private helper is read somewhere in the package (no linter is
installed)."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "synnet"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name listed in a module-level `__all__` counts as read (re-export).
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_detector_flags_unused_and_passes_used():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\n"
           "from dataclasses import dataclass, field\n"
           "from .tensor import DTYPES\n"
           "__all__ = ['DTYPES']\n"
           "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(src) == ["line 2: os", "line 4: field"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list[str]:
    """Module-level private functions, classes and constants that no module
    of `sources` (module name -> source text) reads.

    A name counts as read where it is loaded (`_x`), taken as an attribute
    (`mod._x`) or imported (`from .mod import _x`), outside the statement
    that defines it, so a helper that only calls itself is unread. Dunder
    names are skipped.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = {stmt.target.id}
            else:
                names = set()
            defined += [(module, stmt.lineno, name) for name in sorted(names)
                        if name.startswith("_") and not name.startswith("__")]
            seen = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    seen |= {alias.name for alias in node.names}
            read |= seen - names
    return [f"{module} line {line}: {name}"
            for module, line, name in defined if name not in read]


def test_private_detector_flags_unread_and_passes_read():
    a = ("import numpy as np\n"
         "_SCALE = 2.0\n_DEAD = 3\n__all__ = ['f']\n"
         "def _local():\n    return _SCALE\n"
         "def _imported():\n    pass\n"
         "def _by_attribute():\n    pass\n"
         "def _dead(x):\n    _unused_local = x\n    return _dead(x)\n"
         "class _Dead:\n    pass\n"
         "def f():\n    return _local()\n")
    b = ("from .a import _imported\nfrom . import a\n"
         "def g():\n    return _imported, a._by_attribute\n")
    assert unread_private_names({"a": a, "b": b}) == [
        "a line 3: _DEAD", "a line 11: _dead", "a line 14: _Dead"]


def test_no_unread_module_level_private_helpers():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
