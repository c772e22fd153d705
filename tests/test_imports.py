"""Every module-level import in the package is used (no linter is installed)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "synnet"


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
