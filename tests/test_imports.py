"""No module of the package imports a name it never uses.  Standard
library only: each module's syntax tree, its imports against its names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "layermig"
# The package's __init__ imports names to export them, not to use them.
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads, sorted.  A
    name read only inside a quoted annotation counts as read."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))
    return sorted(imported - read)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from itertools import chain, repeat\nimport os.path\n"
              "def f(x: 'Quoted') -> np.ndarray:\n    return chain(x)\n")
    assert unused_imports(source) == ["os", "repeat"]
    assert unused_imports("from typing import Quoted\n" + source) == ["os", "repeat"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
