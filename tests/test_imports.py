"""No module of the package imports a name it never uses, checked on
each module's syntax tree; and a reference migration imports no
module it does not need."""

import ast
import os
import subprocess
import sys
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


# One Table 1 migration as ``layermig reproduce`` runs it, with the
# packaged calibration; it renders no content byte.
REFERENCE_MIGRATION = """
import json, sys
from importlib import resources
import layermig
from layermig.calibrate import load_calibration
from layermig.cli import _reference_scenario
ref = resources.files("layermig").joinpath("reference", "calibration_default.json")
calibration = load_calibration(json.loads(ref.read_text(encoding="utf-8")))
for kind in layermig.Virtualization:
    scenario = _reference_scenario(kind, layermig.profile_by_name("RAM Simulation"),
                                   "three_layer_app_found", calibration, seed_base=1, scale=1.0)
    layermig.run_migration(scenario)
print("numpy.random" in sys.modules)
"""


def test_a_reference_migration_leaves_numpy_random_unloaded():
    # Importing numpy.random costs a fresh process about 14 ms and 6 MB;
    # only rendering content, or churning memory, needs it.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", REFERENCE_MIGRATION], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["False"]
