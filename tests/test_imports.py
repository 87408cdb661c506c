"""No module of the package imports a name it never uses, and only
``config`` indexes the reference file, checked on each module's syntax
tree; and numpy, which only the code that computes with arrays imports,
stays unloaded, each in a fresh process, after importing the package,
after a reference migration and after ``layermig reproduce``, while a
stale-instance migration, which runs the delta engine, loads it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "layermig"
# The package's __init__ imports names to export them, not to use them.
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def quoted_annotation_names(node) -> set[str]:
    """The names of ``node``'s annotation, or return annotation, when it
    is quoted."""
    if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
        note = node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else node.annotation
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            return {n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name)}
    return set()


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
        else:
            read |= quoted_annotation_names(node)
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The ``module._name``s that a module of ``sources`` (module name ->
    source) defines at its top level and that no module reads, sorted.
    A read is a name loaded, an attribute of that name, a name imported
    by ``from`` or a name in a quoted annotation.  Dunder names are not
    private."""
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((name, f"{module}.{name}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            else:
                read |= quoted_annotation_names(node)
    return sorted(where for name, where in defined.items() if name not in read)


def test_checker_finds_unread_private_names():
    sources = {
        "a": "_USED = 1\n_LEFT = 2\n__dunder__ = 3\ndef _helper():\n    return _USED\n"
             "class _Kept: pass\ndef f(x: '_Kept'): pass\ny = '_LEFT'\n",
        "b": "from .a import _helper\nimport a\n_ONLY_SET = 0\n_ONLY_SET = 1\n"
             "print(a._attr_read)\n_attr_read = 4\n",
    }
    assert unread_private_names(sources) == ["a._LEFT", "b._ONLY_SET"]


def test_every_private_name_is_read():
    # A helper that a refactor leaves with no caller fails here.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


REFERENCE_BLOCKS = {"table1", "fig4_stages", "fig5_sweeps"}


def reference_block_reads(source: str) -> list[int]:
    """The lines of ``source`` that subscript, or call ``.get`` with, the
    key of a block of the reference file."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            keys = node.args[:1]
        else:
            continue
        if any(isinstance(key, ast.Constant) and key.value in REFERENCE_BLOCKS for key in keys):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_reference_block_reads():
    source = ('a = reference["table1"]\nb = reference.get("fig4_stages", {}).get("vm")\n'
              'c = ["table1", "fig4", "fig5"]\nd = reference.get("schema")\n'
              'e = {"fig5_sweeps": 1}\nf = reference["fig5_sweeps"]["ram"]\n')
    assert reference_block_reads(source) == [1, 2, 6]


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "config.py"], ids=lambda path: path.name)
def test_only_config_reads_the_reference_file(path):
    # config.read_reference is the one reader of measurements.json;
    # everything else takes its records.
    assert reference_block_reads(path.read_text(encoding="utf-8")) == []


def numpy_loaded_after(script: str) -> bool:
    """Whether ``script``, run in a fresh process, leaves numpy loaded."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = script + "\nimport sys\nprint('numpy' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return {"True": True, "False": False}[done.stdout.split()[-1]]


def test_importing_the_package_leaves_numpy_unloaded():
    # Importing numpy costs a fresh process about 0.13 CPU s and 13 MiB.
    assert not numpy_loaded_after("import layermig\nimport layermig.cli")


# One Table 1 migration as ``layermig reproduce`` runs it, with the
# packaged calibration; it renders no content byte.
REFERENCE_MIGRATION = """
import json
from importlib import resources
import layermig
from layermig.calibrate import load_calibration, reference_scenario
from layermig.config import read_reference
from layermig.workloads import derive_seed, stable_index
ref = resources.files("layermig").joinpath("reference")
calibration = load_calibration(json.loads(ref.joinpath("calibration_default.json").read_text(
    encoding="utf-8")))
records, _ = read_reference(json.loads(ref.joinpath("measurements.json").read_text(
    encoding="utf-8")))
for record in records:
    if (record.figure, record.profile, record.configuration, record.metric) == (
            "table1", "RAM Simulation", "three_layer_app_found", "total_s"):
        seed = derive_seed(1, stable_index(record.profile))
        scenario = reference_scenario(record, layermig.profile_by_name("RAM Simulation"),
                                      calibration, seed, 1.0)
        layermig.run_migration(scenario)
"""


def test_a_reference_migration_leaves_numpy_unloaded():
    # Only rendering content, churning memory and fitting need numpy.
    assert not numpy_loaded_after(REFERENCE_MIGRATION)


def test_reproduce_leaves_numpy_unloaded(tmp_path):
    assert not numpy_loaded_after(
        "import layermig.cli\n"
        f"layermig.cli.main(['reproduce', '--target', 'table1', '--out-dir', {str(tmp_path)!r}])")


# A small migration onto a stale instance: it churns memory and runs the
# delta engine, which compute with arrays.
STALE_MIGRATION = """
import layermig
spec = layermig.container_spec()
layermig.run_migration(layermig.MigrationScenario(
    guest_spec=spec, profile=layermig.profile_by_name("RAM Simulation"),
    mode=layermig.MigrationMode.THREE_LAYER,
    destination=layermig.DestinationState(has_base=True, has_app=True, has_stale_instance=True),
    link=layermig.LinkSpec(bandwidth_bps=1e8),
    cost_model=layermig.default_cost_model(spec.virtualization), scale=0.005))
"""


def test_a_stale_instance_migration_loads_numpy():
    # The control: the probe does see numpy where the program needs it.
    assert numpy_loaded_after(STALE_MIGRATION)
