"""Import hygiene of the package, checked on its syntax trees.

Every name a module imports must be used in it, and no module imports
another module's private (underscore) name.  ``__init__.py`` is exempt
from the first rule: its imports are the package's exports.  No module
holds an ``assert`` statement: ``python -O`` strips them, and every
check should raise a GaleregError instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "galereg"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    """(line, bound name, imported name, module) of each import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name, alias.name, module


def import_problems(source: str, exports: bool = False):
    """One line per unused import or cross-module private import in ``source``."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for line, bound, name, module in _imports(tree):
        if module is not None and module.startswith(".") and name.startswith("_"):
            out.append(f"line {line}: private {name} imported from {module}")
        if not exports and bound not in used:
            out.append(f"line {line}: {bound} is imported but never used")
    return out


def test_the_check_sees_both_faults():
    source = ("from .quadrangle import _total_degree, regularity_fast\n"
              "from .zlattice import GaleDiagram, Lattice\n"
              "import numpy as np\n"
              "def f(lat: Lattice):\n"
              "    return regularity_fast(lat), _total_degree\n")
    assert import_problems(source) == [
        "line 1: private _total_degree imported from .quadrangle",
        "line 2: GaleDiagram is imported but never used",
        "line 3: np is imported but never used",
    ]
    assert import_problems(source, exports=True) == [
        "line 1: private _total_degree imported from .quadrangle",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used_and_public(path):
    assert import_problems(path.read_text(), exports=path.name == "__init__.py") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
