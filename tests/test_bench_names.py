"""Every package name the benchmark under ``galbench/`` reaches exists.

The tracer wraps the functions its ``GROUPS`` table names, and the
workloads call the package through module aliases (``fh.fiber_of``).
Both are read from the syntax trees, without importing ``galbench``, so
deleting or renaming a name the benchmark uses fails here rather than
in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

GALBENCH = Path(__file__).resolve().parents[1] / "galbench"


def traced_names(source: str):
    """(module, function) for each function in the tracer's GROUPS table."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GROUPS" for t in node.targets):
            groups = ast.literal_eval(node.value)
            return sorted({(module, name) for module, names in groups.values() for name in names})
    raise AssertionError("no GROUPS table in the tracer")


def aliased_names(source: str):
    """(module, attribute) for each ``alias.attribute`` on a galereg module alias."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "galereg":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"galereg.{alias.name}"
    return sorted({(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in aliases})


def test_the_readers_see_both_tables():
    tracer = 'GROUPS = {"g": ("galereg.fiberhom", ("fiber_of", "polygon_of"))}\n'
    assert traced_names(tracer) == [("galereg.fiberhom", "fiber_of"), ("galereg.fiberhom", "polygon_of")]
    workloads = ("from galereg import fiberhom as fh\n"
                 "from galereg import cli\n"
                 "import json\n"
                 "x = fh.hilbert_degree(lat), cli.main([]), json.dumps(1)\n")
    assert aliased_names(workloads) == [("galereg.cli", "main"), ("galereg.fiberhom", "hilbert_degree")]


NAMES = sorted(set(traced_names((GALBENCH / "tracer.py").read_text()))
               | set(aliased_names((GALBENCH / "workloads.py").read_text())))


def test_the_benchmark_reaches_every_module():
    modules = {module for module, _ in NAMES}
    assert {"galereg.classify", "galereg.cli", "galereg.fiberhom", "galereg.intlinalg",
            "galereg.quadrangle", "galereg.reduction", "galereg.searches",
            "galereg.zlattice"} <= modules


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_benchmark_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
