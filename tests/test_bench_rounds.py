"""One round of each analyze workload of the benchmark, run in process.

``galbench/workloads.py`` runs ``galereg analyze`` (and ``--fast``) on
the 170 seeded lattices of a corpus round and checks every answer
against ``galbench/reference.py``.  With a run length of 0 s it stops
after that one round.  A program fault that makes an operation fail,
or an answer the reference checks reject, then fails here rather than
in a benchmark run.  ``sys.path`` is restored afterwards.
"""

import importlib
import sys
from pathlib import Path

import pytest

GALBENCH = Path(__file__).resolve().parents[1] / "galbench"


@pytest.fixture
def workloads():
    saved = list(sys.path)
    sys.path.insert(0, str(GALBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:] = saved


@pytest.mark.parametrize("name", ["analyze", "analyze-fast"])
def test_one_round_of_the_analyze_corpus(workloads, name):
    p = workloads.run(name, 7, 0)
    assert p.attempted == 170
    assert p.failed == 0
    assert p.problems == []
