"""The benchmark's tracer runs over the package and reads its results.

``galbench/tracer.py`` wraps the public functions of every module, and
its hooks read call arguments and results: the rows handed to
``mat_rank`` and the horizon of the oracle's table.  One traced
``analyze``, one ``analyze --fast`` and one curve span exercise every
hook the package reaches, so a changed argument or return shape fails
here rather than in a traced benchmark run.  The module bindings the
tracer replaces are restored afterwards.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import galereg.cli
import galereg.fiberhom as fiberhom
import galereg.searches  # noqa: F401  (loaded before the bindings are saved: the tracer wraps it too)
from galereg.intlinalg import integer_kernel

TRACER = Path(__file__).resolve().parents[1] / "galbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("galbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_feed_every_layer_metric(capsys):
    tracing = load_tracer()
    modules = [m for name, m in sys.modules.items() if name == "galereg" or name.startswith("galereg.")]
    saved = [(m, dict(vars(m))) for m in modules]
    # cold memos, so the homology ranks reach mat_rank
    for memo in (fiberhom._table, fiberhom._fiber_ranks, fiberhom._homology_ranks):
        memo.cache_clear()
    try:
        tracer = tracing.Tracer().install()
        tracer.enabled = True
        t0 = time.perf_counter()
        basis = json.dumps([[1, -2, 1, 0], [0, 1, -2, 1]])
        assert galereg.cli.main(["analyze", "--basis", basis]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert galereg.cli.main(["analyze", "--basis", basis, "--fast"]) == 0
        exponents = (0, 1, 2, 5, 7)
        columns = integer_kernel([(1,) * len(exponents), exponents], len(exponents))
        _, _, table = fiberhom.degree_and_regularity_of_span(columns)
        values, seconds = tracer.layer_metrics(time.perf_counter() - t0)
    finally:
        for module, attrs in saved:
            for attr, value in attrs.items():
                setattr(module, attr, value)
    assert [name for name in values] == [name for name, _ in tracing.METRICS]
    assert values["fiberhom.oracle.horizon_sum"] == doc["betti"]["horizon"] + table.horizon
    assert values["fiberhom.oracle.calls"] == 2
    assert values["fiberhom.hilbert.calls"] > 0
    assert values["intlinalg.mat_rank.distinct"] > 0
    assert seconds["cli"]["calls"] == 2
