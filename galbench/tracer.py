"""Spans around the public functions of each ``galereg`` module.

:func:`install` replaces every traced function at every module binding
it is reached through (``galereg.fiberhom.mat_rank`` as well as
``galereg.intlinalg.mat_rank``), so calls inside the package are
recorded too.  Each span stores a name, its start and end, and its
parent span; spans stay in memory until :meth:`Tracer.save` writes
them out.  Nothing under ``src/`` changes.

A layer's time is the union of its outermost spans; its self time is
the sum over its spans of the duration minus the time covered by
direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

#: group -> (module, function names); a group is a layer or part of one.
GROUPS = {
    "searches": ("galereg.searches", (
        "sweep_orbits", "consistency_sweep", "search_ci_table", "search_cm_nonci",
        "run_search", "check_golden", "golden_payload")),
    "zlattice.canonical_key": ("galereg.zlattice", ("permutation_canonical_key",)),
    "zlattice.filters": ("galereg.zlattice", (
        "lattice_from_basis", "lattice_from_gale", "kernel_lattice", "is_saturated",
        "is_nondegenerate")),
    "quadrangle.ci_test": ("galereg.quadrangle", ("is_complete_intersection",)),
    "quadrangle.cm_test": ("galereg.quadrangle", ("is_cohen_macaulay",)),
    "quadrangle.scan": ("galereg.quadrangle", (
        "enumerate_syzygy_quadrangles", "regularity_fast", "normalize_unit_square")),
    "fiberhom.oracle": ("galereg.fiberhom", (
        "degree_and_regularity", "degree_and_regularity_of_span", "betti_table")),
    "fiberhom.hilbert": ("galereg.fiberhom", (
        "hilbert_degree", "hilbert_function", "reg_deg_via_hilbert", "hilbert_numerator")),
    "fiberhom.fiber": ("galereg.fiberhom", ("fiber_of", "polygon_of")),
    "intlinalg.mat_rank": ("galereg.intlinalg", ("mat_rank",)),
    "classify": ("galereg.classify", (
        "classify_maximal", "classify_monomial_curve", "cm_char0_criterion",
        "classify_cm_nonci")),
    "reduction": ("galereg.reduction", (
        "enumerate_partitions", "reduced_gale", "degree_preserved", "degree_drop_one",
        "is_simple", "is_perfectly_balanced", "support_sets", "new_quadrangle",
        "find_reg_eq_deg_partition")),
    "cli": ("galereg.cli", ("main",)),
}

# Searches whose canonical-key calls are candidates being deduplicated.
_ENUMERATORS = ("sweep_orbits", "search_ci_table", "search_cm_nonci")

#: Per-layer metrics in the order the benchmark reports them.
METRICS = (
    ("searches.self_pct", "%"),
    ("searches.candidates", "count"),
    ("searches.orbits", "count"),
    ("searches.orbit_yield", "ratio"),
    ("zlattice.canonical_key.calls", "count"),
    ("zlattice.canonical_key.pct", "%"),
    ("zlattice.filters.calls", "count"),
    ("zlattice.filters.pct", "%"),
    ("quadrangle.ci_test.calls", "count"),
    ("quadrangle.ci_test.pct", "%"),
    ("quadrangle.cm_test.pct", "%"),
    ("quadrangle.scan.pct", "%"),
    ("fiberhom.oracle.calls", "count"),
    ("fiberhom.oracle.pct", "%"),
    ("fiberhom.oracle.self_pct", "%"),
    ("fiberhom.oracle.horizon_sum", "count"),
    ("fiberhom.hilbert.calls", "count"),
    ("fiberhom.hilbert.pct", "%"),
    ("fiberhom.fiber.pct", "%"),
    ("intlinalg.mat_rank.calls", "count"),
    ("intlinalg.mat_rank.pct", "%"),
    ("intlinalg.mat_rank.distinct", "count"),
    ("classify.calls", "count"),
    ("classify.pct", "%"),
    ("reduction.data", "count"),
    ("reduction.pct", "%"),
    ("cli.self_pct", "%"),
)


class Tracer:
    """Span store plus the counters that need a call's arguments or result."""

    def __init__(self):
        self.names = []          # span name index -> "group:function"
        self.name_group = []     # span name index -> group
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.outer = array("b")  # 1 when no span of the same group encloses it
        self.enabled = False
        self._stack = []
        self._depth = {g: 0 for g in GROUPS}
        self.candidates = 0
        self.orbit_keys = set()
        self.horizon_sum = 0
        self.rank_inputs = set()
        self.reduced = 0
        self.hook_s = 0.0        # seconds spent in the counting hooks

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, group: str, fname: str):
        idx = len(self.names)
        self.names.append(f"{group}:{fname}")
        self.name_group.append(group)
        after = _AFTER.get(fname)
        before = _BEFORE.get(fname)
        depth = self._depth
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.span_name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.outer.append(depth[group] == 0)
            self.end.append(0.0)
            if before is not None:
                h0 = perf()
                before(self, args)
                self.hook_s += perf() - h0
            stack.append(i)
            depth[group] += 1
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                depth[group] -= 1
                stack.pop()
            if after is not None:
                h0 = perf()
                after(self, i, result)
                self.hook_s += perf() - h0
            return result

        return traced

    def install(self):
        """Wrap every traced function at each ``galereg`` module binding."""
        import galereg.cli  # noqa: F401  (loads every module the CLI uses)
        import galereg.searches  # noqa: F401

        modules = [m for name, m in list(sys.modules.items())
                   if name == "galereg" or name.startswith("galereg.")]
        for group, (modname, fnames) in GROUPS.items():
            home = sys.modules[modname]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(original, group, fname)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        return self

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall: float):
        """(per-layer metrics, seconds and calls per group).

        Times in the metrics are shares of ``wall``, the traced timed
        phase, in percent.
        """
        n = len(self.start)
        group_of = [self.name_group[k] for k in self.span_name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        total = {g: 0.0 for g in GROUPS}
        self_t = {g: 0.0 for g in GROUPS}
        calls = {g: 0 for g in GROUPS}
        for i in range(n):
            g = group_of[i]
            calls[g] += 1
            self_t[g] += dur[i] - covered[i]
            if self.outer[i]:
                total[g] += dur[i]

        def pct(x):
            return 100.0 * x / wall if wall > 0 else 0.0

        orbits = len(self.orbit_keys)
        values = {
            "searches.self_pct": pct(self_t["searches"]),
            "searches.candidates": self.candidates,
            "searches.orbits": orbits,
            "searches.orbit_yield": orbits / self.candidates if self.candidates else 0.0,
            "zlattice.canonical_key.calls": calls["zlattice.canonical_key"],
            "zlattice.canonical_key.pct": pct(total["zlattice.canonical_key"]),
            "zlattice.filters.calls": calls["zlattice.filters"],
            "zlattice.filters.pct": pct(total["zlattice.filters"]),
            "quadrangle.ci_test.calls": calls["quadrangle.ci_test"],
            "quadrangle.ci_test.pct": pct(total["quadrangle.ci_test"]),
            "quadrangle.cm_test.pct": pct(total["quadrangle.cm_test"]),
            "quadrangle.scan.pct": pct(total["quadrangle.scan"]),
            "fiberhom.oracle.calls": calls["fiberhom.oracle"],
            "fiberhom.oracle.pct": pct(total["fiberhom.oracle"]),
            "fiberhom.oracle.self_pct": pct(self_t["fiberhom.oracle"]),
            "fiberhom.oracle.horizon_sum": self.horizon_sum,
            "fiberhom.hilbert.calls": calls["fiberhom.hilbert"],
            "fiberhom.hilbert.pct": pct(total["fiberhom.hilbert"]),
            "fiberhom.fiber.pct": pct(total["fiberhom.fiber"]),
            "intlinalg.mat_rank.calls": calls["intlinalg.mat_rank"],
            "intlinalg.mat_rank.pct": pct(total["intlinalg.mat_rank"]),
            "intlinalg.mat_rank.distinct": len(self.rank_inputs),
            "classify.calls": calls["classify"],
            "classify.pct": pct(total["classify"]),
            "reduction.data": self.reduced,
            "reduction.pct": pct(total["reduction"]),
            "cli.self_pct": pct(self_t["cli"]),
        }
        seconds = {g: {"s": total[g], "self_s": self_t[g], "calls": calls[g]}
                   for g in GROUPS}
        return values, seconds

    def save(self, path):
        """Write every span as a tab-separated line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call adds to a bare one: the median over
    ``repeats`` of a loop of wrapped no-op calls minus a loop of bare
    ones, per call.  Hooks are timed separately (``Tracer.hook_s``)."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "cli", "noop")
    tracer.enabled = True
    perf = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = perf()
        for _ in range(calls):
            wrapped()
        t1 = perf()
        for _ in range(calls):
            noop()
        t2 = perf()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def _count_candidate(tracer, args):
    p = tracer._stack[-1] if tracer._stack else -1
    if p >= 0 and tracer.names[tracer.span_name[p]].split(":")[1] in _ENUMERATORS:
        tracer.candidates += 1


def _record_orbit(tracer, i, key):
    p = tracer.parent[i]
    if p >= 0 and tracer.names[tracer.span_name[p]].split(":")[1] in _ENUMERATORS:
        tracer.orbit_keys.add(key)


def _record_horizon(tracer, i, result):
    tracer.horizon_sum += result[2].horizon


def _count_reduced(tracer, i, result):
    tracer.reduced += 1


def _record_rank_input(tracer, args):
    tracer.rank_inputs.add(hash(tuple(tuple(r) for r in args[0])))


_BEFORE = {
    "permutation_canonical_key": _count_candidate,
    "mat_rank": _record_rank_input,
}
_AFTER = {
    "permutation_canonical_key": _record_orbit,
    "degree_and_regularity": _record_horizon,
    "degree_and_regularity_of_span": _record_horizon,
    "reduced_gale": _count_reduced,
}
