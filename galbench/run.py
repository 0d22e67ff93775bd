#!/usr/bin/env python3
"""Benchmark for galereg: one command, four workloads, a separate traced run.

One run of one workload::

    python3 galbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

prints what it measured, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same work runs traced, and the metrics are the per-layer ones plus
the estimated tracing overhead.

Every workload, several times over::

    python3 galbench/run.py --repeat 10 --seed 1 --seconds 10 [--trace 1]

runs each workload once per repeat with seeds seed, seed+1, ..., each
run in fresh interpreters, alternating the workload order, and prints
the median and quartiles of every metric; ``--trace 1`` adds one traced
run per workload.  ``--workloads`` picks a subset.

A run is one pass of its workload in a fresh interpreter (the
package's ``lru_cache`` s would otherwise carry results over), with
``GALEREG_THREADS`` unset and one thread.  The package is imported from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("corpus", "analyze", "analyze-fast", "searches")
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)
DETAIL_UNITS = {
    "families_s": "s", "sweep_s": "s", "curves_s": "s", "duality_s": "s",
    "reduction_s": "s", "cm_threshold_s": "s", "table1_s": "s", "cm_nonci_s": "s",
    "lattices_per_s": "1/s", "lattice_p50_ms": "ms", "lattice_p90_ms": "ms",
}
SETUP_RUNS = 9
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # one invocation must end within 180 s


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child side: one pass, or one set-up, in this interpreter


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import galereg

    if Path(galereg.__file__).resolve().parent != SRC / "galereg":
        raise BenchError(f"imported galereg from {galereg.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    import workloads

    if args.setup_only:
        # The parent takes set-up as spawn to this line; the probes after
        # it give this interpreter's speed.
        print(time.monotonic(), flush=True)
        import probe

        print(statistics.median(probe.sample() for _ in range(SETUP_PROBES)))
        return 0
    p = workloads.run(args.workload, args.seed, args.seconds, tracer)
    out = {
        "ops": p.ops,
        "attempted": p.attempted,
        "failed": p.failed,
        "timed": p.timed,
        "round_times": p.round_times,
        "detail": p.detail,
        "problems": p.problems,
        "fault_messages": p.fault_messages,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"], out["layer_seconds"] = tracer.layer_metrics(p.timed)
        out["spans"] = len(tracer.start)
        out["span_cost"] = tracing.span_cost()
        out["hook_s"] = tracer.hook_s
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# parent side


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("GALEREG_THREADS", "PYTHONPATH")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(argv, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve())] + argv
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(argv))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(argv)) from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _setup_seconds(deadline):
    """Median over SETUP_RUNS fresh interpreters of the time from spawn
    until the package and the benchmark modules are imported, scaled by
    each interpreter's probe speed; also the unscaled times."""
    import probe

    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()  # CLOCK_MONOTONIC, the clock the child reads too
        ready, probe_s = _spawn(["--child", "--setup-only"], deadline).split()
        raw.append(float(ready) - t0)
        scaled.append(raw[-1] * probe.REFERENCE_S / float(probe_s))
    return statistics.median(scaled), raw


def _pass(workload, seed, seconds, trace, deadline):
    """One pass of the workload in a fresh interpreter; its result."""
    argv = ["--child", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    return json.loads(_spawn(argv, deadline).strip().splitlines()[-1])


def _percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation between ranks."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _summarize(workload, r):
    """Figures of one pass, scaled to the probe's reference speed.

    An operation's speed is the mean of the probe samples on either side
    of it over ``probe.REFERENCE_S``; its time is divided by that speed.
    The run's speed is the time-weighted mean over its operations, and
    divides the timed phase and the per-section times.
    """
    import probe

    ops, timed = r["ops"], r["timed"]
    if not ops:
        raise BenchError("no operation attempted")
    speeds = [(before + after) / 2 / probe.REFERENCE_S for _, _, before, after in ops]
    latencies = [s for s, ok, _, _ in ops if ok]
    scaled = [s / v for (s, ok, _, _), v in zip(ops, speeds) if ok]
    speed = sum(s * v for (s, _, _, _), v in zip(ops, speeds)) / sum(s for s, _, _, _ in ops)
    detail = {k: v / speed for k, v in r["detail"].items()}
    summary = {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "problems": r["problems"],
        "fault_messages": r["fault_messages"],
        "timed": timed,
        "speed": speed,
        "rounds": len(r["round_times"]),
        "samples": len(latencies),
        "rss_mb": r["rss_mb"],
    }
    if latencies:
        summary["raw"] = (len(latencies) / timed, 1000.0 * _percentile(latencies, 50),
                          1000.0 * _percentile(latencies, 90))
        p90 = _percentile(scaled, 90)
        summary["ops_per_s"] = summary["raw"][0] * speed
        summary["op_p50_ms"] = 1000.0 * _percentile(scaled, 50)
        summary["op_p90_ms"] = 1000.0 * p90
        summary["above_p90"] = sum(1 for x in scaled if x > p90)
    if workload in ("analyze", "analyze-fast") and latencies:
        detail["lattices_per_s"] = summary["ops_per_s"]
        detail["lattice_p50_ms"] = summary["op_p50_ms"]
        detail["lattice_p90_ms"] = summary["op_p90_ms"]
    summary["detail"] = detail
    return summary


def _print_summary(workload, seed, s):
    print(f"workload {workload}  seed {seed}  attempted {s['attempted']}  "
          f"failed {s['failed']}  rounds {s['rounds']}  timed {s['timed']:.3f} s")
    print(f"  samples {s['samples']}, {s.get('above_p90', 0)} above the 90th percentile")
    if "raw" in s:
        print(f"  speed {s['speed']:.4f} (time-weighted probe / reference); unscaled: "
              f"{s['raw'][0]:.4f} ops/s, p50 {s['raw'][1]:.4f} ms, p90 {s['raw'][2]:.4f} ms")
    for name, value in sorted(s["detail"].items()):
        print(f"  {name:<16} {value:12.4f} {DETAIL_UNITS.get(name, '')}")
    for message in sorted(set(s["fault_messages"])):
        print(f"  failed as expected (named fault): {message}")
    for problem in s["problems"]:
        print(f"  CHECK FAILED: {problem}")


def bench_main(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    w, seed, seconds = args.workload, args.seed, args.seconds
    if not args.trace:
        setup, setups = _setup_seconds(deadline)
        s = _summarize(w, _pass(w, seed, seconds, 0, deadline))
        _print_summary(w, seed, s)
        print(f"  setup runs, unscaled (s): {' '.join(f'{x:.4f}' for x in setups)}")
        if not s["samples"]:
            raise BenchError("no operation completed")
        metrics = {
            "setup_s": setup,
            "peak_rss_mb": s["rss_mb"],
            "ops_per_s": s["ops_per_s"],
            "op_p50_ms": s["op_p50_ms"],
            "op_p90_ms": s["op_p90_ms"],
        }
        units = dict(END_TO_END)
    else:
        import tracer as tracing

        r = _pass(w, seed, seconds, 1, deadline)
        s = _summarize(w, r)
        _print_summary(w, seed, s)
        metrics = dict(r["layers"])
        # Overhead from what the traced pass measured: its spans times the
        # wrapper cost per span (timed on a no-op), plus the time spent in
        # the counting hooks (mat_rank input hashing and the like).
        overhead = r["spans"] * r["span_cost"] + r["hook_s"]
        metrics["trace.overhead_pct"] = 100.0 * overhead / r["timed"]
        print(f"  tracing overhead: {r['spans']} spans x {1e6 * r['span_cost']:.3f} us"
              f" + {r['hook_s']:.4f} s in hooks = {overhead:.4f} s"
              f" of {r['timed']:.3f} s traced")
        for group, v in r["layer_seconds"].items():
            print(f"  {group:<24} {v['calls']:9d} calls {v['s']:10.4f} s"
                  f" {v['self_s']:10.4f} s self")
        units = dict(tracing.METRICS)
        units["trace.overhead_pct"] = "%"
    result = {
        "correct": not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# repeat mode


def repeat_main(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    runs = {w: [] for w in names}
    for i in range(args.repeat):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            seed = args.seed + i
            out = _spawn(["--workload", w, "--seed", str(seed),
                          "--seconds", str(args.seconds), "--trace", "0"],
                         time.monotonic() + RUN_LIMIT_S + 10)
            runs[w].append(out)
            line = json.loads(out.strip().splitlines()[-1])
            print(f"[{i + 1}/{args.repeat}] {w} seed {seed}: correct {line['correct']}"
                  f" attempted {line['attempted']} failed {line['failed']}", flush=True)
    for w in names:
        _report_runs(w, runs[w])
    if args.trace:
        for w in names:
            print(_spawn(["--workload", w, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", "1"],
                         time.monotonic() + RUN_LIMIT_S + 10), end="")
    return 0


def _report_runs(workload, outputs):
    values = {}
    units = {}
    counts = []
    for out in outputs:
        lines = out.strip().splitlines()
        last = json.loads(lines[-1])
        counts.append((last["attempted"], last["failed"], last["correct"]))
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in lines:
            parts = line.split()
            if len(parts) >= 2 and parts[0] in DETAIL_UNITS:
                values.setdefault(parts[0], []).append(float(parts[1]))
                units[parts[0]] = DETAIL_UNITS[parts[0]]
    print(f"\n== {workload}: {len(outputs)} runs")
    shares = sorted({f"{f}/{a}" for a, f, _ in counts})
    print(f"  attempted {[a for a, _, _ in counts]}  failed {[f for _, f, _ in counts]}"
          f"  failed share {' '.join(shares)}  all correct {all(c for _, _, c in counts)}")
    print(f"  {'metric':<16} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<16} {units[name]:<5} {med:12.4f} {q1:12.4f} {q3:12.4f}"
              f" {100 * spread:7.2f}%")


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, help="runs per workload, alternating order")
    ap.add_argument("--workloads", help="comma-separated subset for --repeat")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat is None and args.workload is None and not args.setup_only:
        ap.error("give --workload or --repeat")
    if args.workloads and any(w not in WORKLOADS for w in args.workloads.split(",")):
        ap.error(f"--workloads takes names among {', '.join(WORKLOADS)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "galereg" / "__init__.py").is_file():
        print(f"galbench: no package source at {SRC / 'galereg'}", file=sys.stderr)
        return 2
    try:
        if args.child:
            return child_main(args)
        if args.repeat is not None:
            return repeat_main(args)
        return bench_main(args)
    except BenchError as exc:
        print(f"galbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
