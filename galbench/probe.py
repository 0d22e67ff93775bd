"""A fixed piece of work timed between operations to track machine speed.

The machine this benchmark was built on changes speed by up to a factor
of two for seconds at a time (other tenants share its cores), which
moved a run of the deterministic ``corpus`` workload by 15 % and more.
The benchmark takes a sample of this probe before and after every
operation and divides each operation's time by the local speed, the
mean of the two samples over a fixed reference; the run's throughput
is scaled by the time-weighted mean of those speeds.  That cancels
most of the drift.  The probe mixes the kinds of
work the package does: fraction-free integer elimination in Python, a
numpy lexsort of integer rows, and a Gale-diagram degree.  It never
calls the package, so a change to the package cannot change it.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

import reference as ref

#: Probe time, in seconds, that the scaled metrics refer to.
REFERENCE_S = 4.5e-4

_rng = random.Random(20210624)
_MATRIX = [[_rng.randint(-3, 3) for _ in range(12)] for _ in range(10)]
_ROWS = np.array([[_rng.randint(-40, 40) for _ in range(6)] for _ in range(800)],
                 dtype=np.int64)
_GALE = ((1, 1), (-1, 2), (-2, -1), (2, -2), (3, -1), (-3, 1))


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def measure() -> float:
    """Seconds one probe takes now."""
    t0 = time.perf_counter()
    _rank(_MATRIX)
    np.lexsort(_ROWS.T)
    ref.gale_degree(_GALE)
    return time.perf_counter() - t0


def sample() -> float:
    """Median of three probes, in seconds."""
    return statistics.median((measure(), measure(), measure()))
