"""Seeded corpus of nondegenerate rank-2 Gale diagrams for the analyze workloads.

The population is the plain random draw: n uniform in 3..6, the first
n - 1 rows uniform in [-3, 3]^2, the last row minus their sum, kept
when every row is nonzero with coordinates at most 3 and the diagram
has rank 2 and is nondegenerate.  ``strata.json`` holds the (n,
Cohen-Macaulay, degree) cell counts of 20000 such draws (seed 0); it is
made with::

    python3 galbench/corpus.py --measure 20000 --seed 0 > galbench/strata.json

A round is a systematic sample of ``ROUND`` cells from that table: cell
k covers the (k + 1/2)/ROUND quantile of the cumulative counts, so each
cell appears in proportion to its measured share, and every seed runs
the same mix of cheap and expensive cells, in one fixed shuffled order.  Within a cell each lattice
is a plain draw, rejected until it falls into the cell, so a cell's
lattices follow the population conditioned on the cell.  Cells above
``MAX_DEGREE`` are left out: a degree-30 lattice already takes up to
6 s, and the heaviest degrees drawn (32-34) more.

Every cell draws from its own random stream, so the Cohen-Macaulay
cells are the same lattices in ``analyze`` and ``analyze-fast`` for a
given seed.  ``analyze-fast`` takes its non-Cohen-Macaulay cells from
streams that do not depend on the seed: ``analyze --fast`` fails on
every non-Cohen-Macaulay lattice, and those failures must be the same
share of every run.

Degree, saturation, nondegeneracy and Cohen-Macaulay status come from
:mod:`reference`; nothing here calls the package.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import reference as ref

MAX_COORD = 3
N_RANGE = (3, 6)
MAX_DEGREE = 28
ROUND = 170
STRATA_FILE = Path(__file__).resolve().parent / "strata.json"

# Base of the seed-independent streams; a string, so no --seed equals it.
FIXED_BASE = "fixed"


@dataclass(frozen=True)
class Diagram:
    rows: tuple
    cm: bool
    degree: int
    saturated: bool
    seeded: bool

    def basis_json(self) -> str:
        """The diagram as the two basis columns ``galereg --basis`` takes."""
        return json.dumps([[r[0] for r in self.rows], [r[1] for r in self.rows]])


def draw(rng: random.Random, n: int) -> tuple:
    """n nonzero rows with coordinates at most MAX_COORD summing to zero."""
    c = MAX_COORD
    while True:
        rows = [(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(n - 1)]
        last = (-sum(r[0] for r in rows), -sum(r[1] for r in rows))
        if abs(last[0]) <= c and abs(last[1]) <= c:
            rows.append(last)
            if (0, 0) not in rows:
                return tuple(rows)


def is_cohen_macaulay(rows, degree: int) -> bool:
    return len(rows) == 3 or not ref.has_syzygy_quadrangle(rows, degree)


def measure(seed: int, draws: int) -> dict:
    """Cell counts of ``draws`` plain draws that have rank 2 and are
    nondegenerate."""
    rng = random.Random(seed)
    cells = Counter()
    kept = 0
    while kept < draws:
        rows = draw(rng, rng.randint(*N_RANGE))
        degree = ref.gale_degree(rows)
        if ref.minor_gcd(rows) == 0 or not ref.is_nondegenerate(rows):
            continue
        kept += 1
        cells[(len(rows), is_cohen_macaulay(rows, degree), degree)] += 1
    return {"seed": seed, "draws": draws, "max_coord": MAX_COORD, "n": list(N_RANGE),
            "cells": [[n, cm, d, k] for (n, cm, d), k in sorted(cells.items())]}


def round_cells(table=None) -> list:
    """The ROUND cells (n, Cohen-Macaulay, degree) of one round, a cell
    repeated as often as its share earns it, in a fixed shuffled order
    so that lattices of like cost are spread over the run."""
    if table is None:
        table = json.loads(STRATA_FILE.read_text())
    cells = [(n, cm, d, k) for n, cm, d, k in table["cells"] if d <= MAX_DEGREE]
    total = sum(k for *_, k in cells)
    out, upto, i = [], 0, 0
    for j in range(ROUND):
        point = (j + 0.5) * total / ROUND
        while upto + cells[i][3] <= point:
            upto += cells[i][3]
            i += 1
        out.append(tuple(cells[i][:3]))
    random.Random("galbench:order").shuffle(out)
    return out


class _Stream:
    """Draws diagrams of one cell, never the same row sequence twice."""

    def __init__(self, cell, base, seeded: bool):
        self.n, self.cm, self.degree = cell
        self.rng = random.Random(f"galbench:{base}:{self.n}:{int(self.cm)}:{self.degree}")
        self.seen = set()
        self.seeded = seeded

    def next(self) -> Diagram:
        while True:
            rows = draw(self.rng, self.n)
            if rows in self.seen or ref.gale_degree(rows) != self.degree:
                continue
            if not ref.is_nondegenerate(rows):
                continue
            if is_cohen_macaulay(rows, self.degree) != self.cm:
                continue
            self.seen.add(rows)
            return Diagram(rows, self.cm, self.degree, ref.is_saturated(rows), self.seeded)


class Corpus:
    """Rounds of diagrams for one run; round r depends only on the seed,
    r and whether the non-Cohen-Macaulay cells are seed-independent."""

    def __init__(self, seed: int, fixed_non_cm: bool):
        self.cells = round_cells()
        self.streams = {}
        for cell in self.cells:
            if cell not in self.streams:
                seeded = cell[1] or not fixed_non_cm
                self.streams[cell] = _Stream(cell, seed if seeded else FIXED_BASE, seeded)

    def next_round(self):
        return [self.streams[cell].next() for cell in self.cells]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Measure the cell counts of plain draws.")
    ap.add_argument("--measure", type=int, required=True, help="number of draws to keep")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    table = measure(args.seed, args.measure)
    print("{")
    for key in ("seed", "draws", "max_coord", "n"):
        print(f'  "{key}": {json.dumps(table[key])},')
    print('  "cells": [')
    print(",\n".join(f"    {json.dumps(c)}" for c in table["cells"]))
    print("  ]\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
