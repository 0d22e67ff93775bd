"""Exhaustive searches over small Gale diagrams, with golden records.

Three finite searches are provided, each returning a report with
deterministic ordering:

* :func:`search_ci_table` -- all complete intersections of two quadrics
  whose lattice ideal has maximal regularity, enumerated from pairs of
  quadric binomial exponent vectors and deduplicated up to coordinate
  permutation.
* :func:`search_cm_nonci` -- all Cohen-Macaulay non complete
  intersections of maximal regularity whose Gale vectors are nonzero
  with entries bounded by 2, deduplicated up to unimodular change of
  basis and coordinate permutation.
* :func:`consistency_sweep` -- cross-checks :func:`~.classify.classify_maximal`
  against the homology oracle over every saturated nondegenerate orbit
  in a coordinate box.

The first two searches have committed golden records under
``galereg/data/``; :func:`check_golden` compares a fresh run against
them byte-for-byte.

Results never depend on candidate order: survivors are deduplicated by
canonical key and sorted before reporting.  Each search decides its
filters and keys once per class of a symmetry of its candidates, with
the same survivors as deciding every candidate: coordinate permutations
of quadric pairs (:func:`_ci_classes`), and the box's signed
permutations (:func:`_box_orbits`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path

from .classify import MAXIMAL_CI_DIAGRAMS, classify_cm_nonci, classify_maximal
from .errors import InternalInconsistency, UnknownSearch
from .fiberhom import degree_and_regularity, hilbert_degree, hilbert_function
from .quadrangle import is_cohen_macaulay, is_complete_intersection
from .zlattice import (
    Lattice,
    apply_right,
    has_rank_two,
    is_nondegenerate,
    is_saturated,
    lattice_from_basis,
    lattice_from_gale,
    permutation_canonical_key,
)

#: The Cohen-Macaulay non complete intersections of maximal regularity,
#: as (saturated, gale rows); :func:`search_cm_nonci` recovers exactly
#: these up to equivalence.
CM_NONCI_DIAGRAMS = (
    (False, ((1, 1), (1, -2), (-2, 1))),
    (True, ((1, 0), (0, 1), (1, -2), (-2, 1))),
    (True, ((1, 1), (0, 1), (-1, 0), (-1, -1), (1, -1))),
    (True, ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1))),
)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a finite search.

    ``found`` holds one lattice per equivalence class, sorted by
    (ambient dimension, canonical key); ``keys`` holds the matching
    canonical keys.  No two entries share a key.
    """

    found: tuple
    keys: tuple
    saturated_count: int
    total_count: int
    elapsed: float

    def __post_init__(self):
        if len(set(self.keys)) != len(self.keys):
            raise InternalInconsistency("duplicate canonical keys in search report")
        if len(self.found) != self.total_count or len(self.keys) != self.total_count:
            raise InternalInconsistency("search report counts disagree with entries")

    def to_json_dict(self) -> dict:
        return {**golden_payload(self), "elapsed": self.elapsed}


@dataclass(frozen=True)
class SweepReport:
    """Outcome of :func:`consistency_sweep`.

    ``mismatches`` lists every orbit where the combinatorial
    classification disagrees with the homology oracle; it is expected
    to be empty.
    """

    max_n: int
    max_coord: int
    candidate_count: int
    orbit_count: int
    mismatches: tuple
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "max_coord": self.max_coord,
            "candidate_count": self.candidate_count,
            "orbit_count": self.orbit_count,
            "mismatch_count": len(self.mismatches),
            "mismatches": [dict(m) for m in self.mismatches],
            "elapsed": self.elapsed,
        }


# ---------------------------------------------------------------------------
# shared machinery


def _key_sorted(reps):
    """(lattices, keys) of a {(n, key): lattice} map, sorted by (n, key)."""
    ordered = sorted(reps.items())
    return (
        tuple(lat for _, lat in ordered),
        tuple(key for (_, key), _ in ordered),
    )


def _report(reps, keys, keep, start) -> SearchReport:
    """The report on the key-sorted candidates that ``keep`` accepts.

    ``start`` is the :func:`time.perf_counter` reading the search began
    at.
    """
    kept = [(lat, key) for lat, key in zip(reps, keys) if keep(lat)]
    found = tuple(lat for lat, _ in kept)
    return SearchReport(
        found=found,
        keys=tuple(key for _, key in kept),
        saturated_count=sum(1 for lat in found if is_saturated(lat)),
        total_count=len(found),
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# search 1: complete intersections of two quadrics with maximal regularity


def _quadric_vectors(n):
    """Exponent vectors of homogeneous quadric binomials in n variables.

    Each vector has positive part of total degree 2 and coordinate sum
    zero, with entries in {-2, -1, 0, 1, 2}; it is returned together
    with its support bitmask.
    """
    singles = [(i,) for i in range(n)]
    doubles = list(combinations(range(n), 2))
    out = []
    for pos, pval in [(p, 2) for p in singles] + [(p, 1) for p in doubles]:
        rest = [i for i in range(n) if i not in pos]
        neg_patterns = [((i,), -2) for i in rest]
        neg_patterns += [(p, -1) for p in combinations(rest, 2)]
        for neg, nval in neg_patterns:
            vec = [0] * n
            for i in pos:
                vec[i] = pval
            for i in neg:
                vec[i] = nval
            mask = 0
            for i in pos + neg:
                mask |= 1 << i
            out.append((tuple(vec), mask))
    return out


def _ci_classes(n):
    """The nondegenerate complete intersections spanned by two quadric
    vectors whose supports cover all n coordinates, as
    {canonical key: first lattice of that key in enumeration order}.

    A coordinate permutation maps a pair (u, v) onto a pair of the same
    enumeration, up to order, and the spanned lattices onto each other,
    so the class min(sorted(zip(u, v)), sorted(zip(v, u))) fixes the
    tests and the key.  Only the first member of each class in
    enumeration order is tested and keyed.  The first candidate of a
    key is the first member of its class, so the lattices are those of
    keying every candidate.
    """
    vectors = _quadric_vectors(n)
    full = (1 << n) - 1
    seen = set()
    reps = {}
    for (u, mu), (v, mv) in combinations(vectors, 2):
        if mu | mv != full:
            continue
        cls = min(tuple(sorted(zip(u, v))), tuple(sorted(zip(v, u))))
        if cls in seen:
            continue
        seen.add(cls)
        i = next(k for k in range(n) if u[k])
        if all(u[i] * v[k] == v[i] * u[k] for k in range(n)):
            continue
        lat = lattice_from_basis((u, v))
        if is_nondegenerate(lat) and is_complete_intersection(lat):
            reps.setdefault(permutation_canonical_key(lat), lat)
    return reps


def _two_quadrics_maximal(lat: Lattice) -> bool:
    """Minimally generated by exactly two quadrics, with reg = deg - 1.

    For a nondegenerate complete intersection this is deg = 4.  Proof:
    a degree-1 binomial x_i - x_j would put e_i - e_j in the lattice, so
    the generator degrees have d_1, d_2 >= 2.  Koszul gives deg = d_1 d_2
    and reg = d_1 + d_2 - 1, so reg = deg - 1 exactly when
    (d_1 - 1)(d_2 - 1) = 1, that is d_1 = d_2 = 2, which is d_1 d_2 = 4.
    """
    return hilbert_degree(lat) == 4


def search_ci_table(ns=range(3, 9)) -> SearchReport:
    """Find every two-quadric complete intersection of maximal regularity.

    Candidates are lattices spanned by a pair of quadric binomial
    exponent vectors in n variables, 3 <= n <= 8, whose supports cover
    all coordinates (no zero Gale vector).  Survivors are nondegenerate
    complete intersections minimally generated by the two quadrics with
    regularity exactly one below the degree, deduplicated up to
    coordinate permutation.
    """
    start = time.perf_counter()
    reps, keys = _key_sorted({(n, key): lat for n in ns for key, lat in _ci_classes(n).items()})
    return _report(reps, keys, _two_quadrics_maximal, start)


# ---------------------------------------------------------------------------
# search 2: Cohen-Macaulay non complete intersections of maximal regularity


def _box_vectors(max_coord):
    return tuple(
        sorted(
            (x, y)
            for x in range(-max_coord, max_coord + 1)
            for y in range(-max_coord, max_coord + 1)
            if (x, y) != (0, 0)
        )
    )


def _zero_sum_gales(n, max_coord):
    """Multisets of n nonzero box vectors summing to zero, spanning rank 2.

    Multisets are produced in non-decreasing lexicographic row order,
    which is already a canonical choice within each multiset.  The last
    row is forced to be minus the sum of the others, so it is looked up
    in an index of the box vectors rather than searched for.
    """
    if n < 3:  # two vectors summing to zero are parallel
        return []
    vectors = _box_vectors(max_coord)
    index = {v: i for i, v in enumerate(vectors)}
    out = []
    rows = []

    def extend(start, remaining, sx, sy):
        if abs(sx) > max_coord * remaining or abs(sy) > max_coord * remaining:
            return
        if remaining == 2:
            for i in range(start, len(vectors)):
                x, y = vectors[i]
                last = (-sx - x, -sy - y)
                if index.get(last, -1) >= i:
                    gale = (*rows, vectors[i], last)
                    if has_rank_two(gale):
                        out.append(gale)
            return
        for i in range(start, len(vectors)):
            rows.append(vectors[i])
            extend(i, remaining - 1, sx + vectors[i][0], sy + vectors[i][1])
            rows.pop()

    extend(0, n, 0, 0)
    return out


#: The seven signed permutation matrices other than the identity; with
#: it they are the symmetries of the box |x|, |y| <= c inside GL_2(Z).
_BOX_SYMMETRIES = (
    ((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)), ((0, 1), (-1, 0)), ((0, -1), (1, 0)), ((0, -1), (-1, 0)),
)


_UNSEEN = object()


def _box_orbits(ns, max_coord, accept):
    """One lattice per canonical key among the accepted box candidates.

    The candidates are :func:`_zero_sum_gales` for each n in ``ns``;
    ``accept`` must be a property of the lattice up to coordinate
    permutation.  Returns (reps, keys, count): reps sorted by
    (n, canonical key), each the first accepted candidate of its key in
    enumeration order, and the number of accepted candidates.

    Each signed permutation matrix U maps the box onto itself, so
    rows * U, re-sorted, is another candidate of the same enumeration;
    it spans the same lattice as rows (U is unimodular) up to a
    permutation of the coordinates, so it has the same verdict and the
    same key.  The first member of each such class in enumeration order
    is decided, and its verdict (the key, or None when rejected) is
    stored for its other members, each popped when the enumeration
    reaches it, so only classes with members still ahead take memory.
    The first accepted candidate of a key is always the
    first member of its class, so the reps are those of keying every
    candidate.  An image the enumeration never reaches is a bug, and
    raises InternalInconsistency.
    """
    reps = {}
    count = 0
    for n in ns:
        pending = {}
        for rows in _zero_sum_gales(n, max_coord):
            key = pending.pop(rows, _UNSEEN)
            if key is _UNSEEN:
                lat = Lattice(rows)
                key = permutation_canonical_key(lat) if accept(lat) else None
                if key is not None:
                    reps.setdefault((n, key), lat)
                for u in _BOX_SYMMETRIES:
                    image = tuple(sorted(apply_right(r, u) for r in rows))
                    if image != rows:
                        pending[image] = key
            count += key is not None
        if pending:
            raise InternalInconsistency(
                f"{len(pending)} box images with n = {n} were never enumerated")
    return (*_key_sorted(reps), count)


def _is_cm_nonci_candidate(lat):
    """CM non-CI with exactly three quadrics' worth of degree-2 fiber
    deficit."""
    if not is_nondegenerate(lat) or is_complete_intersection(lat):
        return False
    # A nondegenerate lattice ideal has no linear forms, so the
    # number of quadric generators is binom(n+1, 2) - HF(2).
    if comb(lat.n + 1, 2) - hilbert_function(lat, 2) != 3:
        return False
    return is_cohen_macaulay(lat)


def search_cm_nonci(max_n=6) -> SearchReport:
    """Find every Cohen-Macaulay non complete intersection of maximal
    regularity with at most ``max_n`` nonzero Gale vectors of entries
    bounded by 2.

    Survivors are minimally generated by exactly three quadrics (hence
    have regularity 2 and degree 3); they are deduplicated up to
    unimodular change of basis together with coordinate permutation,
    which the canonical key realizes.
    """
    start = time.perf_counter()
    reps, keys, _ = _box_orbits(range(3, max_n + 1), 2, _is_cm_nonci_candidate)
    return _report(reps, keys, classify_cm_nonci, start)


# ---------------------------------------------------------------------------
# search 3: consistency sweep of the classifier against the oracle


@lru_cache(maxsize=8)
def sweep_orbits(max_n=6, max_coord=2):
    """Saturated nondegenerate rank-2 orbits in the coordinate box.

    Enumerates all Gale diagrams with 3..max_n nonzero vectors of
    coordinates bounded by ``max_coord``, keeps the saturated
    nondegenerate ones, and returns one lattice per equivalence class
    (unimodular basis change + coordinate permutation), sorted by
    (ambient dimension, canonical key).
    """
    reps, _, count = _box_orbits(
        range(3, max_n + 1), max_coord, lambda lat: is_saturated(lat) and is_nondegenerate(lat))
    return reps, count


def consistency_sweep(max_n=6, max_coord=2) -> SweepReport:
    """Check ``classify_maximal`` against the homology oracle on every
    orbit in the box; a mismatch is any orbit where the combinatorial
    verdict differs from reg = deg - 1."""
    start = time.perf_counter()
    orbits, candidate_count = sweep_orbits(max_n, max_coord)
    mismatches = []
    for lat in orbits:
        verdict = classify_maximal(lat)
        deg, reg, _ = degree_and_regularity(lat)
        if verdict.maximal != (reg == deg - 1):
            mismatches.append(
                (
                    ("gale", tuple(tuple(r) for r in lat.rows)),
                    ("case", verdict.case),
                    ("maximal", verdict.maximal),
                    ("degree", deg),
                    ("regularity", reg),
                )
            )
    return SweepReport(
        max_n=max_n,
        max_coord=max_coord,
        candidate_count=candidate_count,
        orbit_count=len(orbits),
        mismatches=tuple(mismatches),
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# golden records


@lru_cache(maxsize=1)
def _printed_rows_by_key():
    """Canonical key -> printed Gale rows, over both embedded tables."""
    out = {}
    for _, _, rows in MAXIMAL_CI_DIAGRAMS:
        out[permutation_canonical_key(lattice_from_gale(rows))] = rows
    for _, rows in CM_NONCI_DIAGRAMS:
        out[permutation_canonical_key(lattice_from_gale(rows))] = rows
    return out


def golden_payload(report: SearchReport) -> dict:
    """JSON payload of a search report, stable across reruns.

    Survivor classes whose key matches an embedded table entry are
    rendered with the table's printed rows, so regenerating a golden
    record reproduces it byte for byte; an unexpected class shows its
    own rows and makes the comparison fail honestly.
    """
    printed = _printed_rows_by_key()
    entries = []
    for lat, key in zip(report.found, report.keys):
        rows = printed.get(key, lat.rows)
        entries.append(
            {
                "n": lat.n,
                "saturated": is_saturated(lat),
                "gale": [list(r) for r in rows],
                "key": list(key),
            }
        )
    return {
        "total_count": report.total_count,
        "saturated_count": report.saturated_count,
        "entries": entries,
    }


GOLDEN_NAMES = {"table1": "table1.json", "cm-nonci": "cm_nonci.json"}


def _golden_path(name: str) -> Path:
    if name not in GOLDEN_NAMES:
        raise UnknownSearch(f"no golden record for {name!r}")
    return Path(__file__).resolve().parent / "data" / GOLDEN_NAMES[name]


def _golden_text(report: SearchReport) -> str:
    return json.dumps(golden_payload(report), indent=2, sort_keys=True) + "\n"


def run_search(name: str, **kwargs) -> SearchReport:
    if name == "table1":
        return search_ci_table(**kwargs)
    if name == "cm-nonci":
        return search_cm_nonci(**kwargs)
    raise UnknownSearch(f"unknown search {name!r}; expected table1, cm-nonci or sweep")


def load_golden(name: str) -> dict:
    return json.loads(_golden_path(name).read_text())


def write_golden(name: str, report: SearchReport) -> None:
    """Overwrite the golden record with the text :func:`check_golden` expects."""
    _golden_path(name).write_text(_golden_text(report))


def check_golden(name: str, report: SearchReport) -> bool:
    """True when a fresh report renders byte for byte as the committed record."""
    return _golden_path(name).read_text() == _golden_text(report)
