"""Finite searches, golden records, and the consistency sweep."""

import random
from itertools import combinations, combinations_with_replacement

import pytest

from galereg.classify import MAXIMAL_CI_DIAGRAMS
from galereg.errors import InternalInconsistency, UnknownSearch
from galereg.searches import (
    CM_NONCI_DIAGRAMS,
    SearchReport,
    _box_orbits,
    _box_vectors,
    _ci_classes,
    _quadric_vectors,
    _zero_sum_gales,
    check_golden,
    consistency_sweep,
    golden_payload,
    load_golden,
    run_search,
    search_ci_table,
    search_cm_nonci,
    sweep_orbits,
)
from galereg.intlinalg import mat_rank
from galereg.quadrangle import is_complete_intersection
from galereg.zlattice import (
    is_nondegenerate,
    is_saturated,
    lattice_from_basis,
    lattice_from_gale,
    permutation_canonical_key,
)


def table_keys(max_n):
    return {
        permutation_canonical_key(lattice_from_gale(rows)): sat
        for n, sat, rows in MAXIMAL_CI_DIAGRAMS
        if n <= max_n
    }


# ---------------------------------------------------------------------------
# the two-quadric search


def test_ci_search_small_sizes():
    report = search_ci_table(ns=range(3, 5))
    assert report.total_count == 7
    assert report.saturated_count == 1
    assert [lat.n for lat in report.found] == [3, 3, 4, 4, 4, 4, 4]
    expected = table_keys(4)
    assert set(report.keys) == set(expected)
    for lat, key in zip(report.found, report.keys):
        assert is_saturated(lat) == expected[key]


def every_ci_candidate(n):
    """Every covering quadric pair spanning a nondegenerate complete
    intersection, each tested on its own, in enumeration order."""
    out = []
    for (u, mu), (v, mv) in combinations(_quadric_vectors(n), 2):
        if mu | mv == (1 << n) - 1 and mat_rank([u, v]) == 2:
            lat = lattice_from_basis((u, v))
            if is_nondegenerate(lat) and is_complete_intersection(lat):
                out.append(lat)
    return out


def first_of_each_key(lattices):
    reps = {}
    for lat in lattices:
        reps.setdefault(permutation_canonical_key(lat), lat)
    return reps


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ci_classes_match_keying_every_candidate(n):
    reps = _ci_classes(n)
    expected = first_of_each_key(every_ci_candidate(n))
    assert list(reps) == list(expected)
    assert [lat.rows for lat in reps.values()] == [lat.rows for lat in expected.values()]


def test_ci_search_order_independent():
    candidates = [lat for n in range(3, 5) for lat in every_ci_candidate(n)]
    random.Random(7).shuffle(candidates)
    shuffled = first_of_each_key(candidates)
    reps = {key: lat for n in range(3, 5) for key, lat in _ci_classes(n).items()}
    assert set(reps) == set(shuffled)
    for key, lat in reps.items():
        assert is_saturated(shuffled[key]) == is_saturated(lat)


# ---------------------------------------------------------------------------
# the Cohen-Macaulay non complete intersection search


def test_cm_nonci_search_matches_embedded_table():
    report = search_cm_nonci()
    assert report.total_count == len(CM_NONCI_DIAGRAMS)
    expected = {
        permutation_canonical_key(lattice_from_gale(rows)): sat
        for sat, rows in CM_NONCI_DIAGRAMS
    }
    assert set(report.keys) == set(expected)
    for lat, key in zip(report.found, report.keys):
        assert is_saturated(lat) == expected[key]
    assert report.saturated_count == sum(1 for sat, _ in CM_NONCI_DIAGRAMS if sat)


def test_cm_nonci_search_truncated():
    report = search_cm_nonci(max_n=4)
    assert (report.total_count, report.saturated_count) == (2, 1)
    assert [lat.n for lat in report.found] == [3, 4]


# ---------------------------------------------------------------------------
# report validation


def test_search_report_rejects_duplicate_keys():
    lat = lattice_from_gale([(1, 0), (-2, 1), (1, -2), (0, 1)])
    key = permutation_canonical_key(lat)
    with pytest.raises(InternalInconsistency):
        SearchReport(
            found=(lat, lat),
            keys=(key, key),
            saturated_count=2,
            total_count=2,
            elapsed=0.0,
        )


def test_search_report_rejects_count_mismatch():
    lat = lattice_from_gale([(1, 0), (-2, 1), (1, -2), (0, 1)])
    with pytest.raises(InternalInconsistency):
        SearchReport(
            found=(lat,),
            keys=(permutation_canonical_key(lat),),
            saturated_count=1,
            total_count=2,
            elapsed=0.0,
        )


# ---------------------------------------------------------------------------
# golden records


def test_golden_record_round_trip():
    report = search_cm_nonci()
    assert check_golden("cm-nonci", report)
    payload = golden_payload(report)
    assert payload == load_golden("cm-nonci")
    assert "elapsed" not in payload
    for entry in payload["entries"]:
        assert set(entry) == {"gale", "key", "n", "saturated"}


def test_golden_check_fails_on_drift(monkeypatch, tmp_path):
    import galereg.searches as searches

    report = search_cm_nonci()
    committed = searches._golden_path("cm-nonci").read_text()
    path = tmp_path / "cm_nonci.json"
    monkeypatch.setattr(searches, "_golden_path", lambda name: path)
    searches.write_golden("cm-nonci", report)
    assert path.read_text() == committed
    # the same JSON value in other bytes is drift too
    path.write_text(committed.rstrip("\n"))
    assert load_golden("cm-nonci") == golden_payload(report)
    assert not check_golden("cm-nonci", report)
    tampered = committed.replace('"saturated_count": 3', '"saturated_count": 4')
    assert tampered != committed
    path.write_text(tampered)
    assert not check_golden("cm-nonci", report)


def test_run_search_dispatch():
    report = run_search("cm-nonci", max_n=4)
    assert report.total_count == 2
    with pytest.raises(UnknownSearch):
        run_search("nosuch")


# ---------------------------------------------------------------------------
# the consistency sweep


def test_consistency_sweep_small_box():
    report = consistency_sweep(max_n=5, max_coord=2)
    assert report.candidate_count == 740
    assert report.orbit_count == 65
    assert report.mismatches == ()
    doc = report.to_json_dict()
    assert doc["mismatch_count"] == 0
    reps, candidates = sweep_orbits(5, 2)
    assert candidates == 740 and len(reps) == 65
    assert all(is_saturated(lat) for lat in reps)


def test_consistency_sweep_empty_box():
    report = consistency_sweep(max_n=2, max_coord=2)
    assert report.orbit_count == 0
    assert report.candidate_count == 0
    assert report.mismatches == ()


# ---------------------------------------------------------------------------
# box enumeration and the symmetry-class pass


@pytest.mark.parametrize("max_coord", [1, 2])
def test_zero_sum_gales_match_brute_force(max_coord):
    vectors = _box_vectors(max_coord)
    for n in range(1, 6):
        brute = [
            rows for rows in combinations_with_replacement(vectors, n)
            if sum(x for x, _ in rows) == sum(y for _, y in rows) == 0 and mat_rank(rows) == 2
        ]
        assert _zero_sum_gales(n, max_coord) == brute


def key_every_candidate(max_n, max_coord):
    """The sweep without symmetry classes: filter and key each candidate."""
    reps = {}
    count = 0
    for n in range(3, max_n + 1):
        for rows in _zero_sum_gales(n, max_coord):
            lat = lattice_from_gale(rows)
            if is_saturated(lat) and is_nondegenerate(lat):
                count += 1
                reps.setdefault((n, permutation_canonical_key(lat)), lat)
    return tuple(lat for _, lat in sorted(reps.items())), count


@pytest.mark.parametrize("box", [(5, 2), (6, 2)])
def test_sweep_orbits_match_keying_every_candidate(box):
    assert sweep_orbits(*box) == key_every_candidate(*box)


def test_sweep_box_seven_by_two_counts():
    reps, candidates = sweep_orbits(7, 2)
    assert candidates == 18816
    assert len(reps) == 1775
    assert sum(lat.n == 7 for lat in reps) == 1380


def test_box_orbits_refuse_an_image_never_enumerated(monkeypatch):
    import galereg.searches as searches

    full = searches._zero_sum_gales
    monkeypatch.setattr(searches, "_zero_sum_gales", lambda n, c: full(n, c)[:-1])
    with pytest.raises(InternalInconsistency, match="never enumerated"):
        _box_orbits(range(3, 5), 2, is_saturated)
