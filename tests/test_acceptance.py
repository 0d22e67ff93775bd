"""Acceptance suite: eight checks, one test (and one report line) each.

Each criterion pins exact integer results; the timed criteria also
assert a generous wall-clock ceiling.  Criteria 4 and 6-8 share the
cached sweep corpus, so the enumeration cost is paid once per run.
"""

import time
from itertools import combinations
from math import comb, gcd

from galereg.classify import (
    MAXIMAL_CI_DIAGRAMS,
    CurveSpec,
    classify_monomial_curve,
    cm_char0_criterion,
)
from galereg.errors import NotAllQuadrants, PreconditionNotBalanced
from galereg.fiberhom import (
    degree_and_regularity,
    degree_and_regularity_of_span,
)
from galereg.intlinalg import integer_kernel
from galereg.quadrangle import (
    enumerate_syzygy_quadrangles,
    is_cohen_macaulay,
    normalize_unit_square,
)
from galereg.reduction import (
    ReductionDatum,
    degree_drop_one,
    degree_preserved,
    enumerate_partitions,
    reduced_gale,
)
from galereg.searches import (
    CM_NONCI_DIAGRAMS,
    check_golden,
    consistency_sweep,
    search_ci_table,
    search_cm_nonci,
    sweep_orbits,
)
from galereg.zlattice import (
    is_saturated,
    kernel_lattice,
    lattice_from_gale,
    permutation_canonical_key,
)


def table_key_index(table):
    out = {}
    for entry in table:
        rows = entry[-1]
        out[permutation_canonical_key(lattice_from_gale(rows))] = entry
    return out


def test_criterion_1_two_quadric_table():
    start = time.perf_counter()
    report = search_ci_table()
    assert report.total_count == 23
    assert report.saturated_count == 14
    expected = table_key_index(MAXIMAL_CI_DIAGRAMS)
    assert set(report.keys) == set(expected)
    for lat, key in zip(report.found, report.keys):
        n, saturated, _ = expected[key]
        assert lat.n == n
        assert is_saturated(lat) == saturated
        # the search keeps deg = 4; the oracle confirms two quadrics, reg 3
        deg, reg, table = degree_and_regularity(lat)
        assert (deg, reg) == (4, 3)
        gens = table.select(1)
        assert sum(e.rank for e in gens) == 2
        assert all(e.total_degree == 2 for e in gens)
    assert check_golden("table1", report)
    assert time.perf_counter() - start < 300


def test_criterion_2_cm_nonci_list():
    start = time.perf_counter()
    report = search_cm_nonci()
    assert report.total_count == 4
    expected = {
        permutation_canonical_key(lattice_from_gale(rows)): saturated
        for saturated, rows in CM_NONCI_DIAGRAMS
    }
    assert set(report.keys) == set(expected)
    for lat, key in zip(report.found, report.keys):
        assert is_saturated(lat) == expected[key]
        deg, reg, table = degree_and_regularity(lat)
        assert (deg, reg) == (3, 2)
        gens = table.select(1)
        assert sum(e.rank for e in gens) == 3
        assert all(e.total_degree == 2 for e in gens)
        syzygies = table.select(2)
        assert sum(e.rank for e in syzygies) == 2
        assert all(e.total_degree == 3 for e in syzygies)
        assert table.max_i() == 2
    assert check_golden("cm-nonci", report)
    assert time.perf_counter() - start < 120


def coprime_pairs(bound=3):
    return [
        (b, c)
        for b in range(-bound, bound + 1)
        for c in range(-bound, bound + 1)
        if b and c and gcd(b, c) == 1
    ]


def test_criterion_3_family_degree_formulas():
    start = time.perf_counter()
    for d in range(3, 9):
        lat = kernel_lattice([(1, 1, 1, 1), (0, 1, d - 1, d)])
        deg, reg, _ = degree_and_regularity(lat)
        assert (deg, reg) == (d, d - 1)
    for b, c in coprime_pairs():
        if (b, c) not in ((1, 1), (-1, -1)):
            lat = kernel_lattice(
                [(1, 0, 0, 1, 0), (0, 1, 1, 0, 1), (1, b, c, 0, 0)]
            )
            deg, reg, _ = degree_and_regularity(lat)
            assert deg == 1 + max(abs(b), abs(c), abs(b - c))
            assert reg == deg - 1
        lat = kernel_lattice(
            [
                (1, 0, 0, 1, 0, 0),
                (0, 1, 0, 0, 1, 0),
                (0, 0, 1, 0, 0, 1),
                (1, b, c, 0, 0, 0),
            ]
        )
        deg, reg, _ = degree_and_regularity(lat)
        assert deg == 1 + abs(b) + abs(c)
        assert reg == deg - 1
    assert time.perf_counter() - start < 300


def test_criterion_4_classifier_oracle_sweep():
    start = time.perf_counter()
    report = consistency_sweep(max_n=6, max_coord=2)
    assert report.candidate_count == 4300
    assert report.orbit_count == 395
    assert report.mismatches == ()
    assert time.perf_counter() - start < 1800


def all_curve_specs(max_n=5, max_d=9):
    for n in range(3, max_n + 1):
        for d in range(2, max_d + 1):
            for middle in combinations(range(1, d), n - 2):
                exponents = (0,) + middle + (d,)
                if gcd(*exponents[1:]) == 1:
                    yield CurveSpec(exponents)


def test_criterion_5_monomial_curves():
    start = time.perf_counter()
    checked = 0
    for spec in all_curve_specs():
        maximal, _, _, _ = classify_monomial_curve(spec)
        columns = integer_kernel(
            [(1,) * spec.n, spec.exponents], spec.n
        )
        deg, reg, _ = degree_and_regularity_of_span(columns)
        assert deg == spec.d
        assert maximal == (reg == deg - spec.n + 3)
        checked += 1
    assert checked == 231
    assert time.perf_counter() - start < 600


def test_criterion_6_quadrangle_homology_duality():
    checked = 0
    for lat in sweep_orbits(6, 2)[0]:
        if is_cohen_macaulay(lat):
            continue
        deg, reg, table = degree_and_regularity(lat)
        quadrangles = enumerate_syzygy_quadrangles(lat, deg + 2)
        from_quadrangles = sorted(
            (tuple(q.multidegree.representative), q.total_degree)
            for q in quadrangles
        )
        from_homology = sorted(
            (tuple(e.representative), e.total_degree)
            for e in table.select(3)
            for _ in range(e.rank)
        )
        assert from_quadrangles == from_homology
        assert reg == max(q.total_degree for q in quadrangles) - 2
        checked += 1
    assert checked == 182


def test_criterion_7_reduction_chain():
    data = 0
    for lat in sweep_orbits(6, 2)[0]:
        if is_cohen_macaulay(lat):
            continue
        diagram, _ = normalize_unit_square(lat)
        normalized = lattice_from_gale(diagram)
        try:
            partitions = enumerate_partitions(diagram)
        except NotAllQuadrants:
            continue
        deg_l, reg_l, _ = degree_and_regularity(normalized)
        for part in partitions:
            datum = ReductionDatum(normalized, diagram, part)
            _, reduced_lattice = reduced_gale(datum)
            deg_q, reg_q, _ = degree_and_regularity(reduced_lattice)
            assert reg_l <= reg_q <= deg_q <= deg_l
            assert degree_preserved(datum) == (deg_q == deg_l)
            try:
                drop = degree_drop_one(datum)
            except PreconditionNotBalanced:
                drop = None
            if drop is not None:
                assert drop == (deg_q == deg_l - 1)
            data += 1
    assert data == 409


def test_criterion_8_cm_fiber_count_thresholds():
    checked = 0
    for lat in sweep_orbits(6, 2)[0]:
        if not is_cohen_macaulay(lat):
            continue
        report = cm_char0_criterion(lat)
        allowed = {comb(lat.n + 1, 2) - 3, comb(lat.n + 1, 2) - 2}
        if report.reg == report.deg - 1:
            assert report.maximal
            assert report.degree2_classes in allowed
            assert report.numerator_ok is True
        else:
            assert not report.maximal
            assert report.degree2_classes not in allowed
        checked += 1
    assert checked == 213
