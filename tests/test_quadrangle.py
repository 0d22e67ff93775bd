"""Syzygy quadrangles, complete intersections, Cohen-Macaulay checks."""

import pytest

from galereg.errors import PreconditionCI, PreconditionCM
from galereg.fiberhom import degree_and_regularity, hilbert_degree
from galereg.quadrangle import (
    enumerate_syzygy_quadrangles,
    is_cohen_macaulay,
    is_complete_intersection,
    normalize_unit_square,
    regularity_fast,
)
from galereg.zlattice import gale_equivalent, lattice_from_gale
from shared import CI_22, CM_NONCI_N3, TWISTED_CUBIC, n4_family

REG_EQ_DEG = lattice_from_gale([(1, 1), (2, -1), (-1, -1), (-2, 1)])


# ---------------------------------------------------------------------------
# complete intersections


def test_is_complete_intersection_pinned():
    assert is_complete_intersection(CI_22)
    assert not is_complete_intersection(TWISTED_CUBIC)
    assert not is_complete_intersection(CM_NONCI_N3)
    assert not is_complete_intersection(n4_family(4))


def test_ci_needs_both_axis_orientations():
    # imbalanceable along +(0,1) but not -(0,1); a one-sided direction
    # scan would misclassify this diagram
    lat = lattice_from_gale([(0, 1), (1, -1), (-1, 0)])
    assert is_complete_intersection(lat)


def test_ci_table_entries_are_ci():
    from galereg.classify import MAXIMAL_CI_DIAGRAMS

    for _, _, rows in MAXIMAL_CI_DIAGRAMS[:6]:
        assert is_complete_intersection(lattice_from_gale(rows))


# ---------------------------------------------------------------------------
# quadrangle enumeration


def test_enumerate_refuses_complete_intersections():
    with pytest.raises(PreconditionCI):
        enumerate_syzygy_quadrangles(CI_22, 6)


def test_n4_family_single_quadrangle():
    lat = n4_family(4)
    quads = enumerate_syzygy_quadrangles(lat, hilbert_degree(lat) + 2)
    assert len(quads) == 1
    q = quads[0]
    assert (q.v, q.w) == ((-1, 0), (-1, 1))
    assert q.total_degree == 5
    assert q.multidegree.total_degree == 5
    doc = q.to_json_dict()
    assert set(doc) == {"v", "w", "rep", "total"}
    assert doc["total"] == 5


def test_quadrangle_multidegree_formula():
    lat = n4_family(4)
    (q,) = enumerate_syzygy_quadrangles(lat, 6)
    v, w = q.v, q.w
    vw = (v[0] + w[0], v[1] + w[1])
    a = tuple(
        max(
            0,
            b[0] * v[0] + b[1] * v[1],
            b[0] * w[0] + b[1] * w[1],
            b[0] * vw[0] + b[1] * vw[1],
        )
        for b in lat.rows
    )
    assert sum(a) == q.total_degree
    assert q.multidegree.representative in q.multidegree.monomials
    assert a in q.multidegree.monomials


def test_quadrangles_empty_for_cm_nonci():
    assert list(enumerate_syzygy_quadrangles(CM_NONCI_N3, 10)) == []


def test_reg_eq_deg_lattice_quadrangles():
    quads = enumerate_syzygy_quadrangles(REG_EQ_DEG, hilbert_degree(REG_EQ_DEG) + 2)
    assert quads
    assert max(q.total_degree for q in quads) == 5


# ---------------------------------------------------------------------------
# Cohen-Macaulay and fast regularity


def test_is_cohen_macaulay():
    assert is_cohen_macaulay(CI_22)  # complete intersections are CM
    assert is_cohen_macaulay(TWISTED_CUBIC)
    assert is_cohen_macaulay(CM_NONCI_N3)
    assert not is_cohen_macaulay(n4_family(4))
    assert not is_cohen_macaulay(REG_EQ_DEG)
    assert is_cohen_macaulay(n4_family(3))  # d = 3 member is CM


@pytest.mark.parametrize(
    "lat",
    [TWISTED_CUBIC, CI_22, CM_NONCI_N3, REG_EQ_DEG, n4_family(4), n4_family(5)],
)
def test_regularity_fast_matches_oracle(lat):
    _, reg, _ = degree_and_regularity(lat)
    assert regularity_fast(lat) == reg


def test_regularity_fast_non_cm_is_max_total_minus_two():
    lat = n4_family(5)
    quads = enumerate_syzygy_quadrangles(lat, hilbert_degree(lat) + 2)
    assert regularity_fast(lat) == max(q.total_degree for q in quads) - 2


# ---------------------------------------------------------------------------
# unit-square normalization


def test_normalize_identity_when_unit_square_attains():
    diagram, u = normalize_unit_square(REG_EQ_DEG)
    assert tuple(diagram) == REG_EQ_DEG.rows
    assert u == ((1, 0), (0, 1))


def test_normalize_transforms_n4_family():
    lat = n4_family(4)
    diagram, u = normalize_unit_square(lat)
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
    assert gale_equivalent(lat.rows, tuple(diagram))
    # after normalization the unit-square class attains the maximum total
    new_lat = lattice_from_gale(diagram)
    quads = enumerate_syzygy_quadrangles(new_lat, hilbert_degree(new_lat) + 2)
    best = max(q.total_degree for q in quads)
    assert any(
        (q.v, q.w) == ((-1, 0), (0, -1)) and q.total_degree == best for q in quads
    )


def test_normalize_refuses_cm():
    with pytest.raises(PreconditionCM):
        normalize_unit_square(TWISTED_CUBIC)
    with pytest.raises(PreconditionCM):
        normalize_unit_square(CI_22)
