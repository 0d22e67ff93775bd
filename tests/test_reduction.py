"""Quadrant partitions, reduced diagrams, support sets, degree drops."""

import pytest

from galereg import reduction
from galereg.errors import (
    BadInput,
    NotAllQuadrants,
    PreconditionNotBalanced,
    PreconditionShape,
    PreconditionUnbalancedPair,
)
from galereg.classify import matches_reg_eq_deg_form
from galereg.fiberhom import degree_and_regularity
from galereg.quadrangle import is_cohen_macaulay, normalize_unit_square
from galereg.reduction import (
    ReductionDatum,
    hits_all_open_quadrants,
    degree_drop_one,
    degree_preserved,
    enumerate_partitions,
    find_reg_eq_deg_partition,
    halfspace_witness,
    is_perfectly_balanced,
    is_simple,
    new_quadrangle,
    reduced_gale,
    support_sets,
)
from galereg.searches import sweep_orbits
from galereg.zlattice import lattice_from_gale

# the worked five-vector example used throughout
W = lattice_from_gale([(1, 1), (-1, 1), (-1, 0), (-1, -1), (2, -1)])
W_PART = ((0,), (1, 2), (3,), (4,))


def w_datum():
    return ReductionDatum(W, W.rows, W_PART)


# ---------------------------------------------------------------------------
# datum construction and partition enumeration


def test_enumerate_partitions_axis_branching():
    # (-1, 0) may go to quadrant 2 or 3; everything else is forced
    parts = enumerate_partitions(W.rows)
    assert parts == [((0,), (1, 2), (3,), (4,)), ((0,), (1,), (2, 3), (4,))]
    # fully interior diagram: a single partition
    g = lattice_from_gale([(1, 1), (-1, 1), (-1, -1), (1, -1)]).rows
    assert enumerate_partitions(g) == [((0,), (1,), (2,), (3,))]


def test_enumerate_partitions_needs_all_quadrants():
    g = lattice_from_gale([(1, 1), (-1, 1), (-1, 0), (1, -2)]).rows
    with pytest.raises(NotAllQuadrants):
        enumerate_partitions(g)


def test_hits_all_open_quadrants():
    assert hits_all_open_quadrants([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    assert not hits_all_open_quadrants([(1, 1), (-1, 1), (-1, -1), (1, 0)])


def test_datum_validation():
    with pytest.raises(BadInput, match="four classes"):
        ReductionDatum(W, W.rows, ((0,), (1, 2), (3, 4)))
    with pytest.raises(BadInput, match="exactly once"):
        ReductionDatum(W, W.rows, ((0,), (1, 2), (3,), (3, 4)))
    with pytest.raises(BadInput, match=r"row 1 = \(-1, 1\) is not in closed quadrant 1"):
        ReductionDatum(W, W.rows, ((0, 1), (2,), (3,), (4,)))
    with pytest.raises(BadInput, match="does not match"):
        ReductionDatum(W, lattice_from_gale([(1, 1), (1, -2), (-2, 1)]).rows,
                       W_PART)


def test_members():
    datum = w_datum()
    assert datum.members(2) == ((-1, 1), (-1, 0))
    assert datum.members(4) == ((2, -1),)


# ---------------------------------------------------------------------------
# reduced diagram


def test_reduced_gale_class_sums():
    g_q, l_q = reduced_gale(w_datum())
    assert g_q == ((1, 1), (-2, 1), (-1, -1), (2, -1))
    assert l_q.rows == g_q
    # each class sum is strictly inside its quadrant by construction
    signs = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    for v, (sx, sy) in zip(g_q, signs):
        assert v[0] * sx > 0 and v[1] * sy > 0


def test_balance():
    assert is_perfectly_balanced(w_datum())
    lat = lattice_from_gale([(2, 1), (-1, 1), (-1, -1), (1, -2), (-1, 1)])
    datum = ReductionDatum(
        lat, lat.rows, ((0,), (1, 4), (2,), (3,))
    )
    assert not is_perfectly_balanced(datum)


# ---------------------------------------------------------------------------
# simplicity


def test_is_simple_sum_shape():
    datum = w_datum()
    holds, witness = is_simple(datum, (2, 4))
    assert holds
    assert witness.side == 2
    assert (witness.v, witness.w) == ((-1, 1), (-1, 0))
    assert witness.shape == "sum"


def test_is_simple_false_with_singletons():
    holds, witness = is_simple(w_datum(), (1, 3))
    assert not holds and witness is None


def test_is_simple_pair_shape():
    lat = lattice_from_gale(
        [(1, 1), (1, 2), (-1, -1), (-1, -2), (-1, 1), (1, -1)]
    )
    datum = ReductionDatum(
        lat, lat.rows, ((0, 1), (4,), (2, 3), (5,))
    )
    holds, witness = is_simple(datum, (1, 3))
    assert holds
    assert witness.shape == "pair"
    assert witness.side == 1
    # ordered so det(v, w) = +1
    assert (witness.v, witness.w) == ((1, 1), (1, 2))


def test_is_simple_unbalanced_pair_precondition():
    lat = lattice_from_gale([(2, 1), (-1, 1), (-1, -1), (1, -2), (-1, 1)])
    datum = ReductionDatum(lat, lat.rows, ((0,), (1, 4), (2,), (3,)))
    with pytest.raises(PreconditionUnbalancedPair):
        is_simple(datum, (1, 3))


# ---------------------------------------------------------------------------
# support sets


def test_support_sets_worked_example():
    s2 = support_sets(w_datum(), 2)
    assert s2.quadrant == 2 and s2.opposite == 4
    assert s2.a == frozenset({(1, 2), (-1, -2)})
    assert s2.b == frozenset({(0, 1), (-1, -1)})
    assert s2.c == s2.a | s2.b
    assert not s2.degenerate_line


def test_support_sets_degenerate_line():
    lat = lattice_from_gale([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    datum = ReductionDatum(lat, lat.rows, ((0,), (1,), (2,), (3,)))
    s1 = support_sets(datum, 1)
    assert s1.degenerate_line
    assert s1.a == frozenset()
    assert s1.b == frozenset({(0, 1), (1, 0)})
    for u in s1.b:
        assert 1 * u[0] + 1 * u[1] == 1  # (1,1).u = 1


def test_pair_solutions_on_a_coincident_line():
    # p = (1, 0), q = -p: u = (1, k) solves both, and b . u = 0 fixes k
    # as -b.(1, 0) / b.(0, 1) when that quotient is an integer
    p, q = (1, 0), (-1, 0)
    assert reduction._pair_solutions(p, q, [(1, 1)]) == (((1, -1),), False)
    assert reduction._pair_solutions(p, q, [(1, 1), (2, 2), (0, 0)]) == (((1, -1),), False)
    assert reduction._pair_solutions(p, q, [(1, 2)]) == ((), False)  # k = -1/2
    assert reduction._pair_solutions(p, q, [(1, 1), (1, -1)]) == ((), False)  # k = -1 and 1
    assert reduction._pair_solutions(p, q, [(1, 0)]) == ((), False)  # b parallel to p
    assert reduction._pair_solutions(p, q, [(0, 0)]) == (((1, 0), (1, -1)), True)


def test_support_sets_bad_quadrant():
    with pytest.raises(BadInput):
        support_sets(w_datum(), 5)


# ---------------------------------------------------------------------------
# halfspace witnesses and degree behavior


def test_halfspace_witness():
    assert halfspace_witness([(1, 0), (0, 1), (1, 1)]) is not None
    assert halfspace_witness([(1, 1), (-1, -1)]) is not None  # boundary allowed
    assert halfspace_witness([(1, 0), (-1, 1), (-1, -1)]) is None
    assert halfspace_witness([]) == (0, 1)
    assert halfspace_witness([(0, 0)]) == (0, 1)
    w = halfspace_witness([(2, 0), (0, 2)])
    assert w is not None and all(w[0] * v[0] + w[1] * v[1] >= 0 for v in [(2, 0), (0, 2)])


def test_degree_preserved_and_drop():
    datum = w_datum()
    assert not degree_preserved(datum)
    assert degree_drop_one(datum)


def test_degree_drop_requires_balance():
    lat = lattice_from_gale([(2, 1), (-1, 1), (-1, -1), (1, -2), (-1, 1)])
    datum = ReductionDatum(lat, lat.rows, ((0,), (1, 4), (2,), (3,)))
    with pytest.raises(PreconditionNotBalanced):
        degree_drop_one(datum)


def test_degree_oracle_chain_on_worked_example():
    datum = w_datum()
    _, l_q = reduced_gale(datum)
    deg_l, reg_l, _ = degree_and_regularity(W)
    deg_q, reg_q, _ = degree_and_regularity(l_q)
    assert (reg_l, reg_q, deg_q, deg_l) == (3, 3, 3, 4)
    assert reg_l <= reg_q <= deg_q <= deg_l
    assert degree_preserved(datum) == (deg_q == deg_l)
    assert degree_drop_one(datum) == (deg_q == deg_l - 1)


# ---------------------------------------------------------------------------
# the quadrangle created by a degree drop


def test_new_quadrangle_worked_example():
    q = new_quadrangle(w_datum())
    assert (q.v, q.w) == ((-1, -1), (0, -1))
    assert q.total_degree == 5
    assert tuple(q.multidegree.representative) == (0, 1, 3, 1)


def test_new_quadrangle_shape_precondition():
    # balanced, but neither diagonal pair is on-a-line and simple
    lat = lattice_from_gale(
        [(1, 1), (1, 2), (-1, -1), (-1, -2), (-1, 1), (1, -2), (0, 1)]
    )
    g = lat.rows
    datum = ReductionDatum(lat, g, ((0, 1), (4, 6), (2, 3), (5,)))
    assert is_perfectly_balanced(datum)
    with pytest.raises(PreconditionShape, match="no diagonal pair"):
        new_quadrangle(datum)


def test_find_reg_eq_deg_partition():
    assert find_reg_eq_deg_partition(W) == W_PART


# ---------------------------------------------------------------------------
# the four-vector lemmas replayed against the oracle on the (6, 2) sweep


def normalized_sweep():
    """(normalized lattice, its partitions) of each non-CM (6, 2) orbit whose
    unit-square normalization hits all four open quadrants."""
    out = []
    for lat in sweep_orbits(6, 2)[0]:
        if is_cohen_macaulay(lat):
            continue
        diagram, _ = normalize_unit_square(lat)
        try:
            partitions = enumerate_partitions(diagram)
        except NotAllQuadrants:
            continue
        out.append((lattice_from_gale(diagram), partitions))
    return out


def test_new_quadrangle_is_a_third_syzygy_on_the_sweep():
    checked = 0
    for normalized, partitions in normalized_sweep():
        for part in partitions:
            datum = ReductionDatum(normalized, normalized.rows, part)
            try:
                drop = degree_drop_one(datum)
            except PreconditionNotBalanced:
                continue
            if not drop:
                continue
            q = new_quadrangle(datum)
            _, l_q = reduced_gale(datum)
            _, _, table = degree_and_regularity(l_q)
            third = {(tuple(e.representative), e.total_degree) for e in table.select(3)}
            assert (tuple(q.multidegree.representative), q.total_degree) in third, part
            checked += 1
    assert checked == 19


def test_reg_eq_deg_partitions_on_the_sweep():
    """Each L_Q has oracle reg = deg, and its diagram is a reg = deg shape."""
    checked = 0
    for normalized, _ in normalized_sweep():
        part = find_reg_eq_deg_partition(normalized)
        if part is None:
            continue
        rows, l_q = reduced_gale(ReductionDatum(normalized, normalized.rows, part))
        deg, reg, _ = degree_and_regularity(l_q)
        assert reg == deg, rows
        assert matches_reg_eq_deg_form(rows) is not None, rows
        checked += 1
    assert checked == 74
