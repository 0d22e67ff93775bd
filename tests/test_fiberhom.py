"""Fiber homology oracle: Betti tables, Hilbert data, polytopes."""

from itertools import combinations
from math import comb

import pytest

import galereg.fiberhom as fiberhom
from galereg.errors import BadInput, Degenerate, InternalInconsistency, NotHomogeneous, RankDeficient
from galereg.fiberhom import (
    betti_table,
    degree_and_regularity,
    degree_and_regularity_of_span,
    fiber_of,
    hilbert_degree,
    hilbert_function,
    hilbert_numerator,
    polygon_of,
    reg_deg_via_hilbert,
    regularity_from_numerator,
)
from galereg.zlattice import Lattice, kernel_lattice, lattice_from_gale
from shared import (
    CI_22,
    CM_NONCI_N3,
    RP2,
    TWISTED_CUBIC,
    brute_fibers,
    fiber_multiset,
    n4_family,
    naive_hilbert,
)


# ---------------------------------------------------------------------------
# simplicial homology spot checks


def masks(facets):
    return tuple(sorted(sum(1 << v for v in f) for f in facets))


def homology(facets, top):
    return fiberhom._homology_ranks(masks(facets), top, None)


def test_homology_of_classical_complexes():
    # two isolated points: one reduced 0-cycle
    assert homology([(0,), (1,)], top=1) == (1, 0)
    # hollow triangle: a circle
    assert homology([(0, 1), (1, 2), (0, 2)], top=2) == (0, 1, 0)
    # filled triangle: contractible
    assert homology([(0, 1, 2)], top=2) == (0, 0, 0)
    # hollow tetrahedron: a 2-sphere
    assert homology(list(combinations(range(4), 3)), top=2) == (0, 0, 1)


def test_core_keeps_maximal_faces():
    assert fiberhom._core(masks([(0, 1), (0, 1, 2), (2,)])) == (1,)
    # a hollow triangle on vertices 1, 3, 4 with some of its faces, relabelled
    circle = [(1, 3), (3, 4), (1, 4), (1,), (3, 4)]
    assert fiberhom._core(masks(circle)) == masks([(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------------------
# independent brute-force cross-check of the fiber grouping


@pytest.mark.parametrize("lat", [TWISTED_CUBIC, CI_22, CM_NONCI_N3, n4_family(4)])
def test_hilbert_function_against_naive_grouping(lat):
    for d in range(6):
        assert hilbert_function(lat, d) == naive_hilbert(lat, d)


@pytest.mark.parametrize("lat", [TWISTED_CUBIC, CI_22, CM_NONCI_N3, n4_family(4)])
def test_big_integer_fallback_matches_numpy(lat, monkeypatch):
    # the closure's fibers are the live classes of the exact key
    assert (fiber_multiset(fiberhom._live_fibers(lat.rows, 4))
            == brute_fibers(lat.rows, range(1, 5)))
    ctx = fiberhom._ctx(lat.rows)
    fast = [fiberhom._degree_data(ctx, d) for d in range(5)]
    monkeypatch.setattr(fiberhom, "_INT64_SAFE", 0)
    assert [fiberhom._degree_data(ctx, d) for d in range(5)] == fast


@pytest.mark.parametrize("d", [255, 256, 300])
def test_narrow_exponents_match_big_integer_fallback(d, monkeypatch):
    # uint8 exponents through degree 255, uint16 above: the int64 key must
    # not be computed in either narrow dtype, where 3 * 255 already wraps
    ctx = fiberhom._ctx(CM_NONCI_N3.rows)
    count = fiberhom._degree_data(ctx, d)
    hf = hilbert_function(CM_NONCI_N3, d)
    # all three classes are live here: each is the fiber polygon of its least member
    fibers = [fiber_of(CM_NONCI_N3, (0, k, d - k)) for k in range(3)]
    monkeypatch.setattr(fiberhom, "_INT64_SAFE", 0)
    slow_count = fiberhom._degree_data(ctx, d)
    assert hf == count == slow_count == hilbert_degree(CM_NONCI_N3)
    assert [(d, f.monomials) for f in fibers] == brute_fibers(CM_NONCI_N3.rows, [d])


@pytest.mark.parametrize("n, d, itemsize", [(3, 0, 1), (4, 7, 1), (6, 12, 1), (3, 255, 1), (3, 256, 2)])
def test_compositions_are_compact_read_only_and_in_lex_order(n, d, itemsize):
    exps = fiberhom._compositions(n, d)
    assert not exps.flags.writeable
    assert exps.nbytes == comb(d + n - 1, n - 1) * n * itemsize
    assert exps.T.tolist() == sorted(map(list, fiberhom._py_compositions(n, d)))


def test_closure_grid_refuses_int64_overflow(monkeypatch):
    monkeypatch.setattr(fiberhom, "_INT64_SAFE", 1 << 4)
    with pytest.raises(BadInput, match="int64"):
        next(fiberhom._live_fibers(n4_family(9).rows, 11))
    with pytest.raises(BadInput, match="int64 grid of the fiber polygon"):
        polygon_of(TWISTED_CUBIC, (3, 3, 3, 3))


def test_grid_box_is_capped_before_allocation(monkeypatch):
    # G_2000 of this diagram has a 4001 x 4001 bounding box; the estimate
    # alone refuses it, so nothing is allocated
    monkeypatch.setattr(fiberhom.np, "meshgrid", None)
    with pytest.raises(BadInput, match=f"has {4001 ** 2} points"):
        fiberhom.gh_grid(((1, 0), (0, 1), (-1, -1)), 2000)
    # a fiber polygon meets the same cap: the polygon of (3000, 3000, 3000,
    # 3000) holds 18,006,001 points in a box of 54,015,001
    for query in (polygon_of, fiber_of):
        with pytest.raises(BadInput, match=f"has 54015001 points, above the cap of {fiberhom.GRID_CAP}"):
            query(TWISTED_CUBIC, (3000,) * 4)


def test_closure_masks_are_capped_before_allocation(monkeypatch):
    # n (H + 1) masks of |G_H| bits: one bit over the cap refuses before
    # any mask is packed, and the message carries the estimate
    rows, horizon = n4_family(9).rows, 11
    bits = len(rows) * (horizon + 1) * len(fiberhom.gh_grid(rows, horizon)[1])
    monkeypatch.setattr(fiberhom, "MASK_CAP", bits - 1)
    monkeypatch.setattr(fiberhom.np, "packbits", None)
    with pytest.raises(BadInput, match=f"need {bits} bits, above the cap of {bits - 1}"):
        next(fiberhom._live_fibers(rows, horizon))


def test_hilbert_counts_are_capped_before_allocation(monkeypatch):
    # six variables list C(46, 6) monomials through degree 40 and C(50, 5)
    # in degree 45 alone; the estimate alone refuses them, so no
    # composition is built and numpy is never reached
    monkeypatch.setattr(fiberhom, "_compositions", None)
    monkeypatch.setattr(fiberhom, "np", None)
    lat = lattice_from_gale([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])
    cap = fiberhom.MONOMIAL_CAP
    with pytest.raises(BadInput, match=f"degree <= 40 .* number {comb(46, 6)}, above the cap of {cap}"):
        hilbert_numerator(lat, 40)
    with pytest.raises(BadInput, match=f"degree 45 .* number {comb(50, 5)}, above the cap of {cap}"):
        hilbert_function(lat, 45)


def test_hilbert_function_budgets_its_degree_alone(monkeypatch):
    # degree 40 alone holds C(45, 5) < 2^21 monomials, though C(46, 6) > 2^21
    # lie through degree 40, so hilbert_function(40) stays under the cap
    assert comb(45, 5) <= fiberhom.MONOMIAL_CAP < comb(46, 6)
    fiberhom._monomial_budget(6, 40, cumulative=False)
    monkeypatch.setattr(fiberhom, "MONOMIAL_CAP", comb(45, 5) - 1)
    with pytest.raises(BadInput, match=f"degree 40 in 6 variables number {comb(45, 5)}"):
        fiberhom._monomial_budget(6, 40, cumulative=False)


def test_monomial_cap_admits_six_variables_through_degree_30():
    fiberhom._monomial_budget(6, 30)  # C(36, 6) = 1,947,792
    with pytest.raises(BadInput, match=f"number {comb(37, 6)}"):
        fiberhom._monomial_budget(6, 31)


def test_curve_oracle_counts_its_monomials_before_listing(monkeypatch):
    # the rank-3 branch of _table meets the same budget before grouping
    columns = [(1, -2, 1, 0, 0), (0, 1, -2, 1, 0), (0, 0, 1, -2, 1)]
    rows, horizon = tuple(zip(*columns)), 5  # the rational normal quartic, degree 4
    count = comb(horizon + 5, 5)
    monkeypatch.setattr(fiberhom, "MONOMIAL_CAP", count - 1)
    monkeypatch.setattr(fiberhom, "_compositions", None)
    with pytest.raises(BadInput, match=f"number {count}, above the cap of {count - 1}"):
        fiberhom._table.__wrapped__(rows, horizon, None)


def test_wide_diagram_fibers_share_the_memo():
    # 16 Gale vectors: the facet keys grow with the complex, not with 2^16
    rows = lattice_from_gale([(1, 0)] * 4 + [(-1, 0)] * 4 + [(0, 1)] * 4 + [(0, -1)] * 4).rows
    table = fiberhom._table.__wrapped__(rows, 18, None)
    assert [(e.i, e.total_degree) for e in table.entries] == [(1, 4), (1, 4), (2, 8)]


def test_rp2_is_its_own_core_and_its_cone_a_point():
    assert fiberhom._core(RP2) == tuple(sorted(RP2))
    assert fiberhom._core([m | 1 << 6 for m in RP2]) == (1,)


@pytest.mark.parametrize("fields", [(None, 2), (2, None)])
def test_homology_memo_keys_on_the_field(fields):
    core = fiberhom._core(RP2)
    expected = {None: (0, 0, 0), 2: (0, 1, 1)}
    fiberhom._homology_ranks.cache_clear()
    for field in fields:
        assert fiberhom._homology_ranks(core, 2, field) == expected[field]


def test_hilbert_function_negative_degree():
    assert hilbert_function(TWISTED_CUBIC, -1) == 0


# ---------------------------------------------------------------------------
# pinned oracle values


def test_twisted_cubic_resolution():
    deg, reg, table = degree_and_regularity(TWISTED_CUBIC)
    assert (deg, reg) == (3, 2)
    gens = table.select(1)
    assert sum(e.rank for e in gens) == 3
    assert all(e.total_degree == 2 for e in gens)
    syz = table.select(2)
    assert sum(e.rank for e in syz) == 2
    assert all(e.total_degree == 3 for e in syz)
    assert table.max_i() == 2


def test_ci_two_quadrics():
    deg, reg, table = degree_and_regularity(CI_22)
    assert (deg, reg) == (4, 3)
    gens = table.select(1)
    assert sum(e.rank for e in gens) == 2
    assert all(e.total_degree == 2 for e in gens)
    # Koszul relation in total degree 4
    syz = table.select(2)
    assert sum(e.rank for e in syz) == 1
    assert all(e.total_degree == 4 for e in syz)


def test_cm_nonci_nonsaturated():
    deg, reg, table = degree_and_regularity(CM_NONCI_N3)
    assert (deg, reg) == (3, 2)
    assert sum(e.rank for e in table.select(1)) == 3


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_n4_family_degree_and_regularity(d):
    deg, reg, _ = degree_and_regularity(n4_family(d))
    assert (deg, reg) == (d, d - 1)


def test_field_choice_matches_rational_here():
    for p in (2, 5):
        deg, reg, _ = degree_and_regularity(TWISTED_CUBIC, field=p)
        assert (deg, reg) == (3, 2)


def test_degree_and_regularity_rejects_degenerate():
    lat = kernel_lattice([(1, 0, 0, 1, 0), (0, 1, 1, 0, 1), (1, 1, 1, 0, 0)])
    with pytest.raises(Degenerate):
        degree_and_regularity(lat)


def test_oracle_degree_checked_against_gale_degree(monkeypatch):
    for wrong in (2, 4):  # the twisted cubic has degree 3
        monkeypatch.setattr(fiberhom, "hilbert_degree", lambda lattice: wrong)
        with pytest.raises(InternalInconsistency):
            degree_and_regularity(TWISTED_CUBIC)


# deg 3 = reg 3, with two third syzygies at total degree 5 = deg + 2
REG_EQ_DEG = lattice_from_gale([(1, 1), (1, -2), (-1, -1), (-1, 2)])


def test_oracle_reaches_the_proven_horizon():
    deg, reg, table = degree_and_regularity(REG_EQ_DEG)
    assert (deg, reg) == (3, 3)
    assert table.horizon == fiberhom.betti_horizon(deg) == 5
    top = [e for e in table.entries if e.total_degree == 5]
    assert [(e.i, e.rank) for e in top] == [(3, 1), (3, 1)]


def test_betti_sums_reject_a_truncated_table():
    # the moments sum_t K_t binom(t, k), k = 0, 1, 2, miss the two
    # third syzygies at total degree 5
    with pytest.raises(InternalInconsistency, match=r"\(2, 10, 23\).*\(0, 0, 3\)"):
        fiberhom._certified(REG_EQ_DEG.rows, 3, 4, None)


def test_reg_deg_via_hilbert_and_degree():
    assert reg_deg_via_hilbert(TWISTED_CUBIC) == (2, 3)
    assert reg_deg_via_hilbert(CI_22) == (3, 4)
    assert hilbert_degree(n4_family(5)) == 5
    assert regularity_from_numerator(hilbert_numerator(TWISTED_CUBIC, 8), 3) == 2
    with pytest.raises(InternalInconsistency):
        regularity_from_numerator((1, 0, -3, 2, 0, 0, 1), 3)


def test_hilbert_numerator():
    # numerator over (1-t)^n: (1+2t)(1-t)^2 resp. (1+2t+t^2)(1-t)^2
    assert hilbert_numerator(TWISTED_CUBIC, 3) == (1, 0, -3, 2)
    assert hilbert_numerator(CI_22, 4) == (1, 0, -2, 0, 1)


def test_betti_table_function_matches_oracle():
    _, _, table = degree_and_regularity(TWISTED_CUBIC)
    alt = betti_table(TWISTED_CUBIC, horizon=4)
    key = lambda e: (e.i, e.total_degree, tuple(e.representative), e.rank)
    assert sorted(map(key, alt.entries)) == sorted(
        key(e) for e in table.entries if e.total_degree <= 4
    )
    with pytest.raises(BadInput):
        betti_table(TWISTED_CUBIC, horizon=1)


# ---------------------------------------------------------------------------
# rank-general span oracle (monomial curves)


def curve_lattice_columns(exponents):
    a = [tuple(1 for _ in exponents), tuple(exponents)]
    from galereg.intlinalg import integer_kernel

    return integer_kernel(a, len(exponents))


def test_span_oracle_plane_curve():
    cols = curve_lattice_columns((0, 1, 3))
    deg, reg, _ = degree_and_regularity_of_span(cols)
    assert (deg, reg) == (3, 3)  # principal ideal of degree 3


def test_span_oracle_rank_two_matches_lattice_oracle():
    cols = [(1, -2, 1, 0), (0, 1, -2, 1)]
    assert degree_and_regularity_of_span(cols)[:2] == (3, 2)


def test_span_oracle_monomial_curve_n4():
    cols = curve_lattice_columns((0, 1, 4, 5))
    deg, reg, _ = degree_and_regularity_of_span(cols)
    assert (deg, reg) == (5, 4)


@pytest.mark.parametrize("exponents", [(0, 1, 3), (0, 2, 5), (0, 1, 2, 5, 7), (0, 2, 3, 7, 9)])
def test_curve_horizon_misses_nothing(exponents):
    cols = curve_lattice_columns(exponents)
    deg, _, table = degree_and_regularity_of_span(cols)
    assert table.horizon == deg + 1
    wider = fiberhom._table(tuple(zip(*cols)), deg + 3, None)
    assert wider.entries == table.entries


# the span of the curve (0, 1, 2, 5, 7) in another basis: both grades of
# its integer kernel, (1, 0, -1, -4, -6) and (2, 1, 0, -3, -5), change sign
MIXED_SIGN_SPAN = [(-1, 0, 1, 1, -1), (4, -5, 0, 1, 0), (6, -7, 0, 0, 1)]


@pytest.mark.parametrize("columns", [curve_lattice_columns(e) for e in ((0, 1, 3), (0, 2, 5), (0, 1, 2, 5, 7),
                                                                        (0, 2, 3, 7, 9))] + [MIXED_SIGN_SPAN])
def test_grading_key_groups_span_fibers_as_the_exact_key(columns, monkeypatch):
    rows = tuple(zip(*columns))
    horizon = degree_and_regularity_of_span(columns)[2].horizon
    expected = sorted((d, fiber[0], sorted({sum(1 << j for j, x in enumerate(a) if x) for a in fiber}))
                      for d, fiber in brute_fibers(rows, range(1, horizon + 1)))

    def grouped():
        return sorted((d, rep, sorted(masks)) for d, (rep,), masks in fiberhom._span_fibers(rows, horizon))

    assert grouped() == expected
    table = fiberhom._table.__wrapped__(rows, horizon, None)
    # with the int64 bound forced to 0, the keys are the exact tuples K a
    monkeypatch.setattr(fiberhom, "_INT64_SAFE", 0)
    assert grouped() == expected
    assert fiberhom._table.__wrapped__(rows, horizon, None) == table


def test_span_oracle_answers_every_basis_of_a_span():
    same = curve_lattice_columns((0, 1, 2, 5, 7))
    assert degree_and_regularity_of_span(MIXED_SIGN_SPAN) == degree_and_regularity_of_span(same)


def test_span_oracle_rejects_unsupported_spans():
    rank3_n6 = [(1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, -1)]
    with pytest.raises(BadInput):
        degree_and_regularity_of_span(rank3_n6)
    c1, c2, c3 = curve_lattice_columns((0, 1, 2, 3, 5))
    with pytest.raises(BadInput):
        degree_and_regularity_of_span([tuple(2 * x for x in c1), c2, c3])
    with pytest.raises(BadInput):
        degree_and_regularity_of_span([c1, c2, tuple(a + b for a, b in zip(c1, c2))])
    with pytest.raises(NotHomogeneous):
        degree_and_regularity_of_span([(1, -2, 1, 0, 0), (2, -3, 0, 1, 0), (4, -4, 0, 0, 1)])


# ---------------------------------------------------------------------------
# fibers and polytopes


def test_fiber_of():
    fib = fiber_of(TWISTED_CUBIC, (0, 2, 0, 0))
    assert fib.total_degree == 2
    assert set(fib.monomials) == {(0, 2, 0, 0), (1, 0, 1, 0)}


def test_polygon_of_counts_fiber():
    fib = fiber_of(TWISTED_CUBIC, (1, 1, 1, 0))
    poly = polygon_of(TWISTED_CUBIC, (1, 1, 1, 0))
    assert len(poly.points) == len(fib.monomials)
    for query in (polygon_of, fiber_of):
        with pytest.raises(BadInput, match="nonnegative"):
            query(TWISTED_CUBIC, (1, -1, 1, 0))
        with pytest.raises(BadInput, match="length 3"):
            query(TWISTED_CUBIC, (1, 1, 1))
    # the diagrams whose polygons would be unbounded (a rank-1 one holds
    # the line x = 0, an all-zero one the plane) are no lattices at all
    with pytest.raises(RankDeficient):
        Lattice(((1, 0), (1, 0), (-2, 0)))
    with pytest.raises(RankDeficient):
        Lattice(((0, 0), (0, 0), (0, 0)))
    # only u = 0 has b_i . u <= 0 for the last three Gale vectors, whatever
    # a_1 is; a is clipped to the box's int64 bound before the compare
    big = (2 ** 70, 0, 0, 0)
    assert polygon_of(TWISTED_CUBIC, big).points == ((0, 0),)
    assert fiber_of(TWISTED_CUBIC, big).monomials == (big,)


def test_hilbert_function_growth_is_degree():
    # first differences eventually equal the degree (a projective curve)
    for lat, deg in [(TWISTED_CUBIC, 3), (CI_22, 4)]:
        for d in range(8, 12):
            assert hilbert_function(lat, d) - hilbert_function(lat, d - 1) == deg
