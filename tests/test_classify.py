"""Curve patterns, Cohen-Macaulay criteria, and the maximality classifier."""

import pytest
from hypothesis import given, settings, strategies as st

import galereg.classify as classify
from galereg.classify import (
    MAXIMAL_CI_DIAGRAMS,
    CurveSpec,
    classify_cm_nonci,
    classify_maximal,
    classify_monomial_curve,
    cm_char0_criterion,
    koszul_reg_deg,
    match_family_forms,
    matches_n4_maximal_form,
    matches_reg_eq_deg_form,
)
from galereg.errors import (
    AmbientTooSmall,
    BadInput,
    Degenerate,
    DegreeOne,
    GcdNotOne,
    NotIncreasing,
    NotSaturated,
    PreconditionNotCM,
    PreconditionNotCMnonCI,
)
from galereg.fiberhom import degree_and_regularity, hilbert_degree
from galereg.intlinalg import det2
from galereg.quadrangle import is_cohen_macaulay, is_complete_intersection, normalize_unit_square
from galereg.searches import CM_NONCI_DIAGRAMS, sweep_orbits
from galereg.zlattice import (
    apply_right,
    is_saturated,
    kernel_lattice,
    lattice_from_basis,
    lattice_from_gale,
    permutation_canonical_key,
)
from shared import CI_22, CM_NONCI_N3, TWISTED_CUBIC, gale_equivalent_by_search, n4_family


# ---------------------------------------------------------------------------
# monomial curves


def test_curve_spec_validation():
    with pytest.raises(AmbientTooSmall):
        CurveSpec((0, 1))
    with pytest.raises(BadInput):
        CurveSpec((1, 2, 3))
    with pytest.raises(NotIncreasing):
        CurveSpec((0, 2, 2, 3))
    with pytest.raises(GcdNotOne):
        CurveSpec((0, 2, 4))


def test_curve_spec_statistics():
    spec = CurveSpec((0, 1, 4, 5))
    assert (spec.n, spec.d) == (4, 5)
    assert spec.longest_gap() == 2
    assert spec.symmetric_run() == 1


def test_plane_curves_always_maximal():
    assert classify_monomial_curve(CurveSpec((0, 1, 3))) == (True, "PLANE_CURVE", 1, 0)
    assert classify_monomial_curve(CurveSpec((0, 2, 5)))[:2] == (True, "PLANE_CURVE")


def test_low_degree_curves_maximal():
    assert classify_monomial_curve(CurveSpec((0, 1, 2, 3)))[:2] == (True, "LOW_DEGREE")
    assert classify_monomial_curve(CurveSpec((0, 1, 3, 4)))[:2] == (True, "LOW_DEGREE")


def test_run_with_jump_patterns():
    assert classify_monomial_curve(CurveSpec((0, 1, 4, 5))) == (
        True,
        "RUN_AT_BOTTOM",
        2,
        1,
    )
    assert classify_monomial_curve(CurveSpec((0, 1, 5, 6, 7)))[:2] == (
        True,
        "RUN_AT_TOP",
    )


def test_curve_not_maximal():
    maximal, case, _, _ = classify_monomial_curve(CurveSpec((0, 2, 3, 7)))
    assert not maximal and case == "NOT_MAXIMAL"


# ---------------------------------------------------------------------------
# complete intersections from generator degrees


def test_koszul_reg_deg():
    assert koszul_reg_deg((2, 2)) == (3, 4, True)
    assert koszul_reg_deg((3,)) == (3, 3, True)
    assert koszul_reg_deg((2, 3)) == (4, 6, False)
    assert koszul_reg_deg((2, 2, 2)) == (4, 8, False)


def test_koszul_rejects_bad_degrees():
    with pytest.raises(DegreeOne):
        koszul_reg_deg((1, 2))
    with pytest.raises(BadInput):
        koszul_reg_deg(())
    with pytest.raises(BadInput):
        koszul_reg_deg((2, 0))


# ---------------------------------------------------------------------------
# Cohen-Macaulay non complete intersections


def test_cm_nonci_maximal_list():
    for _, rows in CM_NONCI_DIAGRAMS:
        assert classify_cm_nonci(lattice_from_gale(rows))


def test_cm_nonci_not_maximal():
    lat = lattice_from_gale([(1, 1), (2, -3), (-3, 2)])
    assert not classify_cm_nonci(lat)
    deg, reg, _ = degree_and_regularity(lat)
    assert (deg, reg) == (5, 3)


def test_cm_nonci_preconditions():
    with pytest.raises(PreconditionNotCMnonCI):
        classify_cm_nonci(CI_22)
    with pytest.raises(PreconditionNotCMnonCI):
        classify_cm_nonci(n4_family(4))


# ---------------------------------------------------------------------------
# the fiber-count criterion


def test_cm_char0_three_quadrics():
    r = cm_char0_criterion(TWISTED_CUBIC)
    assert r.maximal
    assert r.degree2_classes == 7
    assert r.thresholds == (7, 8)
    assert r.quadric_generators == 3
    assert (r.reg, r.deg) == (2, 3)
    assert r.numerator == (1, 2)
    assert r.numerator_ok


def test_cm_char0_two_quadrics():
    r = cm_char0_criterion(CI_22)
    assert r.maximal
    assert r.degree2_classes == 8
    assert r.quadric_generators == 2
    assert (r.reg, r.deg) == (3, 4)
    assert r.numerator == (1, 2, 1)
    assert r.numerator_ok


def test_cm_char0_not_maximal():
    r = cm_char0_criterion(lattice_from_gale([(0, 2), (3, 0), (0, -2), (-3, 0)]))
    assert not r.maximal
    assert r.degree2_classes == 9
    assert r.degree2_classes not in r.thresholds
    assert r.quadric_generators == 1
    assert (r.reg, r.deg) == (4, 6)
    assert r.numerator is None and r.numerator_ok is None
    assert r.to_json_dict()["numerator"] is None


def test_cm_char0_needs_cm():
    with pytest.raises(PreconditionNotCM):
        cm_char0_criterion(n4_family(4))


# ---------------------------------------------------------------------------
# family form matchers


def test_match_family_forms():
    assert match_family_forms(((2, 1), (1, 0), (0, 1), (-2, -1), (-1, -1))) == (
        "N5_FAMILY",
        {"u": (2, 1), "v": (0, 1), "w": (-1, -1)},
    )
    assert match_family_forms(
        ((2, 1), (-2, -1), (1, 0), (-1, 0), (0, 1), (0, -1))
    ) == ("N6_FAMILY", {"u": (0, 1), "v": (2, 1), "w": (1, 0)})
    # opposite pair exists but no decomposition avoids the zero determinants
    assert match_family_forms(((1, 1), (2, 1), (-1, 0), (-1, -1), (-1, -1))) is None
    assert match_family_forms(((1, 1),) * 4 + ((-1, -1),) * 3) is None  # 7 vectors
    with pytest.raises(BadInput):
        match_family_forms(((1, 1), (0, 0), (-1, -1)))


def test_match_family_forms_n4():
    rows = TWISTED_CUBIC.rows
    assert match_family_forms(rows) == ("N4_FAMILY", {"d": 3})
    assert match_family_forms(n4_family(5).rows) == ("N4_FAMILY", {"d": 5})


def test_n4_family_degree_is_its_parameter():
    for d in range(3, 61):
        assert hilbert_degree(lattice_from_gale(classify._n4_family_diagram(d))) == d


def _match_n4_by_degree_loop(vs):
    """The matcher as a search: try every family member of degree <= deg I_L."""
    degree = hilbert_degree(lattice_from_gale(vs))
    for d in range(3, max(3, degree) + 1):
        if gale_equivalent_by_search(vs, classify._n4_family_diagram(d), up_to_permutation=True):
            return "N4_FAMILY", {"d": d}
    return None


def test_match_n4_agrees_with_the_degree_loop():
    """On the n' = 4 sweep orbits, and on the wider box of coordinates <= 4."""
    four = {lat.rows for lat in sweep_orbits(6, 2)[0] + sweep_orbits(4, 4)[0] if lat.n == 4}
    matched = 0
    for vs in sorted(four):
        expected = _match_n4_by_degree_loop(vs)
        assert classify._match_n4(vs) == expected, vs
        matched += expected is not None
    assert 0 < matched < len(four)


def test_matches_n4_maximal_form():
    assert matches_n4_maximal_form(((1, 1), (-1, 2), (-1, 0), (1, -3))) == (1, 3)
    assert matches_n4_maximal_form(((1, 0), (-2, 1), (1, -2), (0, 1))) is None
    with pytest.raises(BadInput):
        matches_n4_maximal_form(((1, 0), (0, 1), (-1, -1)))


#: Every saturated, non-Cohen-Macaulay four-row diagram with reg = deg - 1
#: among the multisets of four nonzero vectors with coordinates <= 4 that
#: sum to zero (``searches._zero_sum_gales(4, 4)``, 9,656 of them), found
#: once with the oracle.  All 100 are nondegenerate.
N4_MAXIMA = (
    ((-4, -3), (-2, -3), (3, 2), (3, 4)), ((-4, -3), (-1, -2), (2, 3), (3, 2)),
    ((-4, -3), (0, -1), (1, 2), (3, 2)), ((-4, -3), (0, 1), (1, 0), (3, 2)),
    ((-4, -1), (-3, 1), (3, 1), (4, -1)), ((-4, -1), (-2, 1), (3, -1), (3, 1)),
    ((-4, -1), (-1, 1), (2, -1), (3, 1)), ((-4, -1), (0, -1), (1, 1), (3, 1)),
    ((-4, -1), (0, 1), (1, -1), (3, 1)), ((-4, 1), (-3, -1), (3, -1), (4, 1)),
    ((-4, 1), (-2, -1), (3, -1), (3, 1)), ((-4, 1), (-1, -1), (2, 1), (3, -1)),
    ((-4, 1), (0, -1), (1, 1), (3, -1)), ((-4, 1), (0, 1), (1, -1), (3, -1)),
    ((-4, 3), (-2, 3), (3, -4), (3, -2)), ((-4, 3), (-1, 2), (2, -3), (3, -2)),
    ((-4, 3), (0, -1), (1, 0), (3, -2)), ((-4, 3), (0, 1), (1, -2), (3, -2)),
    ((-3, -4), (-3, -2), (2, 3), (4, 3)), ((-3, -4), (-2, -1), (2, 3), (3, 2)),
    ((-3, -4), (-1, 0), (2, 1), (2, 3)), ((-3, -4), (0, 1), (1, 0), (2, 3)),
    ((-3, -2), (-2, -3), (1, 2), (4, 3)), ((-3, -2), (-2, -3), (2, 1), (3, 4)),
    ((-3, -2), (-1, -2), (0, 1), (4, 3)), ((-3, -2), (-1, -2), (2, 1), (2, 3)),
    ((-3, -2), (-1, 0), (0, -1), (4, 3)), ((-3, -2), (0, -1), (1, 2), (2, 1)),
    ((-3, -1), (-3, 1), (2, -1), (4, 1)), ((-3, -1), (-3, 1), (2, 1), (4, -1)),
    ((-3, -1), (-2, 1), (1, -1), (4, 1)), ((-3, -1), (-2, 1), (2, 1), (3, -1)),
    ((-3, -1), (-1, -1), (0, 1), (4, 1)), ((-3, -1), (-1, 1), (0, -1), (4, 1)),
    ((-3, -1), (-1, 1), (2, -1), (2, 1)), ((-3, -1), (0, 1), (1, -1), (2, 1)),
    ((-3, 1), (-2, -1), (1, 1), (4, -1)), ((-3, 1), (-2, -1), (2, -1), (3, 1)),
    ((-3, 1), (-1, -1), (0, 1), (4, -1)), ((-3, 1), (-1, -1), (2, -1), (2, 1)),
    ((-3, 1), (-1, 1), (0, -1), (4, -1)), ((-3, 1), (0, -1), (1, 1), (2, -1)),
    ((-3, 2), (-3, 4), (2, -3), (4, -3)), ((-3, 2), (-2, 3), (1, -2), (4, -3)),
    ((-3, 2), (-2, 3), (2, -1), (3, -4)), ((-3, 2), (-1, 0), (0, 1), (4, -3)),
    ((-3, 2), (-1, 2), (0, -1), (4, -3)), ((-3, 2), (-1, 2), (2, -3), (2, -1)),
    ((-3, 2), (0, 1), (1, -2), (2, -1)), ((-3, 4), (-2, 1), (2, -3), (3, -2)),
    ((-3, 4), (-1, 0), (2, -3), (2, -1)), ((-3, 4), (0, -1), (1, 0), (2, -3)),
    ((-2, -3), (-2, -1), (1, 0), (3, 4)), ((-2, -3), (-2, -1), (1, 2), (3, 2)),
    ((-2, -3), (-1, 0), (0, -1), (3, 4)), ((-2, -3), (-1, 0), (1, 2), (2, 1)),
    ((-2, -1), (-2, 1), (1, -1), (3, 1)), ((-2, -1), (-2, 1), (1, 1), (3, -1)),
    ((-2, -1), (-1, -2), (0, 1), (3, 2)), ((-2, -1), (-1, -2), (1, 0), (2, 3)),
    ((-2, -1), (-1, 1), (0, -1), (3, 1)), ((-2, -1), (-1, 1), (1, 1), (2, -1)),
    ((-2, 1), (-2, 3), (1, -2), (3, -2)), ((-2, 1), (-2, 3), (1, 0), (3, -4)),
    ((-2, 1), (-1, -1), (0, 1), (3, -1)), ((-2, 1), (-1, -1), (1, -1), (2, 1)),
    ((-2, 1), (-1, 2), (0, -1), (3, -2)), ((-2, 1), (-1, 2), (1, 0), (2, -3)),
    ((-2, 3), (-1, 0), (0, 1), (3, -4)), ((-2, 3), (-1, 0), (1, -2), (2, -1)),
    ((-1, -4), (-1, 0), (1, 1), (1, 3)), ((-1, -4), (-1, 1), (1, 0), (1, 3)),
    ((-1, -4), (-1, 2), (1, -1), (1, 3)), ((-1, -4), (-1, 3), (1, -2), (1, 3)),
    ((-1, -4), (-1, 4), (1, -3), (1, 3)), ((-1, -3), (-1, -1), (1, 0), (1, 4)),
    ((-1, -3), (-1, 0), (1, -1), (1, 4)), ((-1, -3), (-1, 1), (1, -2), (1, 4)),
    ((-1, -3), (-1, 1), (1, 0), (1, 2)), ((-1, -3), (-1, 2), (1, -3), (1, 4)),
    ((-1, -3), (-1, 2), (1, -1), (1, 2)), ((-1, -3), (-1, 3), (1, -4), (1, 4)),
    ((-1, -3), (-1, 3), (1, -2), (1, 2)), ((-1, -3), (-1, 4), (1, -3), (1, 2)),
    ((-1, -2), (-1, 0), (1, -1), (1, 3)), ((-1, -2), (-1, 1), (1, -2), (1, 3)),
    ((-1, -2), (-1, 2), (1, -3), (1, 3)), ((-1, -2), (-1, 2), (1, -1), (1, 1)),
    ((-1, -2), (-1, 3), (1, -4), (1, 3)), ((-1, -2), (-1, 3), (1, -2), (1, 1)),
    ((-1, -2), (-1, 4), (1, -3), (1, 1)), ((-1, -1), (-1, 1), (1, -2), (1, 2)),
    ((-1, -1), (-1, 2), (1, -3), (1, 2)), ((-1, -1), (-1, 3), (1, -4), (1, 2)),
    ((-1, -1), (-1, 3), (1, -2), (1, 0)), ((-1, -1), (-1, 4), (1, -3), (1, 0)),
    ((-1, 0), (-1, 2), (1, -3), (1, 1)), ((-1, 0), (-1, 3), (1, -4), (1, 1)),
    ((-1, 0), (-1, 4), (1, -3), (1, -1)), ((-1, 1), (-1, 3), (1, -4), (1, 0)),
)


def test_matches_n4_maximal_form_on_the_four_row_maxima():
    """Every pinned maximum matches the n = 4 form after normalization."""
    assert len(set(N4_MAXIMA)) == 100
    for rows in N4_MAXIMA:
        lat = lattice_from_gale(rows)
        assert is_saturated(lat) and not is_cohen_macaulay(lat), rows
        deg, reg, _ = degree_and_regularity(lat)
        assert reg == deg - 1, rows
        diagram, _ = normalize_unit_square(lat)
        assert matches_n4_maximal_form(diagram) is not None, rows


def test_matches_reg_eq_deg_form():
    assert matches_reg_eq_deg_form(((1, 1), (2, -1), (-1, -1), (-2, 1))) == (1, 2)
    # a columns shape is a diagonal shape up to equivalence
    assert matches_reg_eq_deg_form(((1, 2), (1, -1), (-1, -2), (-1, 1))) == (1, 2)
    assert matches_reg_eq_deg_form(((1, 0), (-2, 1), (1, -2), (0, 1))) is None
    # p and q both primitive: D(2, 5) is equivalent to D(3, 4), the least is (2, 5)
    assert matches_reg_eq_deg_form(((3, -4), (1, 1), (-3, 4), (-1, -1))) == (2, 5)
    # degenerate: +-(0, 1) lie off the line of (2, 0) at |det| = 1
    assert matches_reg_eq_deg_form(((2, 0), (0, 1), (-2, 0), (0, -1))) is None
    # neither vector primitive
    assert matches_reg_eq_deg_form(((2, 0), (0, 2), (-2, 0), (0, -2))) is None
    # arithmetic on the vectors, so a coordinate of 10^6 costs no more than 1
    big = 10 ** 6
    assert matches_reg_eq_deg_form(((-big, 3), (1, 1), (big, -3), (-1, -1))) == (3, big)
    assert matches_reg_eq_deg_form(((1, big), (-1, 2), (1, -2), (-1, -big))) == (1, big + 1)
    assert matches_reg_eq_deg_form(((1, big), (-1, 2), (1, -3), (-1, -big))) is None
    with pytest.raises(BadInput):
        matches_reg_eq_deg_form(((1, 1), (-1, -1), (2, 1)))


def shape(a, b):
    return [(1, 1), (a, -b), (-1, -1), (-a, b)]


def reg_eq_deg_form_by_search(vectors):
    """The reference: the first shape (a, b), in lexicographic order, that
    the transition search finds equivalent to the vectors.  |det(1, 1),
    (a, -b)| = a + b must be the |det| of two of the vectors, since the
    search maps one independent pair onto another of the same |det|."""
    dets = {abs(det2(v, w)) for v in vectors for w in vectors}
    for a in range(1, max(dets)):
        for b in sorted(d - a for d in dets if d > a):
            if gale_equivalent_by_search(shape(a, b), vectors, up_to_permutation=True):
                return a, b
    return None


@st.composite
def reg_eq_deg_candidates(draw):
    """Four vectors summing to zero, in random order: an image of a shape
    with a, b <= 4 under a unimodular U, such an image with one vector
    moved by one and another moved back, or a plain zero-sum draw."""
    kind = draw(st.sampled_from(["shape", "moved", "plain"]))
    if kind == "plain":
        head = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=3))
        vs = head + [(-sum(v[0] for v in head), -sum(v[1] for v in head))]
    else:
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        k, l = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        u = ((1 + k * l, k), (l, 1))  # det 1
        vs = [apply_right(v, u) for v in shape(a, b)]
    if kind == "moved":
        axis, step = draw(st.integers(0, 1)), draw(st.sampled_from([-1, 1]))
        moved = list(vs[1])
        moved[axis] += step
        vs[1] = tuple(moved)
        vs[0] = (-vs[1][0] - vs[2][0] - vs[3][0], -vs[1][1] - vs[2][1] - vs[3][1])
    return draw(st.permutations(vs))


@settings(deadline=None, max_examples=300)
@given(reg_eq_deg_candidates())
def test_reg_eq_deg_form_agrees_with_the_search(vectors):
    assert matches_reg_eq_deg_form(vectors) == reg_eq_deg_form_by_search(vectors)


# ---------------------------------------------------------------------------
# the classifier


def test_classify_maximal_n4_family():
    verdict = classify_maximal(TWISTED_CUBIC)
    assert verdict.maximal
    assert verdict.case == "N4_FAMILY"
    assert verdict.params == {"d": 3}
    assert not verdict.certified
    certified = classify_maximal(TWISTED_CUBIC, certify=True)
    assert certified.certified and certified.case == "N4_FAMILY"


def test_classify_maximal_ci_table():
    lat = lattice_from_basis([(0, 2, -1, -1), (2, -1, 0, -1)])
    verdict = classify_maximal(lat, certify=True)
    assert verdict.maximal
    assert verdict.case == "CI_TABLE"
    assert verdict.params == {"table_index": 2, "n": 4}


def test_classify_maximal_families():
    n5 = lattice_from_gale([(2, 1), (1, 0), (0, 1), (-2, -1), (-1, -1)])
    v5 = classify_maximal(n5, certify=True)
    assert (v5.maximal, v5.case) == (True, "N5_FAMILY")
    assert v5.params == {"u": (2, 1), "v": (0, 1), "w": (-1, -1)}
    n6 = lattice_from_gale([(2, 1), (-2, -1), (1, 0), (-1, 0), (0, 1), (0, -1)])
    v6 = classify_maximal(n6, certify=True)
    assert (v6.maximal, v6.case) == (True, "N6_FAMILY")
    assert v6.params == {"u": (0, 1), "v": (2, 1), "w": (1, 0)}


def test_classify_maximal_ci_outside_table():
    lat = lattice_from_gale([(-3, -3), (-2, 0), (2, 1), (3, 2)])
    verdict = classify_maximal(lat, certify=True)
    assert not verdict.maximal
    assert verdict.case == "NOT_MAXIMAL"
    assert "outside" in verdict.params["reason"]
    deg, reg, _ = degree_and_regularity(lat)
    assert (deg, reg) == (6, 4)


def test_classify_maximal_rejects_bad_inputs():
    with pytest.raises(NotSaturated):
        classify_maximal(CM_NONCI_N3)
    with pytest.raises(Degenerate):
        classify_maximal(
            kernel_lattice([(1, 0, 0, 1, 0), (0, 1, 1, 0, 1), (1, 1, 1, 0, 0)])
        )


def test_maximal_ci_table_transcription():
    assert len(MAXIMAL_CI_DIAGRAMS) == 23
    assert sum(1 for _, sat, _ in MAXIMAL_CI_DIAGRAMS if sat) == 14
    keys = set()
    for n, sat, rows in MAXIMAL_CI_DIAGRAMS:
        assert n == len(rows)
        lat = lattice_from_gale(rows)
        assert is_saturated(lat) == sat
        assert is_complete_intersection(lat)
        keys.add(permutation_canonical_key(lat))
    assert len(keys) == 23  # no entry repeats an orbit


def test_maximal_ci_table_oracle():
    # every entry is a two-quadric complete intersection: reg 3, deg 4
    for _, _, rows in MAXIMAL_CI_DIAGRAMS:
        deg, reg, table = degree_and_regularity(lattice_from_gale(rows))
        assert (deg, reg) == (4, 3)
        gens = table.select(1)
        assert sum(e.rank for e in gens) == 2
        assert all(e.total_degree == 2 for e in gens)
