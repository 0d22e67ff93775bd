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
from galereg.quadrangle import is_complete_intersection
from galereg.searches import CM_NONCI_DIAGRAMS, sweep_orbits
from galereg.zlattice import (
    gale_equivalent,
    is_saturated,
    kernel_lattice,
    lattice_from_basis,
    lattice_from_gale,
    permutation_canonical_key,
)
from shared import CI_22, CM_NONCI_N3, TWISTED_CUBIC, n4_family


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
        if gale_equivalent(vs, classify._n4_family_diagram(d), up_to_permutation=True):
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


def test_matches_reg_eq_deg_form():
    assert matches_reg_eq_deg_form(((1, 1), (2, -1), (-1, -1), (-2, 1))) == (
        "diagonal",
        2,
        1,
    )
    assert matches_reg_eq_deg_form(((1, 2), (1, -1), (-1, -2), (-1, 1))) == (
        "columns",
        2,
        1,
    )
    assert matches_reg_eq_deg_form(((1, 0), (-2, 1), (1, -2), (0, 1))) is None
    # the shapes overlap in the columns with a = 1, the diagonal shape (1, b)
    assert matches_reg_eq_deg_form(((1, 1), (1, -5), (-1, -1), (-1, 5))) == ("diagonal", 1, 5)
    # read off the vectors, so a coordinate of 10^6 costs no more than 1
    big = 10 ** 6
    assert matches_reg_eq_deg_form(((-big, 3), (1, 1), (big, -3), (-1, -1))) == ("diagonal", big, 3)
    assert matches_reg_eq_deg_form(((1, big), (-1, 2), (1, -2), (-1, -big))) == ("columns", big, 2)
    assert matches_reg_eq_deg_form(((1, big), (-1, 2), (1, -3), (-1, -big))) is None


def reg_eq_deg_form_by_search(vectors):
    """The reference: every (a, b) up to the largest |coordinate|, in order."""
    vs = sorted(vectors)
    top = max(abs(x) for v in vs for x in v)
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            if vs == sorted([(1, 1), (a, -b), (-1, -1), (-a, b)]):
                return "diagonal", a, b
            if vs == sorted([(1, a), (1, -b), (-1, -a), (-1, b)]):
                return "columns", a, b
    return None


@st.composite
def reg_eq_deg_candidates(draw):
    """Four vectors with coordinates <= 4, in random order: the diagonal or
    columns shape, such a shape with one coordinate moved by one, or a
    plain draw."""
    kind = draw(st.sampled_from(["shape", "moved", "plain"]))
    if kind == "plain":
        vs = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=4, max_size=4))
    else:
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        vs = draw(st.sampled_from([[(1, 1), (a, -b), (-1, -1), (-a, b)],
                                   [(1, a), (1, -b), (-1, -a), (-1, b)]]))
    if kind == "moved":
        k, axis, step = draw(st.integers(0, 3)), draw(st.integers(0, 1)), draw(st.sampled_from([-1, 1]))
        moved = list(vs[k])
        moved[axis] += step
        vs = vs[:k] + [tuple(moved)] + vs[k + 1:]
    return draw(st.permutations(vs))


@settings(deadline=None, max_examples=400)
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
