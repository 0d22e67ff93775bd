"""Tests of the benchmark's reference checks: each accepts a right answer
and rejects a known-wrong one.

Run from the repository root with ``python3 -m pytest galbench``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
import corpus  # noqa: E402
from corpus import Corpus, Diagram  # noqa: E402
from galereg import zlattice as zl  # noqa: E402

TWISTED_CUBIC = ((1, 0), (-2, 1), (1, -2), (0, 1))
# i = 1: three quadrics; i = 2: two linear syzygies among them
TWISTED_CUBIC_BETTI = [(1, 2, 3), (2, 3, 2)]
FOUR_QUADRANTS = ((1, 1), (-1, 2), (-2, -1), (2, -2))


def n4_family(d):
    return ((1, 0), (-1, 1), (-1, -d + 1), (1, d - 2))


@pytest.mark.parametrize("d", range(3, 9))
def test_degree_formula_matches_the_n4_family(d):
    assert ref.gale_degree(n4_family(d)) == d
    assert ref.gale_degree(n4_family(d)) != d + 1


def test_degree_check_rejects_a_wrong_degree():
    p = workloads.Pass()
    workloads._check_oracle(p, TWISTED_CUBIC, 3, 2, TWISTED_CUBIC_BETTI, "cubic")
    assert p.problems == []
    workloads._check_oracle(p, TWISTED_CUBIC, 4, 2, TWISTED_CUBIC_BETTI, "cubic")
    assert any("Gale degree" in x for x in p.problems)


def test_degree_formula_ignores_zero_rows_and_counts_index():
    # a zero row is a free variable; doubling one basis column doubles
    # the lattice index and the degree
    assert ref.gale_degree(TWISTED_CUBIC + ((0, 0),)) == 3
    doubled = tuple((2 * x, y) for x, y in TWISTED_CUBIC)
    assert not ref.is_saturated(doubled)
    assert ref.gale_degree(doubled) == 6


def test_betti_identities_accept_the_twisted_cubic():
    assert ref.betti_identities(TWISTED_CUBIC_BETTI, 3)


@pytest.mark.parametrize("entries, degree", [
    ([(1, 2, 4), (2, 3, 2)], 3),   # one quadric too many
    ([(1, 2, 3), (2, 4, 2)], 3),   # syzygies in the wrong degree
    (TWISTED_CUBIC_BETTI, 4),      # right table, wrong degree
])
def test_betti_identities_reject_wrong_tables(entries, degree):
    assert not ref.betti_identities(entries, degree)


def test_betti_identities_in_higher_codimension():
    # plane curve of degree d: principal ideal, K(t) = 1 - t^d, codim 1
    assert ref.betti_identities([(1, 5, 1)], 5, codim=1)
    assert not ref.betti_identities([(1, 5, 1)], 4, codim=1)


def test_maximality_check():
    assert ref.maximality_consistent(True, 3, 2)
    assert ref.maximality_consistent(False, 4, 2)
    assert not ref.maximality_consistent(True, 4, 2)
    assert not ref.maximality_consistent(False, 3, 2)


def test_quadrangle_search_and_nondegeneracy():
    assert ref.has_syzygy_quadrangle(FOUR_QUADRANTS, ref.gale_degree(FOUR_QUADRANTS))
    assert not ref.has_syzygy_quadrangle(TWISTED_CUBIC, 3)
    assert ref.is_nondegenerate(TWISTED_CUBIC)
    # e_0 - e_1 = (1, -1, 0, 0) is the first basis column
    assert not ref.is_nondegenerate(((1, 0), (-1, 0), (0, 1), (0, -1)))


def test_nondegeneracy_and_saturation_agree_with_the_package():
    for d in Corpus(3, fixed_non_cm=False).next_round():
        lat = zl.lattice_from_gale(d.rows)
        assert zl.is_nondegenerate(lat)
        assert zl.is_saturated(lat) == d.saturated


def test_corpus_is_seeded_and_fast_failures_are_not():
    a, b = Corpus(1, True), Corpus(2, True)
    ra, rb = a.next_round(), b.next_round()
    assert ra == Corpus(1, True).next_round()
    assert [(len(d.rows), d.cm, d.degree) for d in ra] == corpus.round_cells()
    assert [d for d in ra if not d.cm] == [d for d in rb if not d.cm]
    assert [d for d in ra if d.cm] != [d for d in rb if d.cm]
    assert [d for d in ra if d.cm] == [d for d in Corpus(1, False).next_round() if d.cm]
    assert len({d.rows for d in ra + a.next_round()}) == 2 * corpus.ROUND


def test_round_cells_follow_the_measured_shares():
    table = {"cells": [[3, True, 4, 50], [5, False, 9, 30], [6, True, 20, 20],
                       [6, False, 29, 7]]}
    cells = corpus.round_cells(table)
    assert len(cells) == corpus.ROUND
    for cell, share in (((3, True, 4), 0.5), ((5, False, 9), 0.3), ((6, True, 20), 0.2)):
        assert cells.count(cell) == round(share * corpus.ROUND)
    assert (6, False, 29) not in cells  # above MAX_DEGREE


def test_measured_cells_are_plain_draws():
    table = corpus.measure(5, 200)
    assert sum(c[3] for c in table["cells"]) == 200
    for n, cm, degree, _ in table["cells"]:
        assert corpus.N_RANGE[0] <= n <= corpus.N_RANGE[1] and degree >= 1
        assert cm or n > 3


def _analyze_doc(d):
    code, out, _ = workloads._cli(["analyze", "--basis", d.basis_json()])
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(degree=doc["degree"] + 1),
    lambda doc: doc["verdict"].update(maximal=not doc["verdict"]["maximal"]),
    lambda doc: doc["betti"]["entries"][0].update(rank=doc["betti"]["entries"][0]["rank"] + 1),
    lambda doc: doc.update(cohen_macaulay=not doc["cohen_macaulay"]),
])
def test_analyze_checks_reject_corrupted_output(corrupt):
    d = Diagram(TWISTED_CUBIC, True, 3, True, True)
    doc = _analyze_doc(d)
    p = workloads.Pass()
    workloads._check_analyze(p, d, doc, fast=False)
    assert p.problems == []
    corrupt(doc)
    workloads._check_analyze(p, d, doc, fast=False)
    assert p.problems


def test_search_match_rejects_an_entry_outside_the_table():
    golden = json.loads((HERE.parent / "src/galereg/data/cm_nonci.json").read_text())
    from galereg.searches import CM_NONCI_DIAGRAMS

    p = workloads.Pass()
    workloads._match_table(p, "cm-nonci", golden["entries"], CM_NONCI_DIAGRAMS, (3, 2))
    assert p.problems == []
    wrong = [dict(golden["entries"][0], gale=[list(r) for r in TWISTED_CUBIC])]
    workloads._match_table(p, "cm-nonci", wrong, CM_NONCI_DIAGRAMS, (3, 2))
    assert p.problems
    p = workloads.Pass()
    workloads._match_table(p, "cm-nonci", golden["entries"][:1] * 2, CM_NONCI_DIAGRAMS, (3, 2))
    assert any("equivalent" in x for x in p.problems)


def test_curve_count_is_231():
    assert len(workloads.curve_exponents()) == 231
