"""End-to-end command line tests: JSON documents and exit codes."""

import json

import pytest

import galereg.cli as cli
import galereg.fiberhom as fiberhom
from galereg.cli import main

A_TWISTED_CUBIC = "[[1,1,1,1],[0,1,2,3]]"
BASIS_TWISTED_CUBIC = "[[1,-2,1,0],[0,1,-2,1]]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_kernel_matrix(capsys):
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC)
    assert code == 0
    assert doc["degree"] == 3
    assert doc["regularity"] == 2
    assert doc["saturated"] is True
    assert doc["nondegenerate"] is True
    assert doc["complete_intersection"] is False
    assert doc["cohen_macaulay"] is True
    assert doc["quadrangles"] == []
    assert doc["verdict"]["maximal"] is True
    assert doc["verdict"]["case"] == "N4_FAMILY"
    assert doc["verdict"]["params"] == {"d": 3}
    assert doc["input"]["n"] == 4
    assert doc["input"]["given"] == {"A": [[1, 1, 1, 1], [0, 1, 2, 3]]}
    assert doc["betti"]["entries"]


def test_analyze_fast_skips_homology(capsys):
    code, doc = run(capsys, "analyze", "--basis", BASIS_TWISTED_CUBIC, "--fast")
    assert code == 0
    assert "betti" not in doc
    assert (doc["degree"], doc["regularity"]) == (3, 2)
    assert doc["verdict"]["case"] == "N4_FAMILY"
    assert doc["input"]["given"] == {"basis": [[1, -2, 1, 0], [0, 1, -2, 1]]}


def test_analyze_certify(capsys):
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC, "--certify")
    assert code == 0
    assert doc["verdict"]["certified"] is True


def test_analyze_prime_field(capsys):
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC, "--field", "7")
    assert code == 0
    assert doc["field"] == 7
    assert (doc["degree"], doc["regularity"]) == (3, 2)
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC, "--field", "9")
    assert code == 2
    assert doc["error"]["type"] == "BadInput"


def test_analyze_large_prime_field(capsys):
    # 2^61 - 1: trial division up to its square root is about 10^9 steps
    p = 2**61 - 1
    assert cli._parse_field(str(p)) == p
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC, "--field", str(p))
    assert code == 0
    assert doc["field"] == p
    assert (doc["degree"], doc["regularity"]) == (3, 2)


@pytest.mark.parametrize("text", [
    "561",  # Carmichael number
    "3825123056546413051",  # strong pseudoprime to the bases 2, 3, ..., 23
    "9",
    "1",
    str(2**89 - 1),  # prime, but above the range the test is exact on
])
def test_analyze_rejects_field(capsys, text):
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC, "--field", text)
    assert code == 2
    assert doc["error"]["type"] == "BadInput"


def test_analyze_not_saturated(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"gale": [[1, 1], [1, -2], [-2, 1]]}))
    code, doc = run(capsys, "analyze", "--file", str(path))
    assert code == 0
    assert doc["saturated"] is False
    assert (doc["degree"], doc["regularity"]) == (3, 2)
    assert doc["verdict"]["case"] == "NOT_APPLICABLE"
    assert doc["verdict"]["maximal"] is None
    assert doc["verdict"]["params"]["reason"] == "NotSaturated"


@pytest.mark.parametrize("flags", [[], ["--fast"]])
def test_analyze_refuses_a_grid_above_the_cap(capsys, monkeypatch, flags):
    # a shear of the degree-3 diagram ((1,1),(2,-1),(-1,-1),(-2,1)): G_5
    # keeps its points, but its bounding box grows past the cap, which the
    # quadrangle scan of both modes meets before allocating anything
    monkeypatch.setattr(fiberhom.np, "meshgrid", None)
    k = 10**6
    basis = json.dumps([[1, 2, -1, -2], [k + 1, 2 * k - 1, -k - 1, -2 * k + 1]])
    code, doc = run(capsys, "analyze", "--basis", basis, *flags)
    assert code == 2
    assert doc["error"]["type"] == "BadInput"
    assert f"above the cap of {fiberhom.GRID_CAP}" in doc["error"]["message"]


def test_analyze_refuses_closure_masks_above_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(fiberhom, "MASK_CAP", 0)
    fiberhom._table.cache_clear()  # an earlier test may hold this table
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC)
    assert code == 2
    assert doc["error"]["type"] == "BadInput"
    assert "bits, above the cap of 0" in doc["error"]["message"]


def test_analyze_fast_refuses_hilbert_counts_above_the_cap(capsys, monkeypatch):
    # the twisted cubic is Cohen-Macaulay and not a complete intersection,
    # so --fast reads its regularity off the Hilbert counts
    monkeypatch.setattr(fiberhom, "MONOMIAL_CAP", 0)
    code, doc = run(capsys, "analyze", "--A", A_TWISTED_CUBIC, "--fast")
    assert code == 2
    assert doc["error"]["type"] == "BadInput"
    assert "above the cap of 0" in doc["error"]["message"]


def test_analyze_degenerate(capsys):
    code, doc = run(
        capsys, "analyze", "--A", "[[1,0,0,1,0],[0,1,1,0,1],[1,1,1,0,0]]"
    )
    assert code == 2
    assert doc["error"]["type"] == "Degenerate"


@pytest.mark.parametrize("basis, saturated, deg_reg", [
    ("[[-2,-1,2,1],[-2,3,2,-3]]", False, (8, 8)),
    ("[[1,-1,-1,1],[0,1,-3,2]]", True, (4, 3)),
])
@pytest.mark.parametrize("flags", [[], ["--fast"], ["--certify"]])
def test_analyze_not_cohen_macaulay_all_modes(capsys, basis, saturated, deg_reg, flags):
    code, doc = run(capsys, "analyze", "--basis", basis, *flags)
    assert code == 0
    assert doc["cohen_macaulay"] is False
    assert doc["saturated"] is saturated
    assert (doc["degree"], doc["regularity"]) == deg_reg
    assert doc["regularity"] == doc["quadrangles"][-1]["total"] - 2


def test_analyze_ten_vectors_of_degree_53(capsys):
    # 1.8e11 monomials lie below the horizon deg + 2 = 55; the oracle
    # visits only the points u of Z^2 with sum_i max(0, b_i . u) <= 55
    basis = "[[-3,2,-3,-2,3,-1,2,0,-1,3],[0,1,3,1,0,0,-3,-3,2,-1]]"
    code, doc = run(capsys, "analyze", "--basis", basis)
    assert code == 0
    assert (doc["degree"], doc["regularity"]) == (53, 17)
    assert doc["verdict"]["case"] == "NOT_MAXIMAL"
    third = sorted(e["total"] for e in doc["betti"]["entries"] if e["i"] == 3
                   for _ in range(e["rank"]))
    assert third == sorted(q["total"] for q in doc["quadrangles"]) == [16, 19]


def test_analyze_internal_inconsistency_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "regularity_fast", lambda lattice: 99)
    code, doc = run(capsys, "analyze", "--basis", BASIS_TWISTED_CUBIC, "--fast")
    assert code == 1
    assert doc["error"]["type"] == "InternalInconsistency"


# ---------------------------------------------------------------------------
# input plumbing


def test_rejects_malformed_json(capsys):
    code, doc = run(capsys, "analyze", "--A", "[[1,1")
    assert code == 2
    assert doc["error"]["type"] == "BadInput"
    assert set(doc) == {"error"}  # no partial report


def test_requires_exactly_one_source(capsys):
    code, doc = run(
        capsys, "analyze", "--A", A_TWISTED_CUBIC, "--basis", BASIS_TWISTED_CUBIC
    )
    assert code == 2
    assert doc["error"]["type"] == "BadInput"
    code, doc = run(capsys, "analyze")
    assert code == 2


def test_file_lattice_alias(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"lattice": [[1, -2, 1, 0], [0, 1, -2, 1]]}))
    code, doc = run(capsys, "analyze", "--file", str(path), "--fast")
    assert code == 0
    assert (doc["degree"], doc["regularity"]) == (3, 2)


def test_file_missing(capsys, tmp_path):
    code, doc = run(capsys, "analyze", "--file", str(tmp_path / "nope.json"))
    assert code == 2
    assert doc["error"]["type"] == "BadInput"


# ---------------------------------------------------------------------------
# curve


def test_curve_run_at_bottom(capsys):
    code, doc = run(capsys, "curve", "0,1,4,5")
    assert code == 0
    assert doc == {
        "exponents": [0, 1, 4, 5],
        "n": 4,
        "degree": 5,
        "maximal": True,
        "case": "RUN_AT_BOTTOM",
        "longest_gap": 2,
        "symmetric_run": 1,
    }


def test_curve_rejections(capsys):
    code, doc = run(capsys, "curve", "0,2,4")
    assert code == 2
    assert doc["error"]["type"] == "GcdNotOne"
    code, doc = run(capsys, "curve", "0,1,x")
    assert code == 2
    assert doc["error"]["type"] == "BadInput"


# ---------------------------------------------------------------------------
# classify


def test_classify_ci_table(capsys):
    code, doc = run(capsys, "classify", "--basis", "[[0,2,-1,-1],[2,-1,0,-1]]")
    assert code == 0
    assert doc["verdict"]["case"] == "CI_TABLE"
    assert doc["verdict"]["params"]["table_index"] == 2


# ---------------------------------------------------------------------------
# reduce


def reduce_file(tmp_path, extra=None):
    payload = {"gale": [[1, 1], [-1, 1], [-1, 0], [-1, -1], [2, -1]]}
    payload.update(extra or {})
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_reduce_walkthrough(capsys, tmp_path):
    code, doc = run(capsys, "reduce", "--file", reduce_file(tmp_path))
    assert code == 0
    assert doc["transform"] == [[1, 0], [0, 1]]
    assert doc["normalized_gale"] == [[1, 1], [-1, 1], [-1, 0], [-1, -1], [2, -1]]
    assert (doc["degree"], doc["regularity"]) == (4, 3)
    assert len(doc["partitions"]) == 2
    block = doc["partitions"][0]
    assert block["partition"] == [[0], [1, 2], [3], [4]]
    assert block["reduced_gale"] == [[1, 1], [-2, 1], [-1, -1], [2, -1]]
    assert block["balanced"] is True
    assert block["simple"]["pair_13"] == {"holds": False}
    assert block["simple"]["pair_24"] == {
        "holds": True,
        "witness": {"side": 2, "v": [-1, 1], "w": [-1, 0], "shape": "sum"},
    }
    assert block["degree_preserved"] is False
    assert block["degree_drop_one"] is True
    assert block["chain"] == {
        "reg_original": 3,
        "reg_reduced": 3,
        "deg_reduced": 3,
        "deg_original": 4,
    }


def test_reduce_explicit_partition(capsys, tmp_path):
    path = reduce_file(tmp_path, {"partition": [[0], [1, 2], [3], [4]]})
    code, doc = run(capsys, "reduce", "--file", path)
    assert code == 0
    assert len(doc["partitions"]) == 1


def test_reduce_bad_partition_names_row(capsys, tmp_path):
    path = reduce_file(tmp_path, {"partition": [[0, 1], [2], [3], [4]]})
    code, doc = run(capsys, "reduce", "--file", path)
    assert code == 2
    assert "row 1 = (-1, 1) is not in closed quadrant 1" in doc["error"]["message"]


@pytest.mark.parametrize("part", [
    [[0], [1, 2], [3], "x"],
    [[0], [1, 2], [3], [4.7]],
    [[0], [1, 2], [3], 4],
    [[False], [1, 2], [3], [4]],
])
def test_reduce_rejects_malformed_partition(capsys, tmp_path, part):
    code, doc = run(capsys, "reduce", "--file", reduce_file(tmp_path, {"partition": part}))
    assert code == 2
    assert doc["error"]["type"] == "BadInput"
    assert "partition" in doc["error"]["message"]


def test_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    payload = {"gale": [[1, 1], [-1, 1], [-1, 0], [-1, -1], [2, -1]], "note": "\u00e9"}
    path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("latin-1"))
    code, doc = run(capsys, "reduce", "--file", str(path))
    assert code == 2
    assert doc["error"]["type"] == "BadInput"
    assert "utf-8" in doc["error"]["message"]


# ---------------------------------------------------------------------------
# search


def test_search_cm_nonci_check_ok(capsys):
    code, doc = run(capsys, "search", "cm-nonci", "--check")
    assert code == 0
    assert doc["search"] == "cm-nonci"
    assert doc["check"] == "ok"
    assert len(doc["entries"]) == 4


def test_search_check_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_golden", lambda name, report: False)
    code, doc = run(capsys, "search", "cm-nonci", "--check")
    assert code == 3
    assert doc["check"] == "mismatch"


def test_search_unknown(capsys):
    code, doc = run(capsys, "search", "nosuch")
    assert code == 2
    assert doc["error"]["type"] == "UnknownSearch"


def test_search_sweep(capsys):
    code, doc = run(capsys, "search", "sweep", "--max-n", "4", "--max-coord", "2")
    assert code == 0
    assert doc["search"] == "sweep"
    assert doc["candidate_count"] == 64
    assert doc["orbit_count"] == 6
    assert doc["mismatch_count"] == 0


# ---------------------------------------------------------------------------
# pretty rendering


def test_pretty_smoke(capsys):
    code = main(["analyze", "--A", A_TWISTED_CUBIC, "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "betti:" in out
    assert "degree: 3" in out
    # the root-level flag works too
    code = main(["--pretty", "curve", "0,1,4,5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "case:" in out and "RUN_AT_BOTTOM" in out


def test_shared_parser_keeps_usage_errors_and_pretty(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--fast", "--certify", "--A", A_TWISTED_CUBIC])
    assert exc.value.code == 2
    capsys.readouterr()
    # a flag given on one call does not leak into the next
    assert main(["--pretty", "curve", "0,1,4,5"]) == 0
    assert "case:" in capsys.readouterr().out
    code, doc = run(capsys, "curve", "0,1,4,5")
    assert code == 0 and doc["case"] == "RUN_AT_BOTTOM"
