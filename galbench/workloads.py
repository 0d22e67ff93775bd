"""The benchmark's workloads; each pass runs in a fresh interpreter.

Every workload calls the package through module attributes
(``fh.degree_and_regularity``), never through names bound at import,
so the tracer's wrappers are what runs in a traced pass.  Program calls
happen inside :class:`Pass` timed sections; input generation and the
checks against :mod:`reference` happen outside them.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from itertools import combinations
from math import comb, gcd

import probe
import reference as ref
from corpus import Corpus
from galereg import classify as gc
from galereg import cli
from galereg import fiberhom as fh
from galereg import intlinalg as il
from galereg import quadrangle as qd
from galereg import reduction as rd
from galereg import searches as sr
from galereg import zlattice as zl
from galereg.errors import NotAllQuadrants, PreconditionNotBalanced

# Fewest completed lattices an analyze pass stops at, so that at least
# ten samples lie above the 90th percentile.
MIN_SAMPLES = 100

# cmd_analyze --fast calls reg_deg_via_hilbert, valid only for projective
# dimension <= 2, on every lattice.  On a non-Cohen-Macaulay lattice the
# Hilbert numerator ends at reg + 2, one past where it would for
# projective dimension 2, so the command exits 1 with one of these.
FAST_FAULT = re.compile(
    r"syzygy-quadrangle regularity (\d+) != Hilbert regularity (\d+)"
    r"|Hilbert numerator does not terminate; not Cohen-Macaulay\?")

perf = time.perf_counter


class Pass:
    """Operation times, counts and check results of one pass.

    A :mod:`probe` is taken when the pass starts and after every
    operation, so each operation has a probe on either side; probe time
    is kept out of the timed sections.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []         # (seconds, completed, probe before, probe after)
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0      # seconds spent inside timed sections
        self.round_times = []  # timed seconds of each round
        self.detail = {}
        self.problems = []
        self.fault_messages = []  # first few messages of expected failures
        self._probing = 0.0   # wall seconds spent probing
        self._last_probe = 0.0
        self._probe()

    @property
    def latencies(self):
        """Seconds of the completed operations."""
        return [s for s, ok, _, _ in self.ops if ok]

    @contextlib.contextmanager
    def timed_section(self, name=None):
        if self.tracer is not None:
            self.tracer.enabled = True
        probing = self._probing
        t0 = perf()
        try:
            yield
        finally:
            elapsed = perf() - t0 - (self._probing - probing)
            if self.tracer is not None:
                self.tracer.enabled = False
            self.timed += elapsed
            if name:
                self.detail[name] = self.detail.get(name, 0.0) + elapsed

    def _probe(self):
        t0 = perf()
        self._last_probe = probe.sample()
        self._probing += perf() - t0

    def _op(self, seconds: float, completed: bool):
        self.attempted += 1
        before = self._last_probe
        self._probe()
        self.ops.append((seconds, completed, before, self._last_probe))

    def done(self, seconds: float):
        self._op(seconds, True)

    def fail(self, what: str, expected: bool, seconds: float = 0.0):
        self.failed += 1
        if not expected:
            self.problems.append(f"unexpected failure: {what}")
        self._op(seconds, False)

    def check(self, ok: bool, what: str):
        if not ok and len(self.problems) < 20:
            self.problems.append(what)


def _cli(argv):
    """Run ``galereg`` in process; (exit code, stdout, seconds)."""
    buf = io.StringIO()
    t0 = perf()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), perf() - t0


def _entries(table_json):
    return [(e["i"], e["total"], e["rank"]) for e in table_json["entries"]]


def _table_entries(table):
    return [(e.i, e.total_degree, e.rank) for e in table.entries]


def _check_oracle(p: Pass, rows, deg, reg, entries, what):
    """Degree formula, Betti sums and reg <= deg for a rank-2 oracle answer."""
    p.check(deg == ref.gale_degree(rows), f"{what}: degree {deg} != Gale degree")
    p.check(ref.betti_identities(entries, deg), f"{what}: Betti sums fail")
    p.check(reg == max(j - i for i, j, _ in entries) + 1,
            f"{what}: regularity {reg} not read off the Betti table")
    p.check(reg <= deg, f"{what}: regularity {reg} above degree {deg}")


# ---------------------------------------------------------------------------
# analyze and analyze-fast


def _check_analyze(p: Pass, d, doc, fast: bool):
    what = f"analyze{' --fast' if fast else ''} {d.rows}"
    deg, reg = doc["degree"], doc["regularity"]
    p.check(deg == d.degree, f"{what}: degree {deg} != Gale degree {d.degree}")
    p.check(doc["saturated"] == d.saturated, f"{what}: saturation flag")
    p.check(doc["cohen_macaulay"] == d.cm, f"{what}: Cohen-Macaulay flag")
    p.check(reg <= deg, f"{what}: regularity {reg} above degree {deg}")
    verdict = doc["verdict"]
    if d.saturated:
        p.check(ref.maximality_consistent(verdict["maximal"], deg, reg),
                f"{what}: verdict {verdict['case']} with (deg, reg) = ({deg}, {reg})")
    else:
        p.check(verdict["case"] == "NOT_APPLICABLE", f"{what}: verdict on a non-saturated lattice")
    quad_totals = sorted(q["total"] for q in doc["quadrangles"])
    if d.cm:
        p.check(not quad_totals, f"{what}: quadrangles on a Cohen-Macaulay lattice")
    else:
        p.check(bool(quad_totals) and reg == quad_totals[-1] - 2,
                f"{what}: regularity is not the top quadrangle total minus 2")
    if fast:
        p.check("betti" not in doc, f"{what}: Betti table under --fast")
        return
    entries = _entries(doc["betti"])
    _check_oracle(p, d.rows, deg, reg, entries, what)
    p.check((max(i for i, _, _ in entries) <= 2) == d.cm,
            f"{what}: projective dimension disagrees with Cohen-Macaulayness")
    p.check(doc["complete_intersection"] == (sum(r for i, _, r in entries if i == 1) == 2),
            f"{what}: complete-intersection flag disagrees with the generator count")
    third = sorted(j for i, j, r in entries if i == 3 for _ in range(r))
    p.check(third == quad_totals, f"{what}: quadrangles do not match the third syzygies")


def run_analyze(p: Pass, seed: int, seconds: float, fast: bool):
    corpus = Corpus(seed, fixed_non_cm=fast)
    flag = ["--fast"] if fast else []
    while True:
        batch = corpus.next_round()
        completed = []
        before = p.timed
        with p.timed_section():
            for d in batch:
                code, out, dt = _cli(["analyze", "--basis", d.basis_json()] + flag)
                if code == 0:
                    p.done(dt)
                    completed.append((d, out))
                else:
                    _failed(p, d, code, out, dt, fast)
        p.round_times.append(p.timed - before)
        for d, out in completed:
            _check_analyze(p, d, json.loads(out), fast)
        if p.timed >= seconds and len(p.latencies) >= MIN_SAMPLES:
            break
    return p


def _failed(p: Pass, d, code, out, seconds, fast):
    message = json.loads(out).get("error", {}).get("message", out.strip())
    m = FAST_FAULT.fullmatch(message)
    expected = (fast and not d.cm and not d.seeded and code == 1 and m is not None
                and (m.group(1) is None or int(m.group(2)) == int(m.group(1)) + 1))
    if expected and len(p.fault_messages) < 3:
        p.fault_messages.append(message)
    p.fail(f"{d.rows}: exit {code}: {message}", expected, seconds)


# ---------------------------------------------------------------------------
# corpus: acceptance criteria 3-8 in test order


def _coprime_pairs(bound=3):
    return [(b, c) for b in range(-bound, bound + 1) for c in range(-bound, bound + 1)
            if b and c and gcd(b, c) == 1]


def _families(p: Pass):
    cases = [((1, 1, 1, 1), (0, 1, d - 1, d)) for d in range(3, 9)]
    expected = [d for d in range(3, 9)]
    for b, c in _coprime_pairs():
        if (b, c) not in ((1, 1), (-1, -1)):
            cases.append(((1, 0, 0, 1, 0), (0, 1, 1, 0, 1), (1, b, c, 0, 0)))
            expected.append(1 + max(abs(b), abs(c), abs(b - c)))
        cases.append(((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1),
                      (1, b, c, 0, 0, 0)))
        expected.append(1 + abs(b) + abs(c))
    found = []
    with p.timed_section("families_s"):
        for a in cases:
            t0 = perf()
            lat = zl.kernel_lattice(a)
            deg, reg, table = fh.degree_and_regularity(lat)
            p.done(perf() - t0)
            found.append((lat.rows, deg, reg, table))
    for (rows, deg, reg, table), want in zip(found, expected):
        p.check(deg == want, f"family {rows}: degree {deg} != closed form {want}")
        p.check(reg == deg - 1, f"family {rows}: regularity {reg} not maximal")
        _check_oracle(p, rows, deg, reg, _table_entries(table), f"family {rows}")


def _sweep(p: Pass):
    oracle = {}
    with p.timed_section("sweep_s"):
        orbits, candidates = sr.sweep_orbits(6, 2)
        for lat in orbits:
            t0 = perf()
            verdict = gc.classify_maximal(lat)
            deg, reg, table = fh.degree_and_regularity(lat)
            p.done(perf() - t0)
            oracle[lat.rows] = (verdict.maximal, deg, reg, table)
    p.check(candidates == 4300, f"sweep: {candidates} candidates, expected 4300")
    p.check(len(orbits) == 395, f"sweep: {len(orbits)} orbits, expected 395")
    for rows, (maximal, deg, reg, table) in oracle.items():
        p.check(ref.is_saturated(rows) and ref.is_nondegenerate(rows),
                f"sweep orbit {rows} is not saturated and nondegenerate")
        p.check(ref.maximality_consistent(maximal, deg, reg),
                f"sweep orbit {rows}: classifier says maximal={maximal}, oracle ({deg}, {reg})")
        _check_oracle(p, rows, deg, reg, _table_entries(table), f"sweep orbit {rows}")
    return orbits, oracle


def curve_exponents(max_n=5, max_d=9):
    """Exponent sequences 0 < a_2 < ... < a_n = d with gcd 1, counted here."""
    out = []
    for n in range(3, max_n + 1):
        for d in range(2, max_d + 1):
            for middle in combinations(range(1, d), n - 2):
                exps = (0,) + middle + (d,)
                if gcd(*exps[1:]) == 1:
                    out.append(exps)
    return out


def _curves(p: Pass):
    specs = curve_exponents()
    p.check(len(specs) == 231, f"curves: {len(specs)} exponent sequences, expected 231")
    found = []
    with p.timed_section("curves_s"):
        for exps in specs:
            t0 = perf()
            maximal = gc.classify_monomial_curve(gc.CurveSpec(exps))[0]
            n = len(exps)
            columns = il.integer_kernel([(1,) * n, exps], n)
            deg, reg, table = fh.degree_and_regularity_of_span(columns)
            p.done(perf() - t0)
            found.append((exps, maximal, deg, reg, table))
    for exps, maximal, deg, reg, table in found:
        n, d = len(exps), exps[-1]
        p.check(deg == d, f"curve {exps}: degree {deg} != {d}")
        p.check(maximal == (reg == deg - n + 3),
                f"curve {exps}: classifier says maximal={maximal}, oracle ({deg}, {reg})")
        p.check(ref.betti_identities(_table_entries(table), deg, codim=n - 2),
                f"curve {exps}: Betti sums fail")


def _duality(p: Pass, orbits):
    cm_flags = {}
    found = []
    with p.timed_section("duality_s"):
        for lat in orbits:
            t0 = perf()
            cm_flags[lat.rows] = qd.is_cohen_macaulay(lat)
            if cm_flags[lat.rows]:
                continue
            deg, reg, table = fh.degree_and_regularity(lat)
            quads = qd.enumerate_syzygy_quadrangles(lat, deg + 2)
            p.done(perf() - t0)
            found.append((lat.rows, reg, table, quads))
    for rows, cm in cm_flags.items():
        p.check(cm == (not ref.has_syzygy_quadrangle(rows, ref.gale_degree(rows))),
                f"orbit {rows}: Cohen-Macaulay flag disagrees with the quadrangle search")
    p.check(len(found) == 182, f"duality: {len(found)} non-CM orbits, expected 182")
    for rows, reg, table, quads in found:
        from_quads = sorted((tuple(q.multidegree.representative), q.total_degree)
                            for q in quads)
        from_table = sorted((tuple(e.representative), e.total_degree)
                            for e in table.select(3) for _ in range(e.rank))
        p.check(from_quads == from_table, f"orbit {rows}: quadrangles != third syzygies")
        p.check(bool(quads) and reg == max(q.total_degree for q in quads) - 2,
                f"orbit {rows}: regularity is not the top quadrangle total minus 2")


def _reduction(p: Pass, orbits):
    found = []
    with p.timed_section("reduction_s"):
        for lat in orbits:
            if qd.is_cohen_macaulay(lat):
                continue
            diagram, _ = qd.normalize_unit_square(lat)
            normalized = zl.lattice_from_gale(diagram)
            try:
                partitions = rd.enumerate_partitions(diagram)
            except NotAllQuadrants:
                continue
            deg_l, reg_l, _ = fh.degree_and_regularity(normalized)
            for part in partitions:
                t0 = perf()
                datum = rd.ReductionDatum(normalized, diagram, part)
                _, reduced = rd.reduced_gale(datum)
                deg_q, reg_q, _ = fh.degree_and_regularity(reduced)
                preserved = rd.degree_preserved(datum)
                try:
                    drop = rd.degree_drop_one(datum)
                except PreconditionNotBalanced:
                    drop = None
                p.done(perf() - t0)
                found.append((lat.rows, normalized.rows, reduced.rows,
                              deg_l, reg_l, deg_q, reg_q, preserved, drop))
    p.check(len(found) == 409, f"reduction: {len(found)} data, expected 409")
    for rows, norm, red, deg_l, reg_l, deg_q, reg_q, preserved, drop in found:
        what = f"reduction of {rows} to {red}"
        p.check(deg_l == ref.gale_degree(rows) == ref.gale_degree(norm),
                f"{what}: degree changed by normalization")
        p.check(deg_q == ref.gale_degree(red), f"{what}: reduced degree != Gale degree")
        p.check(reg_l <= reg_q <= deg_q <= deg_l, f"{what}: chain reg <= reg <= deg <= deg fails")
        p.check(preserved == (deg_q == deg_l), f"{what}: degree-preservation certificate")
        p.check(drop is None or drop == (deg_q == deg_l - 1), f"{what}: degree-drop certificate")


def _cm_thresholds(p: Pass, orbits, oracle):
    found = []
    with p.timed_section("cm_threshold_s"):
        for lat in orbits:
            if not qd.is_cohen_macaulay(lat):
                continue
            t0 = perf()
            report = gc.cm_char0_criterion(lat)
            p.done(perf() - t0)
            found.append((lat, report))
    p.check(len(found) == 213, f"cm thresholds: {len(found)} CM orbits, expected 213")
    for lat, r in found:
        what = f"CM orbit {lat.rows}"
        _, deg, reg, _ = oracle[lat.rows]
        p.check((r.deg, r.reg) == (deg, reg), f"{what}: Hilbert (deg, reg) != oracle")
        p.check(ref.maximality_consistent(r.maximal, deg, reg), f"{what}: verdict")
        allowed = {comb(lat.n + 1, 2) - 3, comb(lat.n + 1, 2) - 2}
        p.check((r.degree2_classes in allowed) == r.maximal, f"{what}: degree-2 threshold")
        if r.maximal:
            p.check(r.numerator_ok is True, f"{what}: Hilbert numerator check")


def run_corpus(p: Pass):
    _families(p)
    orbits, oracle = _sweep(p)
    _curves(p)
    _duality(p, orbits)
    _reduction(p, orbits)
    _cm_thresholds(p, orbits, oracle)


# ---------------------------------------------------------------------------
# searches


def _match_table(p: Pass, name, entries, table, want):
    """Each entry equals exactly one table row up to basis change and
    permutation, no two entries are equivalent, and each has the
    expected (deg, reg)."""
    rows_of = [tuple(tuple(v) for v in e["gale"]) for e in entries]
    for rows, entry in zip(rows_of, entries):
        hits = [t for t in table if zl.gale_equivalent(rows, t[-1], up_to_permutation=True)]
        p.check(len(hits) == 1, f"{name} {rows}: matches {len(hits)} table rows")
        if hits:
            p.check(hits[0][-2] == entry["saturated"], f"{name} {rows}: saturation flag")
        p.check(entry["saturated"] == ref.is_saturated(rows), f"{name} {rows}: saturation")
        deg, reg, _ = fh.degree_and_regularity(zl.lattice_from_gale(rows))
        p.check((deg, reg) == want and ref.gale_degree(rows) == want[0],
                f"{name} {rows}: (deg, reg) = ({deg}, {reg}), expected {want}")
    for a, b in combinations(rows_of, 2):
        p.check(not zl.gale_equivalent(a, b, up_to_permutation=True),
                f"{name}: {a} and {b} are equivalent")


def run_searches(p: Pass):
    docs = {}
    with p.timed_section():
        for name, metric in (("table1", "table1_s"), ("cm-nonci", "cm_nonci_s")):
            code, out, dt = _cli(["search", name, "--check"])
            docs[name] = (code, json.loads(out))
            p.detail[metric] = dt
            if code == 0:
                p.done(dt)
            else:
                p.fail(f"search {name}: exit {code}", expected=False, seconds=dt)
    code, doc = docs["table1"]
    if code == 0:
        p.check(doc["check"] == "ok", "table1: golden record mismatch")
        p.check((doc["total_count"], doc["saturated_count"]) == (23, 14), "table1: counts")
        _match_table(p, "table1", doc["entries"], gc.MAXIMAL_CI_DIAGRAMS, (4, 3))
    code, doc = docs["cm-nonci"]
    if code == 0:
        p.check(doc["check"] == "ok", "cm-nonci: golden record mismatch")
        p.check(doc["total_count"] == 4, "cm-nonci: count")
        _match_table(p, "cm-nonci", doc["entries"], sr.CM_NONCI_DIAGRAMS, (3, 2))


def run(workload: str, seed: int, seconds: float, tracer=None) -> Pass:
    p = Pass(tracer)
    if workload == "corpus":
        run_corpus(p)
    elif workload == "searches":
        run_searches(p)
    else:
        return run_analyze(p, seed, seconds, fast=workload == "analyze-fast")
    p.round_times = [p.timed]
    return p
