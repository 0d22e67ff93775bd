"""Command line interface.

One subcommand per task, a single JSON document on stdout, and
deterministic output ordering.  Exit codes: 0 success, 1 internal
inconsistency, 2 bad input, 3 golden or consistency mismatch.

::

    galereg analyze --A "[[1,1,1,1],[0,1,2,3]]"
    galereg analyze --basis "[[1,-2,1,0],[0,1,-2,1]]" --fast
    galereg classify --file lattice.json --certify
    galereg curve 0,1,4,5
    galereg reduce --file datum.json
    galereg search table1 --check
    galereg search sweep --max-coord 2 --max-n 6

``--file`` points at a JSON object holding exactly one of ``"A"``,
``"basis"``, ``"gale"`` or ``"lattice"`` (an alias for ``"basis"``);
for ``reduce`` it may also hold a ``"partition"`` of row indices into
the four quadrant classes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .classify import classify_maximal, classify_monomial_curve, CurveSpec
from .errors import (
    BadInput,
    Degenerate,
    GaleregError,
    InternalInconsistency,
    PreconditionNotBalanced,
    PreconditionUnbalancedPair,
)
from .fiberhom import betti_horizon, degree_and_regularity, hilbert_degree
from .quadrangle import (
    enumerate_syzygy_quadrangles,
    is_cohen_macaulay,
    is_complete_intersection,
    normalize_unit_square,
    regularity_fast,
)
from .reduction import (
    ReductionDatum,
    degree_drop_one,
    degree_preserved,
    enumerate_partitions,
    is_perfectly_balanced,
    is_simple,
    reduced_gale,
)
from .searches import (
    check_golden,
    consistency_sweep,
    run_search,
)
from .zlattice import (
    is_nondegenerate,
    is_saturated,
    kernel_lattice,
    lattice_from_basis,
    lattice_from_gale,
)

# ---------------------------------------------------------------------------
# input handling


def _parse_matrix(text: str, what: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadInput(f"{what} is not valid JSON: {exc}") from None
    return _check_matrix(data, what)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_matrix(data, what: str):
    if not isinstance(data, list) or not data or not all(
        isinstance(row, list) and row for row in data
    ):
        raise BadInput(f"{what} must be a non-empty list of non-empty lists")
    for row in data:
        for x in row:
            if not _is_int(x):
                raise BadInput(f"{what} entries must be integers, got {x!r}")
    if len({len(row) for row in data}) != 1:
        raise BadInput(f"{what} rows must all have the same length")
    return [tuple(row) for row in data]


def _load_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadInput(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise BadInput(f"{path} must hold a JSON object")
    return data


def _lattice_from_args(args):
    """Resolve --A / --basis / --file to (lattice, input echo, file payload)."""
    payload = _load_file(args.file) if getattr(args, "file", None) else {}
    sources = []
    if getattr(args, "A", None):
        sources.append(("A", _parse_matrix(args.A, "--A")))
    if getattr(args, "basis", None):
        sources.append(("basis", _parse_matrix(args.basis, "--basis")))
    for key in ("A", "basis", "gale", "lattice"):
        if key in payload:
            name = "basis" if key == "lattice" else key
            sources.append((name, _check_matrix(payload[key], f'file key "{key}"')))
    if len(sources) != 1:
        raise BadInput(
            "expected exactly one lattice source among --A, --basis and the "
            'file keys "A"/"basis"/"gale"/"lattice"'
        )
    kind, mat = sources[0]
    if kind == "A":
        lattice = kernel_lattice(mat)
    elif kind == "basis":
        lattice = lattice_from_basis(mat)
    else:
        lattice = lattice_from_gale(mat)
    echo = {
        "n": lattice.n,
        "gale": [list(r) for r in lattice.rows],
        "given": {kind: [list(r) for r in mat]},
    }
    return lattice, echo, payload


#: The first 13 primes.  As Miller-Rabin bases they decide primality
#: exactly below _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact for p < _PRIME_LIMIT."""
    if p < 2:
        return False
    if p in _MR_BASES:
        return True
    if any(p % b == 0 for b in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _parse_field(text: str):
    if text == "rational":
        return None
    try:
        p = int(text)
    except ValueError:
        raise BadInput(f'--field must be "rational" or a prime, got {text!r}') from None
    if p >= _PRIME_LIMIT:
        raise BadInput(f"--field {p} is too large to certify prime; use a prime below {_PRIME_LIMIT}")
    if not _is_prime(p):
        raise BadInput(f"--field {p} is not prime")
    return p


# ---------------------------------------------------------------------------
# subcommands


def _verdict_not_applicable(reason: str) -> dict:
    return {
        "maximal": None,
        "case": "NOT_APPLICABLE",
        "params": {"reason": reason},
        "certified": False,
    }


def cmd_analyze(args):
    lattice, echo, _ = _lattice_from_args(args)
    field = _parse_field(args.field)
    if not is_nondegenerate(lattice):
        raise Degenerate("two ambient coordinates coincide on every fiber")
    saturated = is_saturated(lattice)
    ci = is_complete_intersection(lattice)
    cm = is_cohen_macaulay(lattice)
    report = {
        "input": echo,
        "field": "rational" if field is None else field,
        "saturated": saturated,
        "nondegenerate": True,
        "complete_intersection": ci,
        "cohen_macaulay": cm,
    }
    if args.fast:
        deg, reg = hilbert_degree(lattice), regularity_fast(lattice)
    else:
        deg, reg, table = degree_and_regularity(lattice, field=field)
        report["betti"] = table.to_json_dict()
        if args.certify:
            fast = (hilbert_degree(lattice), regularity_fast(lattice))
            if fast != (deg, reg):
                raise InternalInconsistency(
                    "fast invariants disagree with the homology oracle: "
                    f"fast (deg, reg) = {fast}, oracle (deg, reg) = ({deg}, {reg})"
                )
    report["degree"] = deg
    report["regularity"] = reg
    if reg > deg:
        raise InternalInconsistency(f"regularity {reg} exceeds degree {deg}")
    if ci:
        report["quadrangles"] = []
    else:
        quads = enumerate_syzygy_quadrangles(lattice, betti_horizon(deg))
        report["quadrangles"] = [q.to_json_dict() for q in quads]
    if saturated:
        verdict = classify_maximal(lattice, certify=args.certify)
        if verdict.maximal != (reg == deg - 1):
            raise InternalInconsistency(
                f"classification {verdict.case} disagrees with "
                f"(deg, reg) = ({deg}, {reg})"
            )
        report["verdict"] = verdict.to_json_dict()
    else:
        report["verdict"] = _verdict_not_applicable("NotSaturated")
    return report, 0


def cmd_classify(args):
    lattice, echo, _ = _lattice_from_args(args)
    verdict = classify_maximal(lattice, certify=args.certify)
    return {"input": echo, "verdict": verdict.to_json_dict()}, 0


def cmd_curve(args):
    try:
        exponents = [int(part) for part in args.exponents.split(",")]
    except ValueError:
        raise BadInput(
            f"exponents must be a comma-separated integer list, got {args.exponents!r}"
        ) from None
    spec = CurveSpec(tuple(exponents))
    maximal, case, gap, run = classify_monomial_curve(spec)
    return {
        "exponents": list(spec.exponents),
        "n": spec.n,
        "degree": spec.d,
        "maximal": maximal,
        "case": case,
        "longest_gap": gap,
        "symmetric_run": run,
    }, 0


def _simplicity_block(datum, pair):
    try:
        holds, witness = is_simple(datum, pair)
    except PreconditionUnbalancedPair:
        return None
    block = {"holds": holds}
    if witness is not None:
        block["witness"] = witness.to_json_dict()
    return block


def cmd_reduce(args):
    lattice, echo, payload = _lattice_from_args(args)
    if not is_nondegenerate(lattice):
        raise Degenerate("two ambient coordinates coincide on every fiber")
    diagram, transform = normalize_unit_square(lattice)
    normalized = lattice_from_gale(diagram)
    deg_l, reg_l, _ = degree_and_regularity(lattice)
    if "partition" in payload:
        part = payload["partition"]
        if not isinstance(part, list) or len(part) != 4 or not all(
            isinstance(cls, list) and all(map(_is_int, cls)) for cls in part
        ):
            raise BadInput('file key "partition" must be a list of four lists of integers')
        partitions = [tuple(map(tuple, part))]
    else:
        partitions = enumerate_partitions(diagram)
    blocks = []
    for part in partitions:
        datum = ReductionDatum(normalized, diagram, part)
        reduced, reduced_lattice = reduced_gale(datum)
        deg_q, reg_q, _ = degree_and_regularity(reduced_lattice)
        if not reg_l <= reg_q <= deg_q <= deg_l:
            raise InternalInconsistency(
                f"invariant chain violated: reg {reg_l} <= {reg_q} <= "
                f"deg {deg_q} <= {deg_l} fails"
            )
        balanced = is_perfectly_balanced(datum)
        preserved = degree_preserved(datum)
        if preserved != (deg_q == deg_l):
            raise InternalInconsistency(
                "support-set witness disagrees with the degree oracle"
            )
        try:
            drop_one = degree_drop_one(datum)
        except PreconditionNotBalanced:
            drop_one = None
        blocks.append(
            {
                "partition": [list(cls) for cls in datum.partition],
                "reduced_gale": [list(v) for v in reduced],
                "balanced": balanced,
                "simple": {
                    "pair_13": _simplicity_block(datum, (1, 3)),
                    "pair_24": _simplicity_block(datum, (2, 4)),
                },
                "degree_preserved": preserved,
                "degree_drop_one": drop_one,
                "chain": {
                    "reg_original": reg_l,
                    "reg_reduced": reg_q,
                    "deg_reduced": deg_q,
                    "deg_original": deg_l,
                },
            }
        )
    return {
        "input": echo,
        "transform": [list(r) for r in transform],
        "normalized_gale": [list(v) for v in diagram],
        "degree": deg_l,
        "regularity": reg_l,
        "partitions": blocks,
    }, 0


def cmd_search(args):
    if args.name == "sweep":
        report = consistency_sweep(max_n=args.max_n, max_coord=args.max_coord)
        doc = {"search": "sweep", **report.to_json_dict()}
        if args.check and report.mismatches:
            return doc, 3
        return doc, 0
    report = run_search(args.name)
    doc = {"search": args.name, **report.to_json_dict()}
    if args.check:
        ok = check_golden(args.name, report)
        doc["check"] = "ok" if ok else "mismatch"
        if not ok:
            return doc, 3
    return doc, 0


# ---------------------------------------------------------------------------
# pretty rendering


def _render_table(rows, headers):
    cols = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cols[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _render(doc) -> str:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if key == "betti":
            lines.append("betti:")
            rows = [
                (e["i"], e["total"], e["rep"], e["rank"]) for e in value["entries"]
            ]
            lines.append(_render_table(rows, ["i", "total", "rep", "rank"]))
            lines.append(f"  horizon: {value['horizon']}")
        elif key == "quadrangles" and value:
            lines.append("quadrangles:")
            rows = [(q["v"], q["w"], q["rep"], q["total"]) for q in value]
            lines.append(_render_table(rows, ["v", "w", "rep", "total"]))
        elif key == "entries":
            lines.append("entries:")
            rows = [(e["n"], e["saturated"], e["gale"]) for e in value]
            lines.append(_render_table(rows, ["n", "saturated", "gale"]))
        elif key == "partitions":
            for i, block in enumerate(value):
                lines.append(f"partition {i}:")
                for k in sorted(block):
                    lines.append(f"  {k}: {json.dumps(block[k], sort_keys=True)}")
        else:
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser and entry point


def _add_lattice_flags(sub):
    sub.add_argument("--A", help="JSON grading matrix whose kernel is the lattice")
    sub.add_argument("--basis", help="JSON pair of integer basis vectors")
    sub.add_argument("--file", help="JSON file with one of A/basis/gale/lattice")


def _add_pretty_flag(sub):
    sub.add_argument(
        "--pretty",
        action="store_true",
        default=argparse.SUPPRESS,
        help="render tables instead of JSON",
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``galereg`` argument parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="galereg",
        description="Invariants of codimension-2 lattice ideals.",
    )
    parser.add_argument(
        "--pretty", action="store_true", help="render tables instead of JSON"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="full invariant report")
    _add_lattice_flags(analyze)
    mode = analyze.add_mutually_exclusive_group()
    mode.add_argument(
        "--fast",
        action="store_true",
        help="skip homology; use the Gale degree, quadrangle and Hilbert shortcuts",
    )
    mode.add_argument(
        "--certify",
        action="store_true",
        help="run both the oracle and the shortcuts and cross-check",
    )
    analyze.add_argument(
        "--field",
        default="rational",
        help='homology coefficients: "rational" or a prime',
    )
    _add_pretty_flag(analyze)
    analyze.set_defaults(func=cmd_analyze)

    classify = subs.add_parser("classify", help="maximal-regularity verdict only")
    _add_lattice_flags(classify)
    _add_pretty_flag(classify)
    classify.add_argument(
        "--certify",
        action="store_true",
        help="re-verify the verdict against the homology oracle",
    )
    classify.set_defaults(func=cmd_classify)

    curve = subs.add_parser("curve", help="classify a monomial curve")
    curve.add_argument("exponents", help='comma-separated exponents, e.g. "0,1,4,5"')
    _add_pretty_flag(curve)
    curve.set_defaults(func=cmd_curve)

    reduce_ = subs.add_parser("reduce", help="quadrant reduction to 4 vectors")
    _add_lattice_flags(reduce_)
    _add_pretty_flag(reduce_)
    reduce_.set_defaults(func=cmd_reduce)

    search = subs.add_parser("search", help="run a finite search")
    search.add_argument("name", help="table1, cm-nonci or sweep")
    search.add_argument(
        "--check",
        action="store_true",
        help="compare against the golden record (exit 3 on mismatch)",
    )
    search.add_argument("--max-coord", type=int, default=2, help="sweep box bound")
    search.add_argument("--max-n", type=int, default=6, help="sweep ambient bound")
    _add_pretty_flag(search)
    search.set_defaults(func=cmd_search)
    return parser


def _emit(doc, pretty: bool):
    if pretty:
        print(_render(doc))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.func(args)
    except InternalInconsistency as exc:
        _emit({"error": {"type": "InternalInconsistency", "message": str(exc)}},
              args.pretty)
        return 1
    except GaleregError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              args.pretty)
        return 2
    _emit(doc, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
