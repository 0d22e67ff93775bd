"""Verdict-level criteria for maximal Castelnuovo-Mumford regularity.

A codimension-2 lattice ideal satisfies reg <= deg - 1 once it is
nondegenerate and not a plane curve, and this module decides when
equality holds:

* monomial curves, from the exponent sequence alone;
* complete intersections, via the Koszul formulas;
* Cohen-Macaulay ideals, via the degree-2 fiber count (char 0);
* arbitrary saturated nondegenerate rank-2 lattices, via the full
  classification: a finite list of two-quadric complete intersections
  plus one infinite family in each of 4, 5 and 6 effective variables.

Everything returns an auditable witness (matched table row, family
parameters, or the failed condition) so the verdicts can be replayed
against the homological oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from typing import Optional

from .errors import (
    AmbientTooSmall,
    BadInput,
    Degenerate,
    DegreeOne,
    GcdNotOne,
    InternalInconsistency,
    NotIncreasing,
    NotSaturated,
    PreconditionNotCM,
    PreconditionNotCMnonCI,
)
from .fiberhom import (
    betti_horizon,
    degree_and_regularity,
    hilbert_degree,
    hilbert_numerator,
    regularity_from_numerator,
)
from .intlinalg import det2, is_visible, xgcd
from .quadrangle import is_cohen_macaulay, is_complete_intersection
from .zlattice import (
    Lattice,
    is_nondegenerate,
    is_saturated,
    lattice_from_gale,
    permutation_canonical_key,
    strip_zero_coordinates,
)

# ---------------------------------------------------------------------------
# monomial curves


@dataclass(frozen=True)
class CurveSpec:
    """Exponents 0 = a_1 < a_2 < ... < a_n = d of a monomial curve.

    The curve is parametrized by t -> (t^{a_1} s^{d-a_1} : ... : t^{a_n});
    gcd(a_2, ..., a_n) = 1 makes the parametrization generically
    injective.
    """

    exponents: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in self.exponents)
        object.__setattr__(self, "exponents", a)
        if len(a) < 3:
            raise AmbientTooSmall("a monomial curve needs at least 3 exponents")
        if a[0] != 0:
            raise BadInput("exponent sequence must start at 0")
        if any(a[k] >= a[k + 1] for k in range(len(a) - 1)):
            raise NotIncreasing("exponents must be strictly increasing")
        if gcd(*a[1:]) != 1:
            raise GcdNotOne("exponents past the first must have gcd 1")

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def d(self) -> int:
        return self.exponents[-1]

    def longest_gap(self) -> int:
        """Most consecutive missing integers between two exponents."""
        a = self.exponents
        return max(a[k + 1] - a[k] - 1 for k in range(len(a) - 1))

    def symmetric_run(self) -> int:
        """Largest i with both 0..i and d-i..d among the exponents."""
        s = set(self.exponents)
        d = self.d
        i = 0
        while i + 1 <= d and all(k in s for k in range(i + 2)) and all(
            d - k in s for k in range(i + 2)
        ):
            i += 1
        return i


def classify_monomial_curve(spec: CurveSpec):
    """(maximal, case, longest gap, symmetric run) for a monomial curve.

    Maximal regularity means reg = deg - n + 3 here.  Plane curves
    (n = 3) always attain it: their ideal is principal of degree d, so
    reg = deg = d.  For n >= 4 the curve is maximal iff d <= n or the
    exponents are one of the two runs-with-a-jump patterns
    (0, 1, ..., n-3, d-1, d) and (0, 1, d-n+3, ..., d).
    """
    a = spec.exponents
    n, d = spec.n, spec.d
    lam = spec.longest_gap()
    eps = spec.symmetric_run()
    if n == 3:
        return True, "PLANE_CURVE", lam, eps
    if d <= n:
        return True, "LOW_DEGREE", lam, eps
    if a == tuple(range(n - 2)) + (d - 1, d):
        return True, "RUN_AT_BOTTOM", lam, eps
    if a == (0, 1) + tuple(range(d - n + 3, d + 1)):
        return True, "RUN_AT_TOP", lam, eps
    return False, "NOT_MAXIMAL", lam, eps


# ---------------------------------------------------------------------------
# complete intersections


def koszul_reg_deg(degrees):
    """(reg, deg, maximal) of a complete intersection from its degrees.

    The Koszul resolution gives reg = d_1 + ... + d_m - m + 1 and
    deg = d_1 * ... * d_m, so reg = deg - m + 1 exactly for m = 1 or
    two quadrics.  Degree-1 generators signal degeneracy and must be
    stripped by the caller.
    """
    ds = tuple(int(d) for d in degrees)
    if not ds:
        raise BadInput("need at least one generator degree")
    if any(d < 1 for d in ds):
        raise BadInput("generator degrees must be positive")
    if any(d == 1 for d in ds):
        raise DegreeOne("degree-1 generator: strip the degenerate variable first")
    m = len(ds)
    reg = sum(ds) - m + 1
    deg = 1
    for d in ds:
        deg *= d
    maximal = m == 1 or (m == 2 and ds == (2, 2))
    return reg, deg, maximal


# ---------------------------------------------------------------------------
# Cohen-Macaulay criteria


def classify_cm_nonci(lattice: Lattice) -> bool:
    """Whether a Cohen-Macaulay non-complete-intersection is maximal.

    Equivalently, whether the ideal is minimally generated by three
    quadrics; the resolution is then 0 -> S(-3)^2 -> S(-2)^3 -> I -> 0
    and (reg, deg) = (2, 3), which is asserted.
    """
    if is_complete_intersection(lattice) or not is_cohen_macaulay(lattice):
        raise PreconditionNotCMnonCI(
            "criterion applies to Cohen-Macaulay non complete intersections"
        )
    deg, reg, table = degree_and_regularity(lattice)
    gens = table.select(1)
    if sum(e.rank for e in gens) != 3 or any(e.total_degree != 2 for e in gens):
        return False
    syz = table.select(2)
    if (
        sum(e.rank for e in syz) != 2
        or any(e.total_degree != 3 for e in syz)
        or table.max_i() > 2
        or (reg, deg) != (2, 3)
    ):
        raise InternalInconsistency(
            "three quadric generators without the 0 -> S(-3)^2 -> S(-2)^3 shape"
        )
    return True


@dataclass(frozen=True)
class CmMaximalityReport:
    """Verdict of the degree-2 fiber count criterion (char 0).

    ``degree2_classes`` is the value of the Hilbert function at 2;
    subtracting it from binom(n+1, 2) gives the number of quadric
    generators.  Maximality holds exactly on the two listed thresholds,
    and is then re-verified against the Hilbert series numerator
    1 + 2t + t^2 + ... + t^{reg-1}.
    """

    maximal: bool
    degree2_classes: int
    thresholds: tuple
    quadric_generators: int
    reg: int
    deg: int
    numerator: Optional[tuple]
    numerator_ok: Optional[bool]

    def to_json_dict(self) -> dict:
        return {
            "maximal": self.maximal,
            "degree2_classes": self.degree2_classes,
            "thresholds": list(self.thresholds),
            "quadric_generators": self.quadric_generators,
            "reg": self.reg,
            "deg": self.deg,
            "numerator": None if self.numerator is None else list(self.numerator),
            "numerator_ok": self.numerator_ok,
        }


def _divide_once_by_one_minus_t(coeffs):
    """Quotient of a polynomial by (1 - t); remainder is the final sum."""
    out = []
    run = 0
    for c in coeffs:
        run += c
        out.append(run)
    return tuple(out[:-1]), out[-1]


def cm_char0_criterion(lattice: Lattice) -> CmMaximalityReport:
    """The fiber-counting maximality test for Cohen-Macaulay ideals.

    In codimension 2 and characteristic zero, reg = deg - 1 holds for a
    Cohen-Macaulay lattice ideal exactly when the number of degree-2
    fiber classes is binom(n+1, 2) - 3 (three quadric generators,
    reg 2) or binom(n+1, 2) - 2 (two quadrics, a complete intersection
    with reg 3).
    """
    if not is_cohen_macaulay(lattice):
        raise PreconditionNotCM("fiber-count criterion needs a Cohen-Macaulay ideal")
    n = lattice.n
    deg = hilbert_degree(lattice)
    k_all = hilbert_numerator(lattice, betti_horizon(deg))
    reg = regularity_from_numerator(k_all, deg)
    # H(2) is the t^2 coefficient of K(t) / (1 - t)^n
    count = sum(k_all[k] * comb(n + 1 - k, n - 1) for k in range(3))
    pairs = comb(n + 1, 2)
    thresholds = (pairs - 3, pairs - 2)
    maximal = count in thresholds
    numerator = None
    numerator_ok = None
    if maximal:
        q, r1 = _divide_once_by_one_minus_t(k_all[:reg + 2])
        h, r2 = _divide_once_by_one_minus_t(q)
        if r1 or r2:
            raise InternalInconsistency(
                "Hilbert numerator of a Cohen-Macaulay ideal not divisible by (1-t)^2"
            )
        numerator = h
        numerator_ok = h == (1, 2) + (1,) * (reg - 2)
    return CmMaximalityReport(
        maximal, count, thresholds, pairs - count, reg, deg, numerator, numerator_ok
    )


# ---------------------------------------------------------------------------
# the finite list of maximal two-quadric complete intersections

#: Every rank-2 lattice whose ideal is a complete intersection with
#: reg = deg - 1, presented by the rows of its Gale diagram and listed
#: with its ambient size and saturation status.  Up to coordinate
#: permutation and change of basis, the list is complete for all n.
MAXIMAL_CI_DIAGRAMS = (
    (3, False, ((0, 2), (2, -1), (-2, -1))),
    (3, False, ((0, 2), (2, -2), (-2, 0))),
    (4, True, ((0, 2), (2, -1), (-1, 0), (-1, -1))),
    (4, False, ((0, 1), (0, 1), (2, -2), (-2, 0))),
    (4, False, ((0, 1), (0, 1), (2, -1), (-2, -1))),
    (4, False, ((0, 2), (2, 0), (0, -2), (-2, 0))),
    (4, False, ((0, 2), (2, -1), (0, -1), (-2, 0))),
    (5, True, ((0, 1), (0, 1), (2, 0), (-1, -1), (-1, -1))),
    (5, True, ((0, 1), (0, 1), (2, -1), (-1, 0), (-1, -1))),
    (5, True, ((0, 1), (0, 1), (1, 0), (1, -2), (-2, 0))),
    (5, True, ((0, 2), (1, 0), (1, -1), (-1, 0), (-1, -1))),
    (5, True, ((0, 2), (2, 0), (0, -1), (-1, 0), (-1, -1))),
    (5, False, ((0, 1), (0, 1), (2, -1), (0, -1), (-2, 0))),
    (5, False, ((0, 1), (0, 1), (2, 0), (0, -2), (-2, 0))),
    (6, True, ((0, 1), (0, 1), (1, -1), (1, -1), (-1, 0), (-1, 0))),
    (6, True, ((0, 1), (0, 1), (1, 0), (1, -1), (-1, 0), (-1, -1))),
    (6, True, ((0, 1), (0, 1), (2, 0), (0, -1), (-1, 0), (-1, -1))),
    (6, True, ((0, 1), (0, 1), (2, -1), (0, -1), (-1, 0), (-1, 0))),
    (6, True, ((0, 1), (0, 1), (2, 0), (0, -2), (-1, 0), (-1, 0))),
    (6, False, ((0, 1), (0, 1), (2, 0), (0, -1), (0, -1), (-2, 0))),
    (7, True, ((0, 1), (0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 0))),
    (7, True, ((0, 1), (0, 1), (2, 0), (0, -1), (0, -1), (-1, 0), (-1, 0))),
    (8, True, ((0, 1), (0, 1), (1, 0), (1, 0), (0, -1), (0, -1), (-1, 0), (-1, 0))),
)


@lru_cache(maxsize=1)
def _saturated_ci_keys():
    """Canonical key -> table index, over the saturated list entries."""
    out = {}
    for idx, (_, saturated, rows) in enumerate(MAXIMAL_CI_DIAGRAMS):
        if saturated:
            out[permutation_canonical_key(lattice_from_gale(rows))] = idx
    return out


# ---------------------------------------------------------------------------
# the three infinite families


def _n4_family_diagram(d: int):
    return ((1, 0), (-1, 1), (-1, -d + 1), (1, d - 2))


def _match_n4(vs):
    """Match against the n' = 4 family member whose parameter d is the degree.

    The member of parameter d >= 3 has degree d, so no other member can
    match.  Proof: with b1 = (1, 0), b2 = (-1, 1), b3 = (-1, 1 - d) and
    b4 = (1, d - 2), :func:`~.fiberhom.hilbert_degree` takes
    w = (1, K) with K = 1 + max |coordinate| = d, and sums |det(b_i, b_j)|
    over the pairs whose open cone, the arc shorter than pi between the
    two vectors, holds w.  By argument in [0, 2pi),

        b1 = 0 < b4 = arctan(d - 2) < w = arctan(d) < b2 = 3pi/4
           < b3 = pi + arctan(d - 1).

    The cones of {b1, b2} and {b4, b2} are the arcs [0, 3pi/4] and
    [arctan(d - 2), 3pi/4], which hold w.  Those of {b1, b4} and
    {b2, b3} end before w or start after it.  b3 lies more than pi
    after b1 and b4, so the cones of {b1, b3} and {b4, b3} run from b3
    through 2pi = 0 and stop at b1 or b4, before w.  The degree is
    therefore |det(b1, b2)| + |det(b4, b2)| = 1 + (d - 1) = d.  A change
    of basis and a permutation of the coordinates keep the degree, so
    ``vs`` can only be equivalent to the member with d = deg I_L.
    """
    lat = lattice_from_gale(vs)
    d = hilbert_degree(lat)
    if d >= 3 and permutation_canonical_key(lat) == permutation_canonical_key(
            lattice_from_gale(_n4_family_diagram(d))):
        return "N4_FAMILY", {"d": d}
    return None


def _match_n5(vs):
    for i in range(5):
        for j in range(i + 1, 5):
            if vs[j] != (-vs[i][0], -vs[i][1]):
                continue
            u = max(vs[i], vs[j])
            rest = [vs[k] for k in range(5) if k not in (i, j)]
            for t in range(3):
                z = rest[t]
                v, w = (rest[k] for k in range(3) if k != t)
                if (v[0] + w[0], v[1] + w[1]) != (-z[0], -z[1]):
                    continue
                if not all(is_visible(x) for x in (u, v, w)):
                    continue
                if det2(u, v) == 0 or det2(u, w) == 0 or abs(det2(v, w)) != 1:
                    continue
                if u in ((-z[0], -z[1]), z):
                    continue
                return "N5_FAMILY", {"u": u, "v": v, "w": w}
    return None


def _match_n6(vs):
    remaining = list(vs)
    reps = []
    while remaining:
        x = remaining.pop(0)
        y = (-x[0], -x[1])
        if y not in remaining:
            return None
        remaining.remove(y)
        reps.append(max(x, y))
    if len(reps) != 3 or not all(is_visible(x) for x in reps):
        return None
    dets = {
        (i, j): abs(det2(reps[i], reps[j])) for i, j in ((0, 1), (0, 2), (1, 2))
    }
    if any(d == 0 for d in dets.values()):
        return None
    for (i, j), d in dets.items():
        if d == 1:
            k = 3 - i - j
            return "N6_FAMILY", {"u": reps[k], "v": reps[i], "w": reps[j]}
    return None


def match_family_forms(vectors):
    """Match 4, 5 or 6 nonzero Gale vectors against the maximal families.

    n'=4: equivalent, up to permutation and change of basis, to
    {(1,0), (-1,1), (-1,-d+1), (1,d-2)} with d = deg I_L >= 3, the one
    member of that degree.  n'=5: {u, v, w, -u, -v-w} with u, v, w
    visible, pairwise independent, u != +-(v+w) and det(v, w) = +-1.
    n'=6: {+-u, +-v, +-w} visible, pairwise independent, with (v, w)
    chosen as a pair of determinant +-1.  Returns (case, params) or
    None.
    """
    vs = tuple(tuple(int(x) for x in v) for v in vectors)
    if any(v == (0, 0) for v in vs):
        raise BadInput("family matching expects nonzero vectors")
    if len(vs) == 4:
        return _match_n4(vs)
    if len(vs) == 5:
        return _match_n5(vs)
    if len(vs) == 6:
        return _match_n6(vs)
    return None


# ---------------------------------------------------------------------------
# shape matchers used by the four-vector analysis


def matches_n4_maximal_form(vectors):
    """Match four vectors against {(1,a), (-1,d-1), (-1,1-a), (1,-d)}.

    The comparison is up to the dihedral symmetries of the square
    (coordinate swap and sign flips); (a, d) is returned on success.
    Every four-vector diagram with reg = deg - 1 whose unit square
    attains the regularity lies on two lines or matches this form.
    """
    vs = tuple(tuple(int(x) for x in v) for v in vectors)
    if len(vs) != 4:
        raise BadInput("expected exactly four vectors")
    for sx in (1, -1):
        for sy in (1, -1):
            for swap in (False, True):
                img = [
                    (sx * (v[1] if swap else v[0]), sy * (v[0] if swap else v[1]))
                    for v in vs
                ]
                plus = sorted(v[1] for v in img if v[0] == 1)
                minus = sorted(v[1] for v in img if v[0] == -1)
                if len(plus) != 2 or len(minus) != 2:
                    continue
                for a, negd in (plus, reversed(plus)):
                    d = -negd
                    if sorted((d - 1, 1 - a)) == minus:
                        return a, d
    return None


def matches_reg_eq_deg_form(vectors):
    """The least (a, b) with D(a, b) = {+-(1,1), +-(a,-b)} equivalent to
    the four vectors (by change of basis and permutation), or None.

    O(1): they must pair up as {+-p, +-q} with beta = det(p, q) != 0
    and p or q primitive.  Proof: take p primitive, r with
    det(p, r) = 1, and alpha = det(q, r); then q = alpha p + beta r, and
    p -> (1,1), r -> (0,1) sends q to (alpha, alpha + beta).  Replacing r
    by +-r + k p, or q by -q, turns (alpha, beta) into
    (+-alpha + k beta, +-beta), so the vectors are equivalent to D(a, b)
    with a + b = |beta| and a = +-alpha (mod |beta|).  The one exception
    is alpha = 0 (mod |beta|): then +-p lie off the line of q at
    |det| = 1, and the diagram is degenerate (None).  An equivalence
    onto D(a, b) sends p or q to +-(1,1), so that one is primitive; when
    both are, each gives its a (D(2, 5) ~ D(3, 4)), and the least is
    taken.  A columns shape {+-(1, a), +-(1, -b)} has this form, so it
    is a diagonal shape up to equivalence.
    """
    vs = sorted(tuple(int(x) for x in v) for v in vectors)
    if len(vs) != 4:
        raise BadInput("expected exactly four vectors")
    # negation reverses the order, so {+-p, +-q} sorts as p, q, -q, -p
    p, q = vs[0], vs[1]
    if vs[3] != (-p[0], -p[1]) or vs[2] != (-q[0], -q[1]):
        return None
    least = m = abs(det2(p, q))
    for u, v in ((p, q), (q, p)):
        g, x, y = xgcd(u[0], u[1])
        if m and g == 1:
            alpha = det2(v, (-y, x)) % m
            if not alpha:
                return None
            least = min(least, alpha, m - alpha)
    return (least, m - least) if least < m else None


# ---------------------------------------------------------------------------
# the classifier


@dataclass(frozen=True)
class MaximalRegularityVerdict:
    """Outcome of the maximal-regularity classification.

    ``case`` is CI_TABLE, N4_FAMILY, N5_FAMILY, N6_FAMILY or
    NOT_MAXIMAL; ``params`` carries the matched witness (table index,
    family parameters) or the failing reason.  ``certified`` records
    whether the homological oracle re-checked the verdict.
    """

    maximal: bool
    case: str
    params: dict
    certified: bool = False

    def __post_init__(self):
        if self.maximal != (self.case != "NOT_MAXIMAL"):
            raise InternalInconsistency("verdict flag disagrees with its case")

    def to_json_dict(self) -> dict:
        def clean(x):
            if isinstance(x, tuple):
                return list(x)
            return x

        return {
            "maximal": self.maximal,
            "case": self.case,
            "params": {k: clean(v) for k, v in self.params.items()},
            "certified": self.certified,
        }


def classify_maximal(lattice: Lattice, certify: bool = False) -> MaximalRegularityVerdict:
    """Decide reg = deg - 1 for a saturated nondegenerate rank-2 lattice.

    Zero Gale vectors are stripped first (free variables do not change
    regularity or degree).  Three effective variables never reach the
    bound; complete intersections are looked up in the finite table;
    otherwise the diagram is matched against the n' = 4, 5, 6 families,
    and nothing with n' > 6 is maximal.  With ``certify`` the verdict
    is replayed against the homological oracle.
    """
    if not is_saturated(lattice):
        raise NotSaturated("classification requires a saturated lattice")
    if not is_nondegenerate(lattice):
        raise Degenerate("classification requires a nondegenerate ideal")
    stripped = strip_zero_coordinates(lattice)
    nprime = stripped.n
    if nprime == 3:
        verdict = MaximalRegularityVerdict(
            False, "NOT_MAXIMAL", {"reason": "only three effective variables"}
        )
    elif is_complete_intersection(stripped):
        idx = _saturated_ci_keys().get(permutation_canonical_key(stripped))
        if idx is None:
            verdict = MaximalRegularityVerdict(
                False,
                "NOT_MAXIMAL",
                {"reason": "complete intersection outside the two-quadric table"},
            )
        else:
            verdict = MaximalRegularityVerdict(
                True, "CI_TABLE", {"table_index": idx, "n": nprime}
            )
    elif nprime <= 6:
        match = match_family_forms(stripped.rows)
        if match is None:
            verdict = MaximalRegularityVerdict(
                False,
                "NOT_MAXIMAL",
                {"reason": f"no family form matches with {nprime} effective variables"},
            )
        else:
            case, params = match
            verdict = MaximalRegularityVerdict(True, case, params)
    else:
        verdict = MaximalRegularityVerdict(
            False,
            "NOT_MAXIMAL",
            {"reason": "more than six effective variables and not a complete intersection"},
        )
    if certify:
        deg, reg, _ = degree_and_regularity(stripped)
        if (reg == deg - 1) != verdict.maximal:
            raise InternalInconsistency(
                f"classifier said maximal={verdict.maximal}, oracle found reg={reg}, deg={deg}"
            )
        verdict = MaximalRegularityVerdict(
            verdict.maximal, verdict.case, verdict.params, certified=True
        )
    return verdict
