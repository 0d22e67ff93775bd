"""Primitive parallelograms supported by a Gale diagram.

A pair v, w in Z^2 with |det(v, w)| = 1 spans the parallelogram
conv{0, v, w, v+w}.  When every one of the four open sectors cut out by
the functionals b -> b.v and b -> b.w contains a Gale vector, each
vertex of the parallelogram is supported by some row and the pair is a
*syzygy quadrangle*: it records a minimal third syzygy of the lattice
ideal, in the fiber class of the vector a with

    a_j = max(0, b_j.v, b_j.w, b_j.(v+w)),

computed by :func:`quadrangle_multidegree`, which the reduction module
also uses for the quadrangle a reduced diagram gains.

The quadrangles determine Cohen-Macaulayness (none exist iff the ideal
is Cohen-Macaulay, for non complete intersections) and the regularity
of a non-Cohen-Macaulay ideal (two less than the largest total degree
sum(a)).  Together with the shear-based complete-intersection test this
gives the homology-free fast path used by the classifier and the
searches.

A class of total degree T has both edges in the ball
sum_j |b_j.u| <= 2T; the rows sum to zero, so sum_j |b_j.u| =
2 sum_j max(0, b_j.u) and the ball is the polygon
G_T = {u : sum_j max(0, b_j.u) <= T} whose grid the rank-2 oracle
builds (:func:`~.fiberhom.gh_grid`).  Negating v or w translates the
parallelogram and leaves the sector test, |det(v, w)| and the total
degree unchanged, so the scan pairs only the primitive points of G_T
after the origin in lex order: one of each pair +-u.  No quadrangle
lies beyond :func:`~.fiberhom.betti_horizon`, so the Cohen-Macaulay
test, the fast regularity and the unit-square normalization all read
the one scan up to that horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionCI, PreconditionCM
from .fiberhom import (FiberClass, betti_horizon, fiber_of, gh_grid, hilbert_degree,
                       reg_deg_via_hilbert)
from .intlinalg import det2, dot2, primitive_part, rot90, xgcd
from .zlattice import Lattice


@dataclass(frozen=True)
class SyzygyQuadrangle:
    """A primitive parallelogram [v, w] supported by the Gale diagram.

    ``v`` and ``w`` are the canonical edge pair of the translation
    class, ``multidegree`` the fiber class of the vector a above, and
    ``total_degree`` = sum(a), which is the same for every translate.
    """

    v: tuple
    w: tuple
    multidegree: FiberClass
    total_degree: int

    def to_json_dict(self) -> dict:
        return {
            "v": list(self.v),
            "w": list(self.w),
            "rep": list(self.multidegree.representative),
            "total": self.total_degree,
        }


def _neg(v):
    return (-v[0], -v[1])


def _imbalancing_shear_exists(rows, v) -> bool:
    """Integer functional f with f.v = 1 and b.f <= 0 off the axis line.

    Vectors parallel to v land on the new y-axis and are exempt; every
    other row b imposes a one-sided rational bound -b.u0 / c on the
    shear parameter k in f = u0 + k*rot90(v), c = b.rot90(v).  An
    integer k exists when the floor of the least upper bound reaches
    the ceiling of the greatest lower bound; the floor of a minimum is
    the minimum of the floors, and likewise for ceilings and maxima.
    """
    _, x, y = xgcd(v[0], v[1])  # v is primitive, so the gcd is 1
    u0 = (x, y)
    omega = rot90(v)
    lo = hi = None
    for b in rows:
        c = dot2(b, omega)
        if c == 0:
            continue
        num = -dot2(b, u0)
        if c > 0:
            k = num // c
            hi = k if hi is None else min(hi, k)
        else:
            k = -(-num // c)
            lo = k if lo is None else max(lo, k)
    if lo is None or hi is None:
        return True
    return hi >= lo


@lru_cache(maxsize=1024)
def _is_ci_rows(rows) -> bool:
    dirs = set()
    for b in rows:
        if b == (0, 0):
            continue
        p = primitive_part(b)
        dirs.add(p)
        dirs.add(_neg(p))
    return any(_imbalancing_shear_exists(rows, v) for v in sorted(dirs))


def is_complete_intersection(lattice: Lattice) -> bool:
    """Whether some unimodular change of basis makes the diagram imbalanced.

    Imbalanced means every Gale vector lies on the y-axis or has
    nonpositive y-coordinate; the ideal is a complete intersection
    exactly when such a presentation exists.  Candidate axis directions
    are the directions of Gale vectors: an axis parallel to no row
    would force all rows, which sum to zero, onto one line.
    """
    return _is_ci_rows(lattice.rows)


def quadrangle_multidegree(rows, v, w) -> tuple:
    """The vector a of the parallelogram [v, w] against the diagram ``rows``.

    a_j = max(0, b_j.v, b_j.w, b_j.(v+w)), the largest value of b_j on
    the four vertices; sum(a) is the quadrangle's total degree.
    """
    vw = (v[0] + w[0], v[1] + w[1])
    return tuple(max(0, dot2(b, v), dot2(b, w), dot2(b, vw)) for b in rows)


def _canonical_pair(v, w):
    """Lexicographically smallest of the eight edge pairs of the class."""
    best = None
    for a in (v, _neg(v)):
        for b in (w, _neg(w)):
            for pair in ((a, b), (b, a)):
                if best is None or pair < best:
                    best = pair
    return best


@lru_cache(maxsize=1024)
def _quadrangle_pairs(rows, bound: int):
    """All syzygy quadrangle classes of total degree <= bound.

    Returns canonical (v, w) pairs sorted by (total degree, v, w).  A
    class of total degree T has sum_j |b_j.v| <= 2T, and since the rows
    sum to zero that ball is G_T = {u : sum_j max(0, b_j.u) <= T}, the
    polygon of :func:`~.fiberhom.gh_grid`.  Negating v or w translates
    the parallelogram, so half of G_T suffices: its points after the
    origin in lex order.  Only primitive v can have |det(v, w)| = 1.
    """
    pts, vals = gh_grid(rows, bound)
    after = slice(len(pts) // 2 + 1, None)
    pts, vals = pts[after], vals[after]
    keep = np.gcd(pts[:, 0], pts[:, 1]) == 1
    half = list(map(tuple, pts[keep].tolist()))
    vals = vals[keep]
    pos, neg = ([int.from_bytes(m, "little") for m in np.packbits(s, axis=1, bitorder="little")]
                for s in (vals > 0, vals < 0))
    found = []
    for a in range(len(half)):
        v = half[a]
        pv, nv = pos[a], neg[a]
        for b in range(a + 1, len(half)):
            w = half[b]
            pw, nw = pos[b], neg[b]
            if not (pv & pw and nv & pw and nv & nw and pv & nw):
                continue
            if abs(det2(v, w)) != 1:
                continue
            t = sum(quadrangle_multidegree(rows, v, w))
            if t <= bound:
                found.append((t, _canonical_pair(v, w)))
    found.sort()
    return tuple(found)


def enumerate_syzygy_quadrangles(lattice: Lattice, bound: int):
    """All syzygy quadrangles of total degree <= bound, canonically sorted.

    Raises PreconditionCI for complete intersections, whose resolutions
    are Koszul and carry no quadrangles in this sense.
    """
    if is_complete_intersection(lattice):
        raise PreconditionCI("quadrangle enumeration requires a non complete intersection")
    out = []
    for total, (v, w) in _quadrangle_pairs(lattice.rows, bound):
        a = quadrangle_multidegree(lattice.rows, v, w)
        out.append(SyzygyQuadrangle(v, w, fiber_of(lattice, a), total))
    return out


def _horizon_pairs(lattice: Lattice):
    """Every syzygy quadrangle class, as :func:`_quadrangle_pairs` lists them.

    No quadrangle lies beyond :func:`~.fiberhom.betti_horizon`, so the
    scan to it is complete.
    """
    return _quadrangle_pairs(lattice.rows, betti_horizon(hilbert_degree(lattice)))


def is_cohen_macaulay(lattice: Lattice) -> bool:
    """Whether the lattice ideal is Cohen-Macaulay.

    Complete intersections always are; otherwise the ideal is
    Cohen-Macaulay exactly when it has no syzygy quadrangle.
    """
    if is_complete_intersection(lattice):
        return True
    return not _horizon_pairs(lattice)


def regularity_fast(lattice: Lattice) -> int:
    """Regularity without homology.

    Non-Cohen-Macaulay ideals: two less than the maximum total degree
    of a syzygy quadrangle.  Cohen-Macaulay ideals: recovered from the
    Hilbert function, whose numerator ends at reg + 1 when the
    projective dimension is at most 2.
    """
    if not is_complete_intersection(lattice):
        quads = _horizon_pairs(lattice)
        if quads:
            return quads[-1][0] - 2
    return reg_deg_via_hilbert(lattice)[0]


_IDENTITY = ((1, 0), (0, 1))


def normalize_unit_square(lattice: Lattice):
    """Present the diagram so the unit square attains the regularity.

    Picks a syzygy quadrangle [v, w] of maximal total degree
    (lexicographically smallest canonical pair on ties) and returns
    ``(rows, U)``: the transformed rows, a tuple of integer pairs, and
    the change of basis U, whose columns are v and w, acting on rows by
    b -> b*U = (b.v, b.w).  When the unit square itself attains the
    maximum, U is the identity and the rows are returned unchanged.
    Cohen-Macaulay input is rejected: it has no quadrangles to
    normalize.
    """
    if is_cohen_macaulay(lattice):
        raise PreconditionCM("normalization requires a non-Cohen-Macaulay ideal")
    pairs = _horizon_pairs(lattice)
    max_total = pairs[-1][0]
    attaining = sorted(p for t, p in pairs if t == max_total)
    unit = _canonical_pair((1, 0), (0, 1))
    if unit in attaining:
        return lattice.rows, _IDENTITY
    v, w = attaining[0]
    u = ((v[0], w[0]), (v[1], w[1]))
    return tuple((dot2(b, v), dot2(b, w)) for b in lattice.rows), u
