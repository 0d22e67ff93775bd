"""Reference mathematics the benchmark checks the program's answers against.

Nothing here imports ``galereg``: every function works on plain integer
tuples, so a fault in the package cannot hide itself by agreeing with
its own reference.

* :func:`gale_degree` -- the degree of a rank-2 lattice ideal as
  sum |det(b_i, b_j)| over the pairs of Gale vectors whose open cone
  holds a fixed generic vector w (the Gale-dual form of degree as a
  normalized volume; Sturmfels, *Groebner Bases and Convex Polytopes*,
  1996).  Cone membership is decided by signs of integer determinants.
* :func:`betti_identities` -- the K-polynomial sum_{i,j} (-1)^i
  beta_{i,j} t^j of a codimension-c quotient is (1 - t)^c h(t) with
  h(1) = deg, so sum K_j C(j, k) vanishes for k < c and equals
  (-1)^c deg for k = c.
* :func:`maximality_consistent` -- a verdict says maximal exactly when
  reg = deg - 1.
* :func:`has_syzygy_quadrangle` -- a unimodular pair (v, w) whose four
  open sign sectors each hold a Gale vector; for codimension 2 lattice
  ideals such a pair exists exactly when the ideal is not
  Cohen-Macaulay (Peeva-Sturmfels, "Syzygies of codimension 2 lattice
  ideals", Math. Z. 1998).  Used only to sort generated inputs.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd


def det2(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def gale_degree(rows) -> int:
    """Degree of the lattice ideal with Gale diagram ``rows``.

    w = (1, K) with K above every coordinate is parallel to no nonzero
    row, so it lies on no cone boundary: det(w, b) = b_y - K b_x is
    b_y != 0 when b_x = 0 and has |K b_x| > |b_y| otherwise.
    """
    k = 1 + max(abs(x) for r in rows for x in r)
    w = (1, k)
    total = 0
    for a, b in combinations(rows, 2):
        d = det2(a, b)
        if d == 0:
            continue
        s = _sign(d)
        # w = alpha a + beta b with alpha = det(w, b)/d, beta = det(a, w)/d
        if _sign(det2(w, b)) == s and _sign(det2(a, w)) == s:
            total += abs(d)
    return total


def minor_gcd(rows) -> int:
    g = 0
    for a, b in combinations(rows, 2):
        g = gcd(g, det2(a, b))
    return g


def is_saturated(rows) -> bool:
    return minor_gcd(rows) == 1


def _primitive(v):
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def is_nondegenerate(rows) -> bool:
    """No e_i - e_j in the lattice, i.e. no integer x with b_i.x = 1,
    b_j.x = -1 and b_k.x = 0 for every other row."""
    n = len(rows)
    for i, j in combinations(range(n), 2):
        others = [rows[k] for k in range(n) if k not in (i, j) and rows[k] != (0, 0)]
        if any(det2(a, b) for a, b in combinations(others, 2)):
            continue  # the other rows span the plane, forcing x = 0
        if others:
            d = _primitive(others[0])
            x = (-d[1], d[0])  # every admissible x is a multiple of this
            si = rows[i][0] * x[0] + rows[i][1] * x[1]
            sj = rows[j][0] * x[0] + rows[j][1] * x[1]
            if abs(si) == 1 and sj == -si:
                return False
        elif rows[i] != (0, 0) and rows[j] == (-rows[i][0], -rows[i][1]) \
                and gcd(*rows[i]) == 1:
            return False
    return True


def k_polynomial(entries) -> dict:
    """{j: K_j} from Betti entries given as (i, total degree j, rank)."""
    k = {0: 1}
    for i, j, rank in entries:
        k[j] = k.get(j, 0) + (-1) ** i * rank
    return k


def betti_identities(entries, degree: int, codim: int = 2) -> bool:
    """The alternating Betti sums vanish through order codim - 1 and
    give (-1)^codim times the degree at order codim."""
    k = k_polynomial(entries)
    for order in range(codim + 1):
        s = sum(c * comb(j, order) for j, c in k.items())
        want = (-1) ** codim * degree if order == codim else 0
        if s != want:
            return False
    return True


def maximality_consistent(maximal: bool, degree: int, regularity: int) -> bool:
    return maximal == (regularity == degree - 1)


def _sign_masks(rows, v):
    pos = neg = 0
    for k, b in enumerate(rows):
        s = b[0] * v[0] + b[1] * v[1]
        if s > 0:
            pos |= 1 << k
        elif s < 0:
            neg |= 1 << k
    return pos, neg


def has_syzygy_quadrangle(rows, degree: int) -> bool:
    """Whether a unimodular pair (v, w) splits the rows into four
    nonempty open sign sectors.

    Such a pair records a third syzygy of total degree
    T = sum_j max(0, b_j.v, b_j.w, b_j.(v + w)) <= reg + 2 <= deg + 2,
    and because the rows sum to zero sum_j |b_j.v| <= 2T, which bounds
    the search.
    """
    m = 2 * (degree + 2)
    r1, r2 = next((a, b) for a, b in combinations(rows, 2) if det2(a, b))
    d = abs(det2(r1, r2))
    xmax = m * (abs(r1[1]) + abs(r2[1])) // d
    ymax = m * (abs(r1[0]) + abs(r2[0])) // d
    half = []
    for y in range(ymax + 1):
        for x in range(-xmax, xmax + 1):
            if (y == 0 and x <= 0) or gcd(x, y) != 1:
                continue
            if sum(abs(b[0] * x + b[1] * y) for b in rows) <= m:
                half.append(((x, y),) + _sign_masks(rows, (x, y)))
    for a in range(len(half)):
        v, pv, nv = half[a]
        for b in range(a + 1, len(half)):
            w, pw, nw = half[b]
            if pv & pw and nv & pw and nv & nw and pv & nw and abs(det2(v, w)) == 1:
                return True
    return False
