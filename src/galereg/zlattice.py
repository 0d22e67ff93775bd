"""Rank-2 integer lattices orthogonal to (1, ..., 1) and their Gale diagrams.

A lattice is stored through an n x 2 basis matrix B whose columns span
it.  The rows b_1, ..., b_n of B, one vector in Z^2 per coordinate of
the ambient space, form the Gale diagram of the lattice; replacing B by
B*U for unimodular U changes the diagram but not the lattice.  The rows,
a tuple of integer pairs, are the only representation of a diagram:
the combinatorial machinery in the other modules works directly on
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import (
    AmbientTooSmall,
    BadInput,
    NotHomogeneous,
    RankDeficient,
    WrongRank,
)
from .intlinalg import (
    det2,
    dot2,
    integer_kernel,
    mat_rank,
    primitive_part,
    solve_2x2,
    xgcd,
)


def has_rank_two(rows) -> bool:
    """True when the integer pairs span the plane.

    O(n): the rows span the plane exactly when some row is not parallel
    to the first nonzero one.
    """
    base = next((r for r in rows if r != (0, 0)), None)
    return base is not None and any(det2(base, r) for r in rows)


@dataclass(frozen=True)
class Lattice:
    """A rank-2 sublattice of Z^n, n >= 3, orthogonal to (1, ..., 1).

    ``rows[i]`` is the i-th Gale vector; the two columns of the matrix
    they form are a basis of the lattice.  Instances are immutable and
    hashable; build them with :func:`lattice_from_basis`,
    :func:`lattice_from_gale` or :func:`kernel_lattice`, which coerce
    their input, or from a tuple of integer pairs directly.

    A lattice is valid by construction: a tuple (else WrongRank) of at
    least 3 rows (else AmbientTooSmall), each a pair of integers (else
    WrongRank), summing to zero (else NotHomogeneous), of rank 2 (else
    RankDeficient).  No other code checks these again, and two
    consequences need no check:

    * Every fiber polygon {u in Z^2 : B u <= a} is bounded.  If B u <= 0
      then sum_i b_i . u = 0 forces B u = 0, and rank 2 gives u = 0; so
      the polygon has no recession direction.
    * At least 3 rows are nonzero.  Rank 2 needs two nonzero rows, and
      if only two were nonzero they would sum to zero, hence be
      parallel, and the rank would be 1.
    """

    rows: tuple

    def __post_init__(self):
        rows = self.rows
        if type(rows) is not tuple:
            raise WrongRank(f"the Gale vectors must form a tuple, got {type(rows).__name__}")
        if len(rows) < 3:
            raise AmbientTooSmall(f"need at least 3 coordinates, got {len(rows)}")
        for r in rows:
            if type(r) is not tuple or len(r) != 2 or type(r[0]) is not int or type(r[1]) is not int:
                raise WrongRank(f"a Gale vector must be a pair of integers, got {r!r}")
        sx = sum(r[0] for r in rows)
        sy = sum(r[1] for r in rows)
        if (sx, sy) != (0, 0):
            raise NotHomogeneous(f"basis columns sum to ({sx}, {sy}), not zero")
        if not has_rank_two(rows):
            raise RankDeficient("basis columns are rationally dependent")

    @property
    def n(self) -> int:
        return len(self.rows)

    def columns(self):
        """The two basis columns, as length-n tuples."""
        return tuple(tuple(r[k] for r in self.rows) for k in (0, 1))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "basis": [list(c) for c in self.columns()]}


def lattice_from_basis(columns) -> Lattice:
    """Build a lattice from two integer basis columns of equal length.

    BadInput unless there are exactly two columns, WrongRank when their
    lengths differ; :class:`Lattice` checks the rest.
    """
    if len(columns) != 2:
        raise BadInput("a basis must consist of exactly two vectors")
    c1, c2 = columns
    if len(c1) != len(c2):
        raise WrongRank("basis columns have different lengths")
    return Lattice(tuple((int(a), int(b)) for a, b in zip(c1, c2)))


def lattice_from_gale(vectors) -> Lattice:
    """Build a lattice whose Gale diagram is the given vector sequence."""
    return Lattice(tuple(tuple(int(x) for x in v) for v in vectors))


def kernel_lattice(a_matrix) -> Lattice:
    """Saturated kernel of an (n-2) x n integer matrix of rank n-2.

    The all-ones vector must lie in the rational row span, so that the
    kernel is orthogonal to it.  The kernel of an integer matrix is
    automatically saturated; the basis comes from Hermite elimination
    and is deterministic.
    """
    rows = [tuple(int(x) for x in r) for r in a_matrix]
    if not rows:
        raise WrongRank("empty matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise WrongRank("ragged matrix")
    if len(rows) != n - 2:
        raise WrongRank(f"expected {n - 2} rows for ambient dimension {n}, got {len(rows)}")
    if mat_rank(rows) != n - 2:
        raise WrongRank("matrix rank is below n - 2")
    ones = tuple(1 for _ in range(n))
    if mat_rank(rows + [ones]) != n - 2:
        raise NotHomogeneous("the all-ones vector is not in the row span")
    return lattice_from_basis(integer_kernel(rows, n))


def minor_gcd(lattice: Lattice) -> int:
    """Gcd of all 2 x 2 minors of the basis matrix."""
    g = 0
    for a, b in combinations(lattice.rows, 2):
        g = gcd(g, det2(a, b))
        if g == 1:
            return 1
    return g


def is_saturated(lattice: Lattice) -> bool:
    """True when the lattice equals its saturation (minor gcd is 1)."""
    return minor_gcd(lattice) == 1


def contains(lattice: Lattice, target) -> bool:
    """Exact membership of an integer vector in the lattice itself.

    Solves B x = target over the rationals through one independent row
    pair and demands an integer solution reproducing every coordinate.
    """
    rows = lattice.rows
    pair = next(((i, j) for i, j in combinations(range(len(rows)), 2)
                 if det2(rows[i], rows[j])))
    i, j = pair
    x = solve_2x2(rows[i], rows[j], (target[i], target[j]))
    if x is None:
        return False
    return all(dot2(r, x) == t for r, t in zip(rows, target))


def _line(v):
    """The primitive direction of a nonzero vector, up to sign."""
    p = primitive_part(v)
    return max(p, (-p[0], -p[1]))


def is_nondegenerate(lattice: Lattice) -> bool:
    """True when no difference e_i - e_j of unit vectors lies in the lattice.

    Closed form: e_i - e_j = B x for some x in Z^2 exactly when the other
    n - 2 rows lie on one line through 0, with primitive direction v,
    and |det(v, b_i)| = 1.  Proof: b_k . x = 0 for every k other than
    i, j.  Those rows are not all zero, or else b_j = -b_i and B would
    have rank below 2; so they span one line Z v, and x lies in
    Z rot90(v), the integer points of its orthogonal line.  Then
    b_i . x = 1 is solvable exactly when |det(v, b_i)| = 1, and
    b_j . x = -b_i . x follows from sum_k b_k = 0.  So the lattice is
    degenerate exactly when, for the direction v of some nonzero row,
    exactly two rows lie off the line through v, at |det(v, b)| = 1
    (their dets are opposite).
    """
    rows = lattice.rows
    for v in {_line(r) for r in rows if r != (0, 0)}:
        off = [d for d in (det2(v, r) for r in rows) if d]
        if len(off) == 2 and abs(off[0]) == 1:
            return False
    return True


def strip_zero_coordinates(lattice: Lattice) -> Lattice:
    """Drop coordinates whose Gale vector is zero.

    The corresponding variables do not appear in the ideal.  At least 3
    rows remain (see :class:`Lattice`), so the result is valid.
    """
    return Lattice(tuple(r for r in lattice.rows if r != (0, 0)))


def apply_right(v, u):
    """Row vector times 2 x 2 matrix: v * U."""
    return (v[0] * u[0][0] + v[1] * u[1][0], v[0] * u[0][1] + v[1] * u[1][1])


def transform_lattice(lattice: Lattice, u) -> Lattice:
    """Replace the basis B by B*U (same lattice when U is unimodular)."""
    return Lattice(tuple(apply_right(r, u) for r in lattice.rows))


def gale_equivalent(g, h, up_to_permutation: bool = False) -> bool:
    """Decide whether two Gale diagrams differ by a GL_2(Z) change of basis.

    Each is built into a :class:`Lattice`, ``h`` only when it has as many
    rows as ``g``, and an invalid one raises (RankDeficient for a ``g``
    that does not span the plane).  In order, H = G U for a unimodular
    U exactly when both span one lattice.  With ``up_to_permutation``
    the rows are compared as multisets: the answer is equality of the
    :func:`permutation_canonical_key` of each.
    """
    a = lattice_from_gale(g)
    if len(a.rows) != len(h):
        return False
    b = lattice_from_gale(h)
    if up_to_permutation:
        return permutation_canonical_key(a) == permutation_canonical_key(b)
    return (all(contains(a, c) for c in b.columns())
            and all(contains(b, c) for c in a.columns()))


def permutation_canonical_key(lattice: Lattice) -> tuple:
    """Canonical key identifying the lattice up to coordinate permutation.

    The key is the lexicographically least flattened column Hermite
    form (the column c1, then the column c2) over all orderings of the
    rows; two lattices get the same key exactly when one is the image
    of the other under a permutation of the ambient coordinates.

    The form of one ordering is fixed by two rows: the first nonzero
    row a and the first row b not parallel to a.  A unimodular change
    of basis sends a to (g, 0) with g = gcd(a), makes c2(b) > 0, and
    shears c1 so that 0 <= c1(b) < c2(b); every row then has a fixed
    image (c1, c2), and c2 = 0 exactly on the rows parallel to a and
    the zero rows.  Among the orderings with the same a, b and number
    j of nonzero rows between them, the least form puts the zero rows
    first (c1 is 0 on them and g > 0 on a), then a, then the j rows
    parallel to a with the least c1 in ascending order, then b, then
    the remaining rows sorted by (c1, c2): each choice minimises the
    first c1 entry where two orderings differ, and sorting ties by c2
    minimises the c2 column.  So the minimum over all n! orderings is
    the minimum over the candidates (a, b, j), with a and b distinct
    row values and 0 <= j <= the number of other rows parallel to a:
    O(n^3) candidates, each built in O(n log n).
    """
    nonzero = [r for r in lattice.rows if r != (0, 0)]
    lead = (0,) * (lattice.n - len(nonzero))
    best = None
    for a in set(nonzero):
        g, x, y = xgcd(a[0], a[1])
        s, t = a[1] // g, a[0] // g
        pairs = [(x * u + y * v, t * v - s * u) for u, v in nonzero]
        parallel = sorted(c1 for c1, c2 in pairs if not c2)
        parallel.remove(g)
        others = [p for p in pairs if p[1]]
        for b1, b2 in set(others):
            sign, m = (1 if b2 > 0 else -1), abs(b2)
            q = b1 // m
            rest = [(c1 - q * sign * c2, sign * c2) for c1, c2 in others]
            rest.remove((b1 % m, m))
            for j in range(len(parallel) + 1):
                tail = sorted(rest + [(c1, 0) for c1 in parallel[j:]])
                key = (lead + (g,) + tuple(parallel[:j]) + (b1 % m,)
                       + tuple(c1 for c1, _ in tail)
                       + lead + (0,) * (j + 1) + (m,)
                       + tuple(c2 for _, c2 in tail))
                if best is None or key < best:
                    best = key
    return best
