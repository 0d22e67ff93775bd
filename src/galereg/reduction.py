"""Reduction of a Gale diagram to four vectors, one per quadrant.

When the unit square is a syzygy quadrangle (the diagram hits all four
open quadrants), the rows can be partitioned so that class Q_i lies in
the i-th closed quadrant; summing each class gives a four-vector
diagram G_Q and with it a lattice L_Q in Z^4.  The invariants of L_Q
bound those of the original ideal:

    reg I_L <= reg I_Q <= deg I_Q <= deg I_L,

and this module computes, purely on the Gale side, when the outer
quantities survive the reduction: the half-plane criterion for
deg I_Q = deg I_L, the line-plus-simple criterion for a degree drop of
exactly one, the support sets governing the associated primes on a
quadrant pair, and the extra syzygy quadrangle that appears in the
drop-by-one case.

A diagram is a tuple of integer pairs, the rows of
:class:`~.zlattice.Lattice`; G_Q is returned the same way.  The
closed- and open-quadrant tests read one sign table, and the
multidegree of the extra quadrangle is
:func:`~.quadrangle.quadrangle_multidegree`, as for every syzygy
quadrangle.

Quadrants are labelled 1..4 counterclockwise (closed quadrant 1 is
x >= 0, y >= 0); row indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import (
    BadInput,
    InternalInconsistency,
    NotAllQuadrants,
    PreconditionNotBalanced,
    PreconditionShape,
    PreconditionUnbalancedPair,
)
from .fiberhom import fiber_of, hilbert_degree
from .intlinalg import det2, dot2, primitive_part, rot90, solve_2x2, xgcd
from .quadrangle import SyzygyQuadrangle, quadrangle_multidegree, regularity_fast
from .zlattice import Lattice, lattice_from_gale

_QUADRANT_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}


def _in_closed_quadrant(v, label: int) -> bool:
    sx, sy = _QUADRANT_SIGNS[label]
    return sx * v[0] >= 0 and sy * v[1] >= 0


def _in_open_quadrant(v, label: int) -> bool:
    sx, sy = _QUADRANT_SIGNS[label]
    return sx * v[0] > 0 and sy * v[1] > 0


def hits_all_open_quadrants(vectors) -> bool:
    """True when each of the four open quadrants contains a vector."""
    return all(any(_in_open_quadrant(v, label) for v in vectors) for label in _QUADRANT_SIGNS)


def _admissible_quadrants(v):
    return tuple(q for q in (1, 2, 3, 4) if _in_closed_quadrant(v, q))


def _opposite(label: int) -> int:
    return label + 2 if label <= 2 else label - 2


@dataclass(frozen=True)
class ReductionDatum:
    """A Gale diagram together with a quadrant partition of its rows.

    ``partition`` holds four tuples of 0-based row indices, class i
    living in the i-th closed quadrant.  Because every open-quadrant
    row can only be assigned to its own class, each class automatically
    contains an interior vector.  ``gale`` repeats ``lattice.rows``; it
    must equal them and is otherwise unused.
    """

    lattice: Lattice
    gale: tuple
    partition: tuple

    def __post_init__(self):
        if tuple(self.gale) != self.lattice.rows:
            raise BadInput("gale diagram does not match the lattice rows")
        part = tuple(tuple(sorted(cls)) for cls in self.partition)
        if len(part) != 4:
            raise BadInput("partition must have exactly four classes")
        object.__setattr__(self, "partition", part)
        n = self.lattice.n
        seen = sorted(i for cls in part for i in cls)
        if seen != list(range(n)):
            raise BadInput("partition must cover every row index exactly once")
        rows = self.lattice.rows
        for label, cls in zip((1, 2, 3, 4), part):
            for i in cls:
                if not _in_closed_quadrant(rows[i], label):
                    raise BadInput(
                        f"row {i} = {rows[i]} is not in closed quadrant {label}"
                    )
        if not hits_all_open_quadrants(rows):
            raise NotAllQuadrants("diagram must hit all four open quadrants")

    def members(self, label: int):
        """The vectors of class ``label`` (1..4), in index order."""
        return tuple(self.lattice.rows[i] for i in self.partition[label - 1])


def enumerate_partitions(rows):
    """All quadrant partitions of the diagram ``rows``, lexicographically.

    Interior vectors are forced into their quadrant; axis vectors
    branch over the two closed quadrants containing them and zero
    vectors over all four.  Choices are ordered row-major with quadrant
    labels ascending, so the output order is deterministic.
    """
    if not hits_all_open_quadrants(rows):
        raise NotAllQuadrants("diagram must hit all four open quadrants")
    choices = [_admissible_quadrants(v) for v in rows]
    out = []
    for assignment in product(*choices):
        part = tuple(
            tuple(i for i, q in enumerate(assignment) if q == label)
            for label in (1, 2, 3, 4)
        )
        out.append(part)
    return out


def _class_sum(datum, labels):
    """The sum of the vectors in the classes ``labels``."""
    vs = [v for label in labels for v in datum.members(label)]
    return (sum(v[0] for v in vs), sum(v[1] for v in vs))


def reduced_gale(datum: ReductionDatum):
    """``(rows, lattice)``: the four-vector diagram G_Q and L_Q in Z^4.

    Row i of G_Q is the sum of class i; it lies strictly inside the
    i-th quadrant because the class does and contains an interior
    vector.
    """
    rows = tuple(_class_sum(datum, (label,)) for label in (1, 2, 3, 4))
    for label, s in zip((1, 2, 3, 4), rows):
        if not _in_open_quadrant(s, label):
            raise InternalInconsistency(
                f"class {label} sums to {s}, not interior to its quadrant"
            )
    return rows, lattice_from_gale(rows)


def is_perfectly_balanced(datum: ReductionDatum) -> bool:
    """Whether classes 1 u 3 and 2 u 4 each sum to zero."""
    return _class_sum(datum, (1, 3)) == (0, 0) and _class_sum(datum, (2, 4)) == (0, 0)


@dataclass(frozen=True)
class SimpleWitness:
    """Certificate for a simple pair.

    ``side`` is the class holding the two nonzero vectors v, w (ordered
    so det(v, w) = +1); ``shape`` is "pair" when the opposite class
    holds {-v, -w} and "sum" when it holds {-v-w}.
    """

    side: int
    v: tuple
    w: tuple
    shape: str

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "v": list(self.v),
            "w": list(self.w),
            "shape": self.shape,
        }


def _nonzero_members(datum, label):
    return [v for v in datum.members(label) if v != (0, 0)]


def _simple_on_side(datum, side, other):
    mine = _nonzero_members(datum, side)
    theirs = _nonzero_members(datum, other)
    if len(mine) != 2:
        return None
    v, w = mine
    d = det2(v, w)
    if d == -1:
        v, w = w, v
    elif d != 1:
        return None
    neg = sorted([(-v[0], -v[1]), (-w[0], -w[1])])
    if sorted(theirs) == neg:
        return SimpleWitness(side, v, w, "pair")
    s = (-v[0] - w[0], -v[1] - w[1])
    if s != (0, 0) and theirs == [s]:
        return SimpleWitness(side, v, w, "sum")
    return None


def is_simple(datum: ReductionDatum, pair):
    """Whether the datum is {i,j}-simple, with the witness if so.

    One class of the pair must hold exactly two nonzero vectors v, w
    with det(v, w) = +-1, and the other exactly {-v, -w} or the single
    vector {-v-w}.  Vectors are compared as multisets: repeated rows
    count.  The classes of the pair must jointly sum to zero.
    """
    i, j = sorted(pair)
    if not {i, j} <= {1, 2, 3, 4} or i == j:
        raise BadInput("pair must be two distinct quadrant labels")
    if _class_sum(datum, (i, j)) != (0, 0):
        raise PreconditionUnbalancedPair(f"classes {i} and {j} do not sum to zero")
    witness = _simple_on_side(datum, i, j) or _simple_on_side(datum, j, i)
    return witness is not None, witness


def _minimal_line_points(u0, step):
    """Two lattice points on u0 + Z*step minimizing (sup norm, 1-norm, lex).

    Here step = rot90(p) and p . u0 = 1, so the line is p . u = 1, at
    distance 1/|p| from 0; u0 + t*step is its Euclidean foot, and
    center = floor(t).  The two points k = center, center + 1 lie within
    one step of the foot, so their Euclidean and hence sup norms are at
    most e = sqrt(1/|p|^2 + |p|^2).  Neither of the two best points ranks
    below both of those, so each has a sup norm at most e, hence a
    Euclidean norm at most sqrt(2) e: with s = |k - t|,
    1/|p|^2 + s^2 |p|^2 <= 2/|p|^2 + 2 |p|^2, and s^2 <= 2 + 1/|p|^4 <= 3.
    Both therefore lie within sqrt(3) steps of the foot, in
    k = center - 1 .. center + 2, and the window center +- 4 holds them.
    """

    def key(u):
        return (max(abs(u[0]), abs(u[1])), abs(u[0]) + abs(u[1]), u)

    center = -dot2(u0, step) // dot2(step, step)
    pts = [
        (u0[0] + k * step[0], u0[1] + k * step[1])
        for k in range(center - 4, center + 5)
    ]
    return tuple(sorted(pts, key=key)[:2])


@dataclass(frozen=True)
class SupportSets:
    """Solutions u of v1.u = 1, v_{-1}.u = -1 orthogonal to the rest.

    For the quadrant pair {i, j} (j opposite i), ``a`` collects the
    solutions with both v1 and v_{-1} taken from class i, ``b`` those
    with v1 from class i and v_{-1} from class j, and ``c`` is their
    union.  When the two defining equations coincide (v_{-1} = -v1) and
    no other nonzero vector constrains u, the solution set is a full
    line; ``degenerate_line`` flags this and ``b`` then holds the two
    line points with smallest coordinates.
    """

    quadrant: int
    opposite: int
    a: frozenset
    b: frozenset
    degenerate_line: bool

    @property
    def c(self) -> frozenset:
        return self.a | self.b


def _pair_solutions(p, q, others):
    """Integer u with p.u = 1, q.u = -1, b.u = 0 for all b in others.

    Returns (solutions, degenerate) where degenerate marks the
    unconstrained coincident-equation case (infinitely many u; the two
    smallest are returned).
    """
    if p == (0, 0) or q == (0, 0):
        return (), False
    if det2(p, q) != 0:
        u = solve_2x2(p, q, (1, -1))
        if u is not None and all(dot2(b, u) == 0 for b in others):
            return (u,), False
        return (), False
    if (q[0], q[1]) != (-p[0], -p[1]):
        return (), False
    g, x, y = xgcd(p[0], p[1])
    if g != 1:
        return (), False
    u0 = (x, y)
    step = rot90(p)
    constraints = [b for b in others if b != (0, 0)]
    if not constraints:
        return _minimal_line_points(u0, step), True
    # u0 + k step is orthogonal to b exactly for k = -b.u0 / b.step
    ks = set()
    for b in constraints:
        den = dot2(b, step)
        if den == 0 or dot2(b, u0) % den:
            return (), False
        ks.add(-dot2(b, u0) // den)
    if len(ks) != 1:
        return (), False
    (k,) = ks
    return ((u0[0] + k * step[0], u0[1] + k * step[1]),), False


def support_sets(datum: ReductionDatum, quadrant: int) -> SupportSets:
    """The support sets A, B, C for a quadrant and its opposite.

    Every ordered pair (v1, v_{-1}) of distinct rows — both from the
    quadrant's class for A, v_{-1} from the opposite class for B — is
    solved exactly; the remaining rows of the two classes must be
    orthogonal to the solution.
    """
    if quadrant not in (1, 2, 3, 4):
        raise BadInput("quadrant label must be 1..4")
    j = _opposite(quadrant)
    rows = datum.lattice.rows
    mine = datum.partition[quadrant - 1]
    pool = mine + datum.partition[j - 1]
    a_set = set()
    b_set = set()
    degenerate = False
    for i1 in mine:
        for i2 in pool:
            if i1 == i2:
                continue
            others = [rows[k] for k in pool if k not in (i1, i2)]
            sols, line = _pair_solutions(rows[i1], rows[i2], others)
            if i2 in mine:
                a_set.update(sols)
            else:
                b_set.update(sols)
                degenerate = degenerate or line
    return SupportSets(quadrant, j, frozenset(a_set), frozenset(b_set), degenerate)


def halfspace_witness(vectors) -> Optional[tuple]:
    """A nonzero integer u with v.u >= 0 for every input, if one exists.

    If a closed half-plane contains all the vectors it can be rotated
    until its boundary meets one of them, so it suffices to test the
    two rotations of each nonzero input; the lexicographically smallest
    valid witness is returned.  Zero vectors impose nothing; with no
    nonzero input the convention is (0, 1).
    """
    nonzero = [v for v in vectors if v != (0, 0)]
    if not nonzero:
        return (0, 1)
    candidates = set()
    for v in nonzero:
        r = rot90(primitive_part(v))
        candidates.add(r)
        candidates.add((-r[0], -r[1]))
    for u in sorted(candidates):
        if all(dot2(v, u) >= 0 for v in nonzero):
            return u
    return None


def degree_preserved(datum: ReductionDatum) -> bool:
    """Whether deg I_Q = deg I_L: both diagonal unions fit in half-planes."""
    return (
        halfspace_witness(datum.members(1) + datum.members(3)) is not None
        and halfspace_witness(datum.members(2) + datum.members(4)) is not None
    )


def _drop_one_witness(datum, pair):
    """The degree-drop criterion for one diagonal pair {i, j}.

    The complementary classes must lie on a single line through the
    origin and the datum must be {i,j}-simple; returns the simple
    witness, or None when either fails.
    """
    vs = [v for q in (1, 2, 3, 4) if q not in pair for v in _nonzero_members(datum, q)]
    if any(det2(vs[0], v) for v in vs[1:]):
        return None
    return is_simple(datum, pair)[1]


def degree_drop_one(datum: ReductionDatum) -> bool:
    """Whether deg I_Q = deg I_L - 1, for a perfectly balanced datum.

    Holds exactly when, for {i,j} = {1,3} or {2,4}, the other two
    classes lie on one line through the origin and the datum is
    {i,j}-simple.
    """
    if not is_perfectly_balanced(datum):
        raise PreconditionNotBalanced("degree-drop criterion needs a perfectly balanced datum")
    return any(_drop_one_witness(datum, pair) for pair in ((1, 3), (2, 4)))


def new_quadrangle(datum: ReductionDatum) -> SyzygyQuadrangle:
    """The syzygy quadrangle of I_Q that the drop-by-one case creates.

    Requires a perfectly balanced datum with, for a diagonal pair, the
    complementary classes on one line and a simple witness (v, w); the
    quadrangle is spanned by the rotations of v and w by pi/2, with
    multidegree read off against G_Q.  Its total degree is checked to
    be at least the unit square's.
    """
    if not is_perfectly_balanced(datum):
        raise PreconditionShape("datum is not perfectly balanced")
    chosen = _drop_one_witness(datum, (1, 3)) or _drop_one_witness(datum, (2, 4))
    if chosen is None:
        raise PreconditionShape("no diagonal pair is on-a-line and simple")
    vp = rot90(chosen.v)
    wp = rot90(chosen.w)
    rows, l_q = reduced_gale(datum)
    a = quadrangle_multidegree(rows, vp, wp)
    total = sum(a)
    unit = sum(quadrangle_multidegree(rows, (1, 0), (0, 1)))
    if total < unit:
        raise InternalInconsistency(
            f"new quadrangle total {total} below unit square total {unit}"
        )
    return SyzygyQuadrangle(vp, wp, fiber_of(l_q, a), total)


def find_reg_eq_deg_partition(lattice: Lattice):
    """A partition whose reduced ideal has reg = deg, if any.

    Scans all quadrant partitions in order and evaluates regularity and
    degree of each reduced four-vector lattice; intended for
    non-Cohen-Macaulay diagrams normalized so the unit square attains
    the regularity.  None means no enumerated partition works.
    """
    for part in enumerate_partitions(lattice.rows):
        datum = ReductionDatum(lattice, lattice.rows, part)
        _, l_q = reduced_gale(datum)
        if regularity_fast(l_q) == hilbert_degree(l_q):
            return part
    return None
