"""Fibers, fiber polytopes, and the homology Betti-table oracle.

For a residue class C of Z^n modulo a homogeneous lattice L, the fiber
of C is the finite set of exponent vectors of all monomials whose class
is C.  The simplicial complex generated by the supports of those
monomials computes multigraded Betti numbers of S/I_L:

    beta_{i,C}(S/I_L) = rank of the (i-1)-st reduced homology of the complex.

The degree has a closed form: on the Gale diagram for a rank-2 lattice
(:func:`hilbert_degree`), on the grading matrix for a monomial curve.
The regularity is read off the Betti table, which the oracle computes
through a horizon fixed in advance by a proven regularity bound:
reg <= deg for codimension-2 lattice ideals (Peeva and Sturmfels,
"Syzygies of codimension 2 lattice ideals", Math. Z. 1998), and
reg <= deg - codim + 1 for monomial curves (Gruson, Lazarsfeld and
Peskine, Invent. Math. 1983).  Every table the oracle returns is
certified by the Betti-sum identities against the known degree.  All
arithmetic is exact.

Only non-cone classes can carry a Betti number; a class is a cone when
some variable divides its whole fiber, and then its complex is
contractible.  For a rank-2 lattice with Gale vectors b_1, ..., b_n the
fiber of a is {a - B u : u in Z^2, B u <= a} (Peeva and Sturmfels), and
the class of a is a non-cone exactly when every inequality b_i . u <= a_i
is attained at a lattice point.  The non-cone classes therefore
correspond, up to translation, to the finite sets T of Z^2 that are
B-closed: T = {u in Z^2 : b_i . u <= max_T b_i . v for all i}.  The
class has a_i = max_T b_i . u and total degree sum_i a_i, which does not
change under translation since sum_i b_i = 0.  Closed sets are closed
under intersection, so closure(S), the least closed set holding S, is a
closure operator, and its degree grows with S.

The rank-2 oracle enumerates these sets directly, without touching a
monomial.  Translate T so that 0 is its lex-least point.  Then a >= 0,
and every u in T has f(u) = sum_i max(0, b_i . u) <= sum_i a_i, so T
lies in G_H = {u in Z^2 : f(u) <= H} for the horizon H.  f is convex,
positive away from 0 (the b_i have rank 2) and even (sum_i b_i = 0), so
G_H is a bounded polygon with -G_H = G_H; its vertices lie on the rays
+-rot90(b_i), where f changes slope, at H r / f(r), and exact integer
floors of those give its bounding box.  The points of G_H are indexed in
lex order, a set T is a bitmask over them, and for each row
``le[i][t]`` masks the points u with b_i . u <= t, t = 0..H.  Then
closure(T + {p}) = AND_i le[i][max(a_i, b_i . p)], and its degree vector
max(a, B p) is attained (by T or by p), so it needs no tightening.  The
sets are generated by prefix-preserving closure extension (Uno, Kiyomi
and Arimura, "LCM ver. 2", FIMI 2004): a child of T is closure(T + {p})
for p past the point that made T, kept only when it adds no point
before p.  For a closed set C other than {0}, let p be the first point
of C with closure(C up to p) = C; then C is the child of
closure(C before p) at p and of no other set, so each set comes out
once and no visited set is kept.  A child whose degree exceeds H is
pruned, and so is any closure with a point lex-below 0: both properties
pass to every superset, so pruning keeps the enumeration complete.  Such
a point is seen within G_H, since G_H = -G_H holds the lex-least point
of any closure of degree <= H.  The work is at most one AND of n masks
per (closed set, candidate point) pair, over the |G_H| points; the
memory is n (H + 1) masks of |G_H| bits, capped at MASK_CAP bits.  The grid (:func:`gh_grid`) is
shared with the syzygy-quadrangle scan, which runs over G_T for its
degree bound T.

Every lattice polygon is listed by one box scan (:func:`_box`): G_H,
and the fiber polygon {u : B u <= a} of a single class
(:func:`polygon_of`, :func:`fiber_of`), whose box runs between the
floors and ceilings of its vertices.  A fiber polygon is always
bounded: B u <= 0 gives sum_i b_i . u = 0, hence B u = 0, and rank 2
leaves u = 0 (see :func:`_polygon_points`).  The scan is int64, behind an exact
bound on sum_i |b_i . u| over the box, and the box is capped at GRID_CAP
points, so GRID_CAP bounds fiber polygons as well as G_H; both are
checked before the box is allocated, and a box beyond either raises
BadInput.

Spans of rank n - 2 other than 2 (monomial curves with n = 3 or
n >= 5) key every monomial through the horizon in one pass: among the
231 curves of degree at most 9, the 152 such spans take about 0.2 s
this way, where a prototype closure in Z^3 took 4.7 s.  The key is
the grading K a, with K the 2 x n integer kernel of the span
(:func:`~.intlinalg.integer_kernel`).  Since the span is checked saturated, it is the whole integer kernel
of K, so a and a' lie in one class exactly when K a = K a'; and the
all-ones vector, primitive and orthogonal to the span, is an integer
combination of the rows of K, so K a fixes the total degree as well.
The monomials of degree <= H are the first n coordinates of the
compositions of H into n + 1 parts, in lex order; for |a| <= H the
second grade k_1 . a lies in [H min(k_1, 0), H max(k_1, 0)], so with
R = H (max(k_1, 0) - min(k_1, 0)) + 1 the weights R k_0 + k_1 pack K a
into one mixed-radix number, injectively.  Every partial sum of that
mat-vec is at most H max |weight| in absolute value; when that bound
reaches _INT64_SAFE, the keys are the tuples K a in Python ints
instead, numbered through a dict, and the rest runs unchanged.  One
stable argsort groups the classes with each class's lex-least member
first, one OR-reduction of the zero masks over each class finds the
cone classes, which are pruned, and one sort of (class, support mask)
pairs leaves each live class's distinct supports.  A curve in P^(n-1)
has degree at least n - 1 (its grades are n distinct points on a line
of Z^2), so H >= n, the budget C(H + n, n) <= MONOMIAL_CAP leaves
n <= 11, and a pair (class index, n-bit mask) packs into int64 far
below the bound.

The homology of each non-cone fiber is memoized on its labelled
support complex, keyed by the sorted tuple of its facets (the
inclusion-maximal supports, :func:`_maximal`), which fixes the complex
exactly, so two fibers share a key exactly when their complexes are
equal.  A key holds at most C(n, n // 2) facets (Sperner), so it grows
with the complex, not with 2^n.  On a miss the facets are reduced to
their strong-collapse core (same homotopy type, far fewer distinct
complexes) and ranked through a second memo on the core, the
homological top and the field.  Whatever still lists monomials (the
Hilbert counts and the curve spans) counts them first, C(T + n, n)
through degree T or C(d + n - 1, n - 1) in degree d alone, and refuses
more than MONOMIAL_CAP with BadInput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, compress
from operator import mul, sub

import numpy as np

from .errors import BadInput, Degenerate, InternalInconsistency, NotHomogeneous
from .intlinalg import dot2, det2, integer_kernel, mat_rank, rot90, smith_left
from .zlattice import Lattice, is_nondegenerate, lattice_from_basis

_INT64_SAFE = 1 << 62
GRID_CAP = 1 << 22  # points in the bounding box of G_H or of a fiber polygon; see _box
MASK_CAP = 1 << 30  # bits in the closure's n (H + 1) masks over G_H (128 MiB); see _live_fibers
MONOMIAL_CAP = 1 << 21  # monomials listed for Hilbert counts and curve spans; see _monomial_budget


# ---------------------------------------------------------------------------
# class keys


class _Ctx:
    """Per-lattice data for keying residue classes of Z^n modulo a lattice.

    The basis rows must have full column rank.  In the package it serves
    only the Hilbert counts of a rank-2 Lattice (:func:`_degree_data`),
    whose rows have it by construction.
    ``torsion`` holds the rows of U whose coordinate is read modulo a
    diagonal entry m > 1, as (row, m); ``free`` the rows read exactly,
    as (row, span) with span = max(row, 0) - min(row, 0).
    """

    __slots__ = ("rows", "n", "r", "u", "mods", "torsion", "free")

    def __init__(self, rows):
        self.rows = rows
        self.n = len(rows)
        self.r = len(rows[0])
        u, diag = smith_left(rows)
        self.u = u
        self.mods = diag
        self.torsion = tuple((u[k], m) for k, m in enumerate(diag) if m > 1)
        self.free = tuple((row, max(max(row), 0) - min(min(row), 0)) for row in u[self.r:])

    def key(self, a):
        w = [sum(map(mul, u_i, a)) for u_i in self.u]
        for k in range(self.r):
            w[k] %= self.mods[k]
        return tuple(w)


@lru_cache(maxsize=1024)
def _ctx(rows) -> _Ctx:
    return _Ctx(rows)


@lru_cache(maxsize=128)
def _compositions(n: int, d: int):
    """All exponent vectors in N^n of total degree d, as a read-only array.

    One column per vector, in lex order, so each variable's exponents
    are contiguous; the dtype is the smallest unsigned one that holds d,
    uint8 through degree 255 and uint16 above.  A vector is the step
    sequence of a non-decreasing c in {0..d}^(n - 1), padded by 0 and d,
    and combinations_with_replacement lists those c in lex order.
    """
    dtype = np.min_scalar_type(d)
    count = math.comb(d + n - 1, n - 1)
    bounds = np.empty((n + 1, count), dtype=dtype)
    bounds[0], bounds[n] = 0, d
    bounds[1:n] = np.fromiter(chain.from_iterable(combinations_with_replacement(range(d + 1), n - 1)),
                              dtype=dtype, count=count * (n - 1)).reshape(count, n - 1).T
    arr = np.diff(bounds, axis=0)
    arr.setflags(write=False)
    return arr


def _weigh(exps, vector):
    """vector . a for each column a of exps, in int64.

    einsum casts exps to int64 in buffered chunks, where a matmul would
    first copy the whole array; the int64 vector also keeps NumPy from
    computing in the narrow dtype of exps, where a product would wrap.
    """
    return np.einsum("ji,j->i", exps, np.array(vector, dtype=np.int64))


def _sort_runs(key):
    """(order, change) for a nonempty int64 key array.

    ``order`` sorts key stably, so equal keys keep their input order,
    and ``change[k]`` says that key[order[k]] starts a run of equal keys.
    """
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    change = np.empty(len(sorted_key), dtype=bool)
    change[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:])
    return order, change


def _monomial_budget(n: int, d: int, cumulative: bool = True):
    """Refuse to list more than MONOMIAL_CAP monomials in n variables.

    Cumulatively, through degree d, they number C(d + n, n); in degree
    d alone, C(d + n - 1, n - 1).  The count is checked before
    any of them is allocated; the cap admits C(36, 6), six variables
    through degree 30, and holds the arrays of :func:`_compositions` to
    2^21 n bytes, one byte per exponent (two above degree 255).
    """
    if cumulative:
        count, what = math.comb(max(d + n, 0), n), f"degree <= {d}"
    else:
        count, what = math.comb(max(d + n - 1, 0), n - 1), f"degree {d}"
    if count > MONOMIAL_CAP:
        raise BadInput(f"the monomials of {what} in {n} variables "
                       f"number {count}, above the cap of {MONOMIAL_CAP}")


def _py_compositions(n, d):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _py_compositions(n - 1, d - first):
            yield (first,) + rest


def _packing(ctx: _Ctx, d: int):
    """Mixed-radix packing of the class key in degree d.

    Returns (weights, digits, bound).  The torsion digits come first:
    (row . a mod m) * place for each (row, m, place) in ``digits``.  Each
    free coordinate row . a lies in [d min(row, 0), d max(row, 0)], so
    it gets radix d * span + 1, and all of them fold into one weight
    vector.  key(a) = weights . a + sum of the torsion digits is then one
    mixed-radix number shifted by a constant, so it is injective on the
    classes of degree d.  Every partial sum of a mat-vec over a of degree
    d is at most d * max |weight| (resp. d * max |row|) in absolute
    value, and the torsion digits add less than the product of all
    radices; ``bound`` covers both and every int64 conversion.
    """
    e = max(d, 1)
    place = 1
    digits = []
    row_bound = 0
    for row, m in ctx.torsion:
        digits.append((row, m, place))
        place *= m
        row_bound = max(row_bound, e * max(map(abs, row)))
    weights = [0] * ctx.n
    for row, span in ctx.free:
        for j, x in enumerate(row):
            weights[j] += place * x
        place *= d * span + 1
    bound = max(row_bound, e * max(map(abs, weights)) + place)
    return weights, digits, bound


def _degree_data(ctx: _Ctx, d: int) -> int:
    """Number of fiber classes of total degree d: the Hilbert function at d.

    Only :func:`hilbert_function` and :func:`hilbert_numerator` call it,
    for rank-2 lattices, and :class:`_Ctx` serves nothing else; both go
    once the counts are read off the closure (ROADMAP item 4).  Above
    the int64 bound of :func:`_packing`, the classes are counted with
    big-integer keys instead.
    """
    weights, digits, bound = _packing(ctx, d)
    if bound < _INT64_SAFE:
        exps = _compositions(ctx.n, d)
        key = _weigh(exps, weights)
        for row, m, place in digits:
            key += _weigh(exps, row) % m * place
        return int(np.count_nonzero(_sort_runs(key)[1]))
    return len({ctx.key(a) for a in _py_compositions(ctx.n, d)})


# ---------------------------------------------------------------------------
# simplicial homology


def _maximal(masks):
    """The inclusion-maximal vertex bitmasks among masks, as a sorted tuple.

    Two sets of masks generate the same complex exactly when their
    maximal masks agree, so the tuple keys the labelled complex.
    """
    out = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for f in out:
            if m & f == m:
                break
        else:
            out.append(m)
    return tuple(sorted(out))


def _core(masks):
    """Strong-collapse core of the complex the vertex bitmasks generate.

    A vertex v is dominated when the maximal faces containing v share
    another vertex; deleting it is a strong collapse and keeps the
    homotopy type (Barmak and Minian, "Strong homotopy types, nerves
    and collapses", Discrete Comput. Geom. 2012).  Dominated vertices
    are deleted until none is left, and the survivors are relabelled
    order-preservingly onto 0..k-1.  Returns the maximal faces, sorted.
    """
    facets = _maximal(masks)
    deleted = True
    while deleted and len(facets) > 1:
        deleted = False
        for v in range(max(facets).bit_length()):
            bit, common = 1 << v, -1
            for f in facets:
                if f & bit:
                    common &= f
            if bit != common != -1:  # v lies in a facet, and is dominated
                facets = _maximal(f & ~bit for f in facets)
                deleted = True
    if len(facets) == 1:
        return (1,)
    kept = [1 << v for v in range(max(facets).bit_length()) if any(f >> v & 1 for f in facets)]
    return tuple(sorted(sum(1 << k for k, b in enumerate(kept) if f & b) for f in facets))


@lru_cache(maxsize=4096)
def _fiber_ranks(facets, top: int, field):
    """Reduced homology ranks (h_0, ..., h_top) of the complex with these facets.

    The facets come from :func:`_maximal`, one key per labelled complex,
    so each complex is cored and ranked once.
    """
    return _homology_ranks(_core(facets), top, field)


@lru_cache(maxsize=1024)
def _homology_ranks(facets, top: int, field):
    """Reduced homology ranks (h_0, ..., h_top) of the complex the facets generate.

    The facets are nonzero vertex bitmasks.  Ranks are over Q when field
    is None, else over GF(field).  Uses the augmented chain complex, so
    a single facet gives all zeros.
    """
    faces = [set() for _ in range(top + 2)]
    for m in facets:
        fl = tuple(i for i in range(m.bit_length()) if m >> i & 1)
        for size in range(1, min(len(fl), top + 2) + 1):
            faces[size - 1].update(combinations(fl, size))
    dims = [sorted(faces[k]) for k in range(top + 2)]
    index = [{f: i for i, f in enumerate(dims[k])} for k in range(top + 2)]
    ranks = [0] * (top + 3)
    ranks[0] = 1  # augmentation map onto the empty face
    for k in range(1, top + 2):
        if not dims[k] or not dims[k - 1]:
            continue
        mat = [[0] * len(dims[k]) for _ in dims[k - 1]]
        for ci, face in enumerate(dims[k]):
            for pos in range(k + 1):
                sub = face[:pos] + face[pos + 1:]
                mat[index[k - 1][sub]][ci] = -1 if pos % 2 else 1
        ranks[k] = mat_rank(mat, field)
    return tuple(len(dims[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


# ---------------------------------------------------------------------------
# Betti tables


@dataclass(frozen=True)
class BettiEntry:
    """One multigraded entry of the resolution of S/I_L.

    ``i`` is the homological position (1 = minimal generators of the
    ideal), ``representative`` the lexicographically smallest member of
    the fiber, ``rank`` the Betti number of that class.
    """

    i: int
    representative: tuple
    total_degree: int
    rank: int

    def to_json_dict(self):
        return {"i": self.i, "rep": list(self.representative),
                "total": self.total_degree, "rank": self.rank}


@dataclass(frozen=True)
class BettiTable:
    entries: tuple
    horizon: int

    def select(self, i: int):
        return tuple(e for e in self.entries if e.i == i)

    def max_i(self) -> int:
        return max((e.i for e in self.entries), default=0)

    def to_json_dict(self):
        return {"entries": [e.to_json_dict() for e in self.entries],
                "horizon": self.horizon}


def _entry_sort_key(e: BettiEntry):
    return (e.i, e.total_degree, e.representative)


def _box(rows, xs, ys, name: str):
    """The lattice points of the box xs x ys, xs = (x0, x1), in lex order.

    Returns (points, vals): int64 arrays with one point u per row and
    B u in the same row of ``vals``.  The box is sized before anything
    is allocated: above GRID_CAP points, or with sum_i |b_i . u| beyond
    the int64 bound somewhere on the box, BadInput names it.
    """
    (x0, x1), (y0, y1) = xs, ys
    size = (x1 - x0 + 1) * (y1 - y0 + 1)
    if size > GRID_CAP:
        raise BadInput(f"the bounding box of {name} has {size} points, "
                       f"above the cap of {GRID_CAP}")
    xmax, ymax = max(-x0, x1), max(-y0, y1)
    if sum(abs(b[0]) * xmax + abs(b[1]) * ymax for b in rows) >= _INT64_SAFE:
        raise BadInput(f"Gale vectors too long for the int64 grid of {name}")
    gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1), indexing="ij")
    box = np.stack([gx.ravel(), gy.ravel()], axis=1)  # lex order
    return box, box @ np.array(rows, dtype=np.int64).T  # row k holds B u for the k-th point


def gh_grid(rows, horizon: int):
    """The lattice points of G_H = {u : sum_i max(0, b_i . u) <= H}, H = horizon.

    Returns (points, vals) as :func:`_box` does.  Since G_H = -G_H, the
    origin is the middle point.  The bounding box comes from exact
    floors at the vertices H r / f(r), r = +-rot90(b_i).
    """
    xmax = ymax = 0
    for r in {rot90(b) for b in rows if b != (0, 0)}:
        f = sum(max(0, dot2(b, r)) for b in rows)
        xmax = max(xmax, horizon * abs(r[0]) // f)
        ymax = max(ymax, horizon * abs(r[1]) // f)
    box, vals = _box(rows, (-xmax, xmax), (-ymax, ymax), f"G_{horizon}")
    inside = np.maximum(vals, 0).sum(axis=1) <= horizon
    return box[inside], vals[inside]


def _live_fibers(rows, horizon: int):
    """Non-cone fibers of a rank-2 lattice, of total degree 1..horizon.

    Yields (d, fiber), each fiber a list of exponent tuples, one per
    B-closed set T of Z^2 with lex-least point 0 and degree
    d = sum_i max_T b_i . u <= horizon; see the module docstring.
    The n (H + 1) masks of |G_H| bits are sized before they are built,
    and above MASK_CAP bits BadInput carries the estimate.
    """
    _, vals = gh_grid(rows, horizon)
    bits = len(rows) * (horizon + 1) * len(vals)
    if bits > MASK_CAP:
        raise BadInput(f"the closure masks over G_{horizon} need {bits} bits, "
                       f"above the cap of {MASK_CAP}")
    origin = len(vals) // 2
    # le[j][t]: the bitmask of the points u with b_j . u <= t, t = 0..horizon
    steps = np.arange(horizon + 1)[:, None]
    le = [[int.from_bytes(m, "little")
           for m in np.packbits(col <= steps, axis=1, bitorder="little")]
          for col in vals.T]
    vals = vals.tolist()
    stack = [(1 << origin, (0,) * len(rows), range(origin + 1, len(vals)))]
    while stack:
        t_mask, a, cands = stack.pop()
        viable = []
        for q in cands:
            if not t_mask >> q & 1:
                a2 = [x if x > y else y for x, y in zip(a, vals[q])]
                if sum(a2) <= horizon:
                    viable.append((q, a2))
        for pos, (q, a2) in enumerate(viable):
            c = -1
            for le_j, t in zip(le, a2):
                c &= le_j[t]
            # the closure may add no point below q (prefix preservation);
            # T has no point below the origin, so this also rejects a
            # closure whose lex-least point is not 0
            if (c ^ t_mask) & ((1 << q) - 1):
                continue
            stack.append((c, a2, [p for p, _ in viable[pos + 1:]]))
            fiber = []
            while c:
                k = (c & -c).bit_length() - 1
                c &= c - 1
                fiber.append(tuple(map(sub, a2, vals[k])))
            yield sum(a2), fiber


def _span_fibers(rows, horizon: int):
    """Non-cone fibers of a saturated span of rank n - 2 != 2, of total degree 1..horizon.

    Yields (d, [rep], masks): rep the lex-least member of the fiber and
    masks the distinct support bitmasks of its members.  Every monomial
    through the horizon is keyed by its grading K a in one pass; see the
    module docstring.  The monomials are counted before they are listed.
    """
    n = len(rows)
    _monomial_budget(n, horizon)
    grading = integer_kernel(tuple(zip(*rows)), n)
    exps = _compositions(n + 1, horizon)[:n, 1:]  # degrees 1..horizon, in lex order
    k0, k1 = grading
    radix = horizon * (max(max(k1), 0) - min(min(k1), 0)) + 1
    weights = [radix * x + y for x, y in zip(k0, k1)]
    if horizon * max(map(abs, weights)) < _INT64_SAFE:
        key = _weigh(exps, weights)
    else:
        ids = {}
        key = np.array([ids.setdefault(tuple(sum(x * y for x, y in zip(k, a)) for k in grading), len(ids))
                        for a in exps.T.tolist()], dtype=np.int64)
    order, change = _sort_runs(key)  # each class's lex-least member first
    starts = np.flatnonzero(change)
    full = (1 << n) - 1
    zero = _weigh(exps == 0, [1 << j for j in range(n)])[order]
    # a class is a cone unless every variable is missing from some member
    live = np.bitwise_or.reduceat(zero, starts) == full
    cls = np.cumsum(change) - 1
    alive = live[cls]
    pairs = np.sort(cls[alive] << n | zero[alive] ^ full, kind="stable")  # (class, support mask)
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[first]
    bounds = np.flatnonzero(np.diff(pairs >> n, prepend=-1)).tolist() + [len(pairs)]
    masks = (pairs & full).tolist()
    for k, rep in enumerate(map(tuple, exps[:, order[starts[live]]].T.tolist())):
        yield sum(rep), [rep], masks[bounds[k]:bounds[k + 1]]


@lru_cache(maxsize=1024)
def _table(rows, horizon: int, field) -> BettiTable:
    """Betti entries of the span of the basis rows, through total degree horizon."""
    if len(rows[0]) == 2:
        top = 2  # S/I_L has projective dimension at most 3
        bits = [1 << i for i in range(len(rows))]
        fibers = ((d, fiber, (sum(compress(bits, a)) for a in fiber))
                  for d, fiber in _live_fibers(rows, horizon))
    else:
        top = len(rows) - 2
        fibers = _span_fibers(rows, horizon)
    entries = []
    for d, members, masks in fibers:
        h = _fiber_ranks(_maximal(masks), top, field)
        entries.extend(BettiEntry(i, min(members), d, h[i - 1])
                       for i in range(1, top + 2) if h[i - 1])
    return BettiTable(tuple(sorted(entries, key=_entry_sort_key)), horizon=horizon)


def betti_horizon(deg: int) -> int:
    """Largest total degree of a Betti entry of S/I_L, for I_L of degree deg.

    Holds for every rank-2 lattice L.  Its ideal has codimension 2, so
    reg I_L <= deg (Peeva and Sturmfels, "Syzygies of codimension 2
    lattice ideals", Math. Z. 1998), and S/I_L has projective dimension
    at most 3, so an entry in homological position i <= 3 has total
    degree at most reg - 1 + i <= deg + 2.  The homology oracle
    enumerates through this degree, a syzygy quadrangle (a third
    syzygy) never lies beyond it, and the Hilbert series numerator
    1 + sum (-1)^i beta_{i,t} t^t has no nonzero coefficient past it.
    """
    return deg + 2


def _certified(rows, deg: int, horizon: int, field):
    """(deg, reg, BettiTable) through the horizon, checked against deg.

    The numerator K(t) = 1 + sum (-1)^i beta_{i,t} t^t of the Hilbert
    series equals (1 - t)^codim h(t) with h(1) = deg, so its moments
    sum_t K_t binom(t, k) vanish for k < codim and equal
    (-1)^codim deg for k = codim.  A table that misses an entry, or a
    wrong degree, breaks these identities; InternalInconsistency then.
    """
    table = _table(rows, horizon, field)
    codim = len(rows[0])
    k_poly = {0: 1}
    for e in table.entries:
        k_poly[e.total_degree] = k_poly.get(e.total_degree, 0) + (-1) ** e.i * e.rank
    moments = tuple(sum(c * math.comb(t, k) for t, c in k_poly.items())
                    for k in range(codim + 1))
    expected = (0,) * codim + ((-1) ** codim * deg,)
    if moments != expected:
        raise InternalInconsistency(
            f"Betti sums {moments} through total degree {horizon}, expected {expected}"
        )
    reg = max(e.total_degree - e.i for e in table.entries) + 1
    return deg, reg, table


def degree_and_regularity_of_span(columns, field=None):
    """(degree, regularity, BettiTable) for the span of integer columns.

    The columns must be linearly independent and orthogonal to the
    all-ones vector.  Two columns span a rank-2 lattice, handled as in
    :func:`degree_and_regularity`.  n - 2 columns spanning a saturated
    lattice give the ideal of a monomial curve: its degree is the
    largest |2 x 2 minor| of the orthogonal complement, and since
    reg <= deg - codim + 1 (Gruson, Lazarsfeld and Peskine, Invent.
    Math. 1983) and the projective dimension of S/I is at most
    n - 1 = codim + 1, every Betti entry has total degree at most
    deg + 1.  Any other rank, or a non-saturated span, raises BadInput;
    columns not orthogonal to the all-ones vector raise NotHomogeneous.
    """
    columns = [tuple(int(x) for x in c) for c in columns]
    n = len(columns[0])
    if len(columns) == 2:
        return _lattice_oracle(lattice_from_basis(columns), field)
    rows = tuple(zip(*columns))
    if len(columns) != n - 2 or smith_left(rows)[1] != (1,) * (n - 2):
        raise BadInput("supported spans: rank 2, or saturated of rank n - 2")
    if any(sum(c) for c in columns):
        raise NotHomogeneous("the span is not orthogonal to the all-ones vector")
    grades = list(zip(*integer_kernel(columns, n)))
    if len(set(grades)) < n:
        raise Degenerate("two coordinates coincide on the orthogonal complement")
    deg = max(abs(det2(a, b)) for a, b in combinations(grades, 2))
    return _certified(rows, deg, deg + 1, field)


def degree_and_regularity(lattice: Lattice, field=None):
    """Exact (degree, regularity, BettiTable) of the lattice ideal.

    Requires a nondegenerate lattice.  The degree is
    :func:`hilbert_degree`; the table runs through
    :func:`betti_horizon` and is certified by the Betti-sum identities,
    and regularity <= degree is checked; InternalInconsistency when
    either fails.
    """
    return _lattice_oracle(lattice, field)


def _lattice_oracle(lattice: Lattice, field):
    # the rank-2 oracle, shared by both entry points so neither calls the other
    if not is_nondegenerate(lattice):
        raise Degenerate("some x_i - x_j lies in the ideal")
    deg = hilbert_degree(lattice)
    _, reg, table = _certified(lattice.rows, deg, betti_horizon(deg), field)
    if reg > deg:
        raise InternalInconsistency(f"regularity {reg} exceeds degree {deg}")
    return deg, reg, table


def betti_table(lattice: Lattice, horizon: int, field=None) -> BettiTable:
    """Betti entries of S/I_L for all classes of total degree <= horizon."""
    if horizon < 2:
        raise BadInput("horizon must be at least 2")
    return _table(lattice.rows, horizon, field)


def hilbert_function(lattice: Lattice, d: int) -> int:
    """Number of fiber classes of total degree d (the Hilbert function of S/I_L)."""
    if d < 0:
        return 0
    _monomial_budget(lattice.n, d, cumulative=False)
    return _degree_data(_ctx(lattice.rows), d)


# ---------------------------------------------------------------------------
# degree and Hilbert-series shortcuts (no homology)


def hilbert_degree(lattice: Lattice) -> int:
    """Degree of the lattice ideal, exactly, from its Gale diagram.

    deg I_L = sum |det(b_i, b_j)| over the pairs of Gale vectors whose
    open cone holds a generic vector w: the Gale-dual form of degree as
    a normalized volume (Sturmfels, Groebner Bases and Convex Polytopes,
    1996).  w = (1, K) with K = 1 + max |coordinate| is parallel to no
    nonzero row.  In w = alpha b_i + beta b_j with d = det(b_i, b_j),
    alpha and beta have the signs of d * det(w, b_j) and
    d * det(b_i, w), so cone membership is decided by integer signs.
    """
    rows = lattice.rows
    w = (1, 1 + max(abs(x) for r in rows for x in r))
    total = 0
    for a, b in combinations(rows, 2):
        d = det2(a, b)
        if d * det2(w, b) > 0 and d * det2(a, w) > 0:
            total += abs(d)
    return total


def reg_deg_via_hilbert(lattice: Lattice):
    """(regularity, degree) from the Hilbert series numerator.

    Valid whenever S/I_L is Cohen-Macaulay (projective dimension 2):
    the numerator of the Hilbert series then ends in degree reg + 1.
    Cheap, exact, and homology-free.
    """
    deg = hilbert_degree(lattice)
    return regularity_from_numerator(hilbert_numerator(lattice, betti_horizon(deg)), deg), deg


def regularity_from_numerator(numer, deg: int) -> int:
    """Regularity of a Cohen-Macaulay S/I_L from its Hilbert numerator.

    ``numer`` must run through degree :func:`betti_horizon` (deg + 2);
    no coefficient beyond it is nonzero.  With projective dimension 2
    the last nonzero coefficient sits in degree reg + 1 <= deg + 1, so a
    nonzero coefficient at deg + 2 shows the ideal is not Cohen-Macaulay.
    """
    if any(numer[betti_horizon(deg):]):
        raise InternalInconsistency("Hilbert numerator does not terminate; not Cohen-Macaulay?")
    return max(k for k, c in enumerate(numer) if c) - 1


def hilbert_numerator(lattice: Lattice, through: int):
    """Coefficients of the Hilbert series numerator up to the given degree."""
    rows = lattice.rows
    n = len(rows)
    _monomial_budget(n, through)
    ctx = _ctx(rows)
    hf = []
    while len(hf) <= through:
        hf.append(_degree_data(ctx, len(hf)))
    return tuple(sum((-1) ** j * math.comb(n, j) * hf[k - j]
                     for j in range(min(k, n) + 1))
                 for k in range(through + 1))


# ---------------------------------------------------------------------------
# fiber polytopes


@dataclass(frozen=True)
class Polygon:
    """Integer points of {u in Z^2 : B u <= a}, in lex order."""

    a: tuple
    points: tuple


def _polygon_points(lattice: Lattice, avec):
    """(points, vals) of the fiber polygon of avec, as :func:`_box` gives them.

    The polygon {u : B u <= a} is bounded: if B u <= 0 then
    sum_i b_i . u = 0 forces B u = 0, and B has rank 2, so u = 0 is its
    only recession direction (:class:`~.zlattice.Lattice` guarantees
    both).  A bounded polygon with 0 in it (a >= 0) has a vertex, so the
    box from the least vertex ceiling to the greatest vertex floor is
    never empty and holds every lattice point of it.
    """
    rows = lattice.rows
    if len(avec) != lattice.n:
        raise BadInput(f"degree vector has length {len(avec)}, expected {lattice.n}")
    if any(x < 0 for x in avec):
        raise BadInput("degree vector must be componentwise nonnegative")
    # each vertex is (x, y) / den with den > 0; keep its ceilings and floors
    ceils, floors = [], []
    for (i, ri), (j, rj) in combinations(enumerate(rows), 2):
        den = det2(ri, rj)
        if den == 0:
            continue
        x = avec[i] * rj[1] - avec[j] * ri[1]
        y = ri[0] * avec[j] - rj[0] * avec[i]
        if den < 0:
            x, y, den = -x, -y, -den
        if all(r[0] * x + r[1] * y <= avec[k] * den for k, r in enumerate(rows)):
            ceils.append((-(-x // den), -(-y // den)))
            floors.append((x // den, y // den))
    x0, y0 = map(min, zip(*ceils))
    x1, y1 = map(max, zip(*floors))
    box, vals = _box(rows, (x0, x1), (y0, y1), f"the fiber polygon of {avec}")
    # every b_i . u on the box is below _INT64_SAFE, so a clipped to it
    # cuts out the same points and fits in int64
    inside = (vals <= np.array([min(x, _INT64_SAFE) for x in avec], dtype=np.int64)).all(axis=1)
    return box[inside], vals[inside]


def polygon_of(lattice: Lattice, a) -> Polygon:
    """Exact enumeration of the fiber polytope for the degree vector a >= 0.

    BadInput when a has a negative entry or the wrong length, or when
    the polygon's bounding box holds more than GRID_CAP points.
    """
    avec = tuple(int(x) for x in a)
    points, _ = _polygon_points(lattice, avec)
    return Polygon(avec, tuple(map(tuple, points.tolist())))


@dataclass(frozen=True)
class FiberClass:
    """A fiber: all monomials of one residue class, with canonical representative."""

    representative: tuple
    total_degree: int
    monomials: tuple


def fiber_of(lattice: Lattice, a) -> FiberClass:
    """The fiber of the class of a, for a nonnegative integer vector a."""
    avec = tuple(int(x) for x in a)
    _, vals = _polygon_points(lattice, avec)
    monos = tuple(sorted(tuple(map(sub, avec, v)) for v in vals.tolist()))
    return FiberClass(monos[0], sum(avec), monos)
