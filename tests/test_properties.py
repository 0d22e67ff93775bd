"""Property-based invariants: equivalence, transforms, Hilbert counts."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import ceil, comb, floor, gcd
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

import galereg.fiberhom as fiberhom
import galereg.quadrangle as quadrangle
from galereg.errors import GaleregError, NotAllQuadrants, PreconditionNotBalanced
from galereg.fiberhom import (
    betti_table,
    degree_and_regularity,
    hilbert_degree,
    hilbert_function,
    hilbert_numerator,
    polygon_of,
    reg_deg_via_hilbert,
)
from galereg.intlinalg import det2, dot2, xgcd
from galereg.quadrangle import (
    enumerate_syzygy_quadrangles,
    is_cohen_macaulay,
    is_complete_intersection,
    normalize_unit_square,
    regularity_fast,
)
from galereg.reduction import (
    ReductionDatum,
    degree_drop_one,
    degree_preserved,
    enumerate_partitions,
    reduced_gale,
    support_sets,
)
from galereg.searches import sweep_orbits
from galereg.zlattice import (
    contains,
    gale_equivalent,
    is_nondegenerate,
    is_saturated,
    kernel_lattice,
    lattice_from_gale,
    minor_gcd,
    permutation_canonical_key,
    transform_lattice,
)

# ---------------------------------------------------------------------------
# strategies

coords = st.integers(min_value=-2, max_value=2)
vectors = st.tuples(coords, coords)
PLANE = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]  # every value of vectors


@st.composite
def gale_rows(draw, min_n=3, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    head = [draw(vectors) for _ in range(n - 1)]
    last = (-sum(v[0] for v in head), -sum(v[1] for v in head))
    rows = head + [last]
    try:
        lattice_from_gale(rows)
    except GaleregError:
        assume(False)
    return tuple(rows)


@st.composite
def unimodular(draw):
    a = draw(st.integers(min_value=-2, max_value=2))
    b = draw(st.integers(min_value=-2, max_value=2))
    u = ((1, a), (0, 1))
    v = ((1, 0), (b, 1))
    m = tuple(
        tuple(sum(u[i][k] * v[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    if draw(st.booleans()):
        m = (m[1], m[0])  # swap rows: determinant flips sign, stays +-1
    if draw(st.booleans()):
        m = ((-m[0][0], -m[0][1]), m[1])
    return m


@st.composite
def equivalent_pair(draw):
    rows = draw(gale_rows())
    u = draw(unimodular())
    order = draw(st.permutations(range(len(rows))))
    base = lattice_from_gale(rows)
    image_rows = [transform_lattice(base, u).rows[i] for i in order]
    return base, lattice_from_gale(image_rows)


# ---------------------------------------------------------------------------
# canonical keys decide equivalence


@settings(deadline=None, max_examples=60)
@given(equivalent_pair())
def test_equivalent_images_share_keys(pair):
    base, image = pair
    assert permutation_canonical_key(base) == permutation_canonical_key(image)
    assert gale_equivalent(base.rows, image.rows, up_to_permutation=True)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=3, max_value=5).flatmap(
    lambda n: st.tuples(gale_rows(min_n=n, max_n=n), gale_rows(min_n=n, max_n=n))))
def test_key_equality_decides_equivalence(pair):
    rows_a, rows_b = pair
    a, b = lattice_from_gale(rows_a), lattice_from_gale(rows_b)
    same_key = permutation_canonical_key(a) == permutation_canonical_key(b)
    assert same_key == gale_equivalent(rows_a, rows_b, up_to_permutation=True)


@settings(deadline=None, max_examples=40)
@given(equivalent_pair())
def test_invariants_under_equivalence(pair):
    base, image = pair
    assert minor_gcd(base) == minor_gcd(image)
    assert is_saturated(base) == is_saturated(image)
    assert is_nondegenerate(base) == is_nondegenerate(image)
    assert is_complete_intersection(base) == is_complete_intersection(image)


def _hnf2_key(rows):
    """Flattened column Hermite form of the basis with rows in the given order."""
    u = [r[0] for r in rows]
    v = [r[1] for r in rows]
    n = len(u)
    r1 = next(r for r in range(n) if u[r] or v[r])
    g, x, y = xgcd(u[r1], v[r1])
    s, t = v[r1] // g, u[r1] // g
    c1 = [x * u[i] + y * v[i] for i in range(n)]
    c2 = [t * v[i] - s * u[i] for i in range(n)]
    r2 = next(r for r in range(r1 + 1, n) if c2[r])
    if c2[r2] < 0:
        c2 = [-a for a in c2]
    q = c1[r2] // c2[r2]
    c1 = [c1[i] - q * c2[i] for i in range(n)]
    return tuple(c1) + tuple(c2)


def brute_force_key(lattice):
    """The least Hermite form over every distinct row ordering."""
    return min(_hnf2_key(order) for order in set(permutations(lattice.rows)))


@st.composite
def keyed_rows(draw):
    """Gale rows with zero rows, repeated rows and multiples of the first nonzero row.

    They always span the plane: when the drawn rows span only a line,
    one row other than the first nonzero one is redrawn off that line,
    so no draw is filtered.
    """
    n = draw(st.integers(min_value=3, max_value=7))
    head = []
    for _ in range(n - 1):
        kind = draw(st.sampled_from(("free", "zero", "repeat", "parallel")))
        first = next((v for v in head if v != (0, 0)), None)
        if kind == "zero":
            v = (0, 0)
        elif kind == "repeat" and head:
            v = draw(st.sampled_from(head))
        elif kind == "parallel" and first:
            k = draw(st.sampled_from((-2, -1, 2)))
            v = (k * first[0], k * first[1])
        else:
            v = draw(vectors)
        head.append(v)
    if not any(det2(a, b) for a, b in combinations(head, 2)):
        k = next((k for k, v in enumerate(head) if v != (0, 0)), 0)
        if head[k] == (0, 0):
            head[k] = draw(st.sampled_from([v for v in PLANE if v != (0, 0)]))
        i = draw(st.sampled_from([j for j in range(n - 1) if j != k]))
        head[i] = draw(st.sampled_from([v for v in PLANE if det2(v, head[k])]))
    last = (-sum(v[0] for v in head), -sum(v[1] for v in head))
    return tuple(draw(st.permutations(head + [last])))


@settings(deadline=None, max_examples=150)
@given(keyed_rows())
def test_canonical_key_is_least_hermite_form(rows):
    lat = lattice_from_gale(rows)
    assert permutation_canonical_key(lat) == brute_force_key(lat)


# ---------------------------------------------------------------------------
# kernels


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4))
def test_kernel_lattices_are_saturated(weights):
    n = len(weights)
    assume(len(set(weights)) >= 2)  # rank 2 with the all-ones row
    lat = kernel_lattice([(1,) * n, tuple(weights)])
    assert is_saturated(lat)
    assert minor_gcd(lat) == 1
    basis = list(zip(*[r for r in lat.rows]))  # columns of the Gale rows
    for b in basis:
        assert contains(lat, b)
        assert sum(b) == 0
        assert sum(b[i] * weights[i] for i in range(n)) == 0


# ---------------------------------------------------------------------------
# nondegeneracy


def nondegenerate_by_membership(lattice):
    """The definition: no difference e_i - e_j of unit vectors lies in L."""
    n = lattice.n
    return not any(
        contains(lattice, tuple((k == i) - (k == j) for k in range(n)))
        for i, j in combinations(range(n), 2)
    )


@st.composite
def collinear_rows(draw):
    """Gale diagrams with n <= 8, half of them with n - 2 rows on one line.

    The line's rows are multiples of a primitive v, zero included; one
    more row is free and the last balances the sum.  Scaling every first
    coordinate by 2 or 3 makes the lattice non-saturated.
    """
    n = draw(st.integers(min_value=3, max_value=8))
    if draw(st.booleans()):
        v = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (3, 2))))
        ks = draw(st.lists(st.integers(-2, 2), min_size=n - 2, max_size=n - 2))
        head = [(k * v[0], k * v[1]) for k in ks] + [draw(vectors)]
    else:
        head = [draw(vectors) for _ in range(n - 1)]
    scale = draw(st.integers(min_value=1, max_value=3))
    head = [(scale * x, y) for x, y in head]
    last = (-sum(v[0] for v in head), -sum(v[1] for v in head))
    rows = draw(st.permutations(head + [last]))
    try:
        lattice_from_gale(rows)
    except GaleregError:
        assume(False)
    return tuple(rows)


@settings(deadline=None, max_examples=300)
@given(collinear_rows())
@example(((1, 0), (2, 0), (0, 1), (-3, -1)))  # |det| = 1: degenerate
@example(((1, 0), (2, 0), (0, 2), (-3, -2)))  # |det| = 2: nondegenerate
@example(((0, 0), (1, 0), (0, 1), (-1, -1)))  # a zero row lies on every line
def test_closed_form_nondegeneracy_matches_membership(rows):
    lat = lattice_from_gale(rows)
    assert is_nondegenerate(lat) == nondegenerate_by_membership(lat)


# ---------------------------------------------------------------------------
# Hilbert function


def naive_hilbert(lattice, d):
    n = lattice.n
    classes = []
    for combo in combinations_with_replacement(range(n), d):
        mono = [0] * n
        for i in combo:
            mono[i] += 1
        for rep in classes:
            diff = tuple(m - r for m, r in zip(mono, rep))
            if contains(lattice, diff):
                break
        else:
            classes.append(tuple(mono))
    return len(classes)


@settings(deadline=None, max_examples=25)
@given(gale_rows(max_n=4), st.integers(min_value=0, max_value=3))
def test_hilbert_function_matches_naive_count(rows, d):
    lat = lattice_from_gale(rows)
    assert hilbert_function(lat, d) == naive_hilbert(lat, d)


@st.composite
def packed_key_rows(draw, max_n=6):
    """Gale diagrams with n <= max_n and coordinates <= 3, zero rows included.

    The first coordinate of every row is scaled by k in {1, 2, 3}, so
    many draws are not saturated (a torsion coordinate with modulus > 1
    in the class key).  Each coordinate of the first n - 1 rows is drawn
    from the range that still lets the last row, minus their sum, lie
    in the box, so only rank-deficient draws are filtered out.
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    k = draw(st.sampled_from((1, 2, 3)))
    bounds = (3 // k, 3)
    sums = [0, 0]
    rows = []
    for after in range(n - 1, 0, -1):  # rows after this one, the last included
        row = []
        zero = draw(st.integers(0, 3)) == 0
        for c, b in enumerate(bounds):
            lo, hi = max(-b, -b * after - sums[c]), min(b, b * after - sums[c])
            x = 0 if zero and lo <= 0 <= hi else draw(st.integers(lo, hi))
            sums[c] += x
            row.append(x)
        rows.append(row)
    rows.append([-x for x in sums])
    rows = tuple((k * x, y) for x, y in rows)
    try:
        lattice_from_gale(rows)
    except GaleregError:
        assume(False)
    return rows


@settings(deadline=None, max_examples=80)
@given(packed_key_rows(), st.integers(min_value=0, max_value=6))
@example(((0, 2), (2, 0), (0, -2), (-2, 0)), 4)
@example(((2, 1), (0, 0), (-2, 1), (2, -1), (0, 0), (-2, -1)), 6)
@example(((0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, -1)), 1)
def test_packed_class_key_matches_big_integers(rows, d):
    """The int64 mixed-radix key groups monomials as the exact key does."""
    ctx = fiberhom._ctx(rows)
    assert fiberhom._packing(ctx, d)[2] < fiberhom._INT64_SAFE
    count, groups = fiberhom._degree_data(ctx, d, True)
    with mock.patch.object(fiberhom, "_INT64_SAFE", 0):
        slow_count, slow_groups = fiberhom._degree_data(ctx, d, True)
    assert count == slow_count
    assert sorted(map(sorted, groups)) == sorted(map(sorted, slow_groups))


def _fiber_multiset(pairs):
    return sorted((d, tuple(sorted(fiber))) for d, fiber in pairs)


@settings(deadline=None, max_examples=80)
@given(packed_key_rows(max_n=7), st.integers(min_value=2, max_value=12))
@example(((0, 2), (2, 0), (0, -2), (-2, 0)), 6)
@example(((2, 1), (0, 0), (-2, 1), (2, -1), (0, 0), (-2, -1)), 8)
@example(((0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, -1)), 5)
def test_closure_enumerates_the_live_classes(rows, horizon):
    """Each non-cone fiber through the horizon comes out of the closure once."""
    ctx = fiberhom._ctx(rows)
    grouped = ((d, fiber) for d in range(1, horizon + 1)
               for fiber in fiberhom._degree_data(ctx, d, True)[1])
    assert (_fiber_multiset(fiberhom._live_fibers(rows, horizon))
            == _fiber_multiset(grouped))


def compositions(n, d):
    out = []
    for combo in combinations_with_replacement(range(n), d):
        mono = [0] * n
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


@settings(deadline=None, max_examples=60)
@given(packed_key_rows(), st.integers(min_value=0, max_value=5), st.data())
def test_polygon_points_count_the_class(rows, d, data):
    """polygon_of, on integer floors and ceilings, finds every member of a's class."""
    comps = compositions(len(rows), d)
    a = data.draw(st.sampled_from(comps))
    key = fiberhom._ctx(rows).key
    lat = lattice_from_gale(rows)
    points = polygon_of(lat, a).points
    assert list(points) == sorted(set(points))
    members = {tuple(x - dot2(r, u) for x, r in zip(a, rows)) for u in points}
    assert members == {b for b in comps if key(b) == key(a)}


# ---------------------------------------------------------------------------
# strong-collapse cores

# the 6-vertex real projective plane: acyclic over Q, not over GF(2)
RP2 = tuple(sum(1 << v for v in f) for f in (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=10))
@example(list(RP2))
@example([m | 1 << 6 for m in RP2])
def test_core_has_the_homology_of_the_complex(masks):
    """Deleting dominated vertices keeps the homology, over Q and GF(2)."""
    core = fiberhom._core(masks)
    full = tuple(sorted(set(masks)))
    for field in (None, 2):
        assert (fiberhom._homology_ranks(core, 3, field)
                == fiberhom._homology_ranks.__wrapped__(full, 3, field))


def brute_faces(masks):
    """Every subset of every support, as a set of bitmasks."""
    faces = set()
    for m in masks:
        sub = m
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & m
    return faces


@st.composite
def support_masks(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=10))
    return n, masks


@settings(deadline=None, max_examples=200)
@given(support_masks(), st.randoms(use_true_random=False))
@example((6, list(RP2)), None)
def test_facet_key_memo_has_the_homology_of_the_complex(case, rng):
    """The facet key is the maximal faces of the down-closure, and its memo
    has the homology of the complex, over Q and GF(2)."""
    n, masks = case
    faces = brute_faces(masks)
    facets = tuple(sorted(f for f in faces if f and not any(g != f and g & f == f for g in faces)))
    key = fiberhom._maximal(masks)
    assert key == facets
    if rng is not None:
        # order, duplicates and non-maximal supports leave the key alone
        extra = [m & rng.randrange(1 << n) or m for m in masks] + masks[:3]
        rng.shuffle(extra)
        assert fiberhom._maximal(masks + extra) == key
    for field in (None, 2):
        assert (fiberhom._fiber_ranks(key, 3, field)
                == fiberhom._homology_ranks.__wrapped__(facets, 3, field))


@settings(deadline=None, max_examples=25)
@given(gale_rows(max_n=4))
def test_regularity_at_most_degree(rows):
    lat = lattice_from_gale(rows)
    assume(is_nondegenerate(lat))
    reg = regularity_fast(lat)
    deg = hilbert_degree(lat)
    assert 1 <= reg <= deg
    if is_cohen_macaulay(lat):
        assert reg_deg_via_hilbert(lat) == (reg, deg)


@settings(deadline=None, max_examples=30)
@given(gale_rows(max_n=4), st.booleans())
def test_gale_degree_is_hilbert_polynomial_degree(rows, zero_row):
    """Non-saturated diagrams and diagrams with a zero row included."""
    if zero_row:
        rows = rows + ((0, 0),)
    lat = lattice_from_gale(rows)
    assume(is_nondegenerate(lat))
    assume(zero_row or not is_saturated(lat))
    n = lat.n
    deg = hilbert_degree(lat)
    diffs = [hilbert_function(lat, d) for d in range(deg, deg + n - 2)]
    for _ in range(n - 3):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert diffs == [deg]


@settings(deadline=None, max_examples=50)
@given(gale_rows(max_n=4), st.booleans())
def test_oracle_horizon_is_complete(rows, zero_row):
    """Two degrees past the proven horizon hold no further Betti entry."""
    if zero_row:
        rows = rows + ((0, 0),)
    lat = lattice_from_gale(rows)
    assume(is_nondegenerate(lat))
    assume(zero_row or not is_saturated(lat))
    deg, _, table = degree_and_regularity(lat)
    assert table.entries == betti_table(lat, deg + 4).entries


# ---------------------------------------------------------------------------
# the Hilbert numerator from the oracle's Betti table


def oracle_numerator(lat):
    """K(t) = 1 + sum_i (-1)^i beta_{i,t} t^t from the oracle, through deg + 2."""
    deg, _, table = degree_and_regularity(lat)
    k = [1] + [0] * (deg + 2)
    for e in table.entries:
        k[e.total_degree] += (-1) ** e.i * e.rank
    return tuple(k)


def brute_numerator(rows, through):
    """K(t) through the given degree from classes counted by the exact key.

    H(d) is the number of distinct class keys among the monomials of
    degree d, and K(t) = sum_j (-1)^j C(n, j) H(t - j).
    """
    key = fiberhom._ctx(rows).key
    n = len(rows)
    hf = [len({key(a) for a in fiberhom._py_compositions(n, d)}) for d in range(through + 1)]
    return tuple(sum((-1) ** j * comb(n, j) * hf[t - j] for j in range(min(t, n) + 1))
                 for t in range(through + 1))


def test_oracle_numerator_is_the_hilbert_numerator_on_the_sweep():
    reps, _ = sweep_orbits(6, 2)
    assert len(reps) == 395
    for lat in reps:
        assert oracle_numerator(lat) == hilbert_numerator(lat, hilbert_degree(lat) + 2)


@settings(deadline=None, max_examples=100)
@given(packed_key_rows())
@example(((2, 1), (0, 0), (-2, 1), (2, -1), (0, 0), (-2, -1)))  # not saturated
@example(((1, 1), (2, -1), (-1, -1), (-2, 1)))  # not Cohen-Macaulay
def test_oracle_numerator_matches_brute_force_class_counts(rows):
    """n <= 6, coordinates <= 3, zero rows and non-saturated draws included."""
    lat = lattice_from_gale(rows)
    assume(is_nondegenerate(lat))
    through = hilbert_degree(lat) + 2
    assume(comb(through + lat.n, lat.n) <= 5000)  # monomials through the horizon
    assert oracle_numerator(lat) == brute_numerator(rows, through)


# ---------------------------------------------------------------------------
# syzygy quadrangles


@settings(deadline=None, max_examples=30)
@given(unimodular(), st.sampled_from([
    ((1, 1), (2, -1), (-1, -1), (-2, 1)),
    ((1, 0), (-1, 1), (-1, -3), (1, 2)),
]))
def test_quadrangle_totals_invariant(u, rows):
    base = lattice_from_gale(rows)
    image = transform_lattice(base, u)
    bound = hilbert_degree(base) + 2
    totals = sorted(q.total_degree for q in enumerate_syzygy_quadrangles(base, bound))
    totals_image = sorted(
        q.total_degree for q in enumerate_syzygy_quadrangles(image, bound)
    )
    assert totals == totals_image


def box_scan_pairs(rows, bound):
    """Quadrangle classes, point by point over a box sized by two independent rows.

    Keeps the primitive v with y > 0, or y = 0 < x, inside the norm
    ball sum_j |b_j.v| <= 2T, and pairs them as the scan over G_T does.
    """
    i, j = next((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
                if det2(rows[i], rows[j]))
    r1, r2 = rows[i], rows[j]
    d = abs(det2(r1, r2))
    m = 2 * bound
    xmax = m * (abs(r2[1]) + abs(r1[1])) // d
    ymax = m * (abs(r2[0]) + abs(r1[0])) // d
    half = [(x, y) for y in range(ymax + 1) for x in range(-xmax, xmax + 1)
            if (y > 0 or x > 0) and gcd(x, y) == 1
            and sum(abs(dot2(b, (x, y))) for b in rows) <= m]
    sign = {v: [(dot2(b, v) > 0) - (dot2(b, v) < 0) for b in rows] for v in half}
    found = []
    for a, v in enumerate(half):
        for w in half[a + 1:]:
            sectors = {(sv, sw) for sv, sw in zip(sign[v], sign[w])}
            if not {(1, 1), (1, -1), (-1, 1), (-1, -1)} <= sectors:
                continue
            if abs(det2(v, w)) != 1:
                continue
            t = sum(max(0, dot2(b, v), dot2(b, w), dot2(b, v) + dot2(b, w)) for b in rows)
            if t <= bound:
                found.append((t, quadrangle._canonical_pair(v, w)))
    return tuple(sorted(found))


@st.composite
def scan_rows(draw):
    """Gale diagrams with n <= 7 and coordinates <= 3.

    Rows may be zero, repeat an earlier row or be a multiple of the
    first nonzero row, and the first coordinate of every row is scaled
    by k in {1, 2, 3}, so many draws are not saturated.  As in
    :func:`packed_key_rows`, each row is drawn from the range that still
    lets the last row lie in the box.
    """
    n = draw(st.integers(min_value=3, max_value=7))
    k = draw(st.sampled_from((1, 2, 3)))
    bounds = (3 // k, 3)
    sums = [0, 0]
    rows = []
    for after in range(n - 1, 0, -1):  # rows after this one, the last included
        ranges = [(max(-b, -b * after - s), min(b, b * after - s)) for b, s in zip(bounds, sums)]
        first = next((r for r in rows if r != (0, 0)), None)
        options = [(0, 0)] + rows + [(c * first[0], c * first[1]) for c in (-2, -1, 2) if first]
        options = [r for r in options if all(lo <= x <= hi for x, (lo, hi) in zip(r, ranges))]
        if options and draw(st.integers(0, 2)) == 0:
            row = draw(st.sampled_from(options))
        else:
            row = tuple(draw(st.integers(lo, hi)) for lo, hi in ranges)
        sums = [s + x for s, x in zip(sums, row)]
        rows.append(row)
    rows.append((-sums[0], -sums[1]))
    rows = draw(st.permutations([(k * x, y) for x, y in rows]))
    try:
        return lattice_from_gale(rows).rows
    except GaleregError:
        assume(False)


@st.composite
def scan_cases(draw):
    rows = draw(scan_rows())
    return rows, draw(st.integers(1, hilbert_degree(lattice_from_gale(rows)) + 2))


@settings(deadline=None, max_examples=100)
@given(scan_cases())
@example((((1, 1), (2, -1), (-1, -1), (-2, 1)), 5))  # the unit square attains the regularity
@example((((1, 0), (-1, 1), (-1, -3), (1, 2)), 6))
@example((((2, 1), (0, 0), (-2, 1), (2, -1), (0, 0), (-2, -1)), 6))
def test_quadrangle_scan_matches_the_box_scan(case):
    """Scanning half of G_T finds the classes the two-row box finds."""
    rows, bound = case
    assert quadrangle._quadrangle_pairs.__wrapped__(rows, bound) == box_scan_pairs(rows, bound)


def fraction_shear_exists(rows, v):
    """The shear test of :func:`quadrangle._imbalancing_shear_exists`, on Fractions."""
    _, x, y = xgcd(v[0], v[1])
    omega = (-v[1], v[0])
    lo = [Fraction(-dot2(b, (x, y)), dot2(b, omega)) for b in rows if dot2(b, omega) < 0]
    hi = [Fraction(-dot2(b, (x, y)), dot2(b, omega)) for b in rows if dot2(b, omega) > 0]
    return not lo or not hi or floor(min(hi)) >= ceil(max(lo))


PRIMITIVE = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if gcd(x, y) == 1]


@settings(deadline=None, max_examples=150)
@given(scan_rows(), st.sampled_from(PRIMITIVE))
def test_integer_shear_test_matches_fractions(rows, v):
    assert quadrangle._imbalancing_shear_exists(rows, v) == fraction_shear_exists(rows, v)
    dirs = {(b[0] // gcd(*b) * s, b[1] // gcd(*b) * s) for b in rows if b != (0, 0)
            for s in (1, -1)}
    assert quadrangle._is_ci_rows.__wrapped__(rows) == any(
        fraction_shear_exists(rows, d) for d in dirs)


# ---------------------------------------------------------------------------
# reduction data from the small sweep corpus


def all_reduction_data(max_n=5, max_coord=2):
    # The invariant chain needs the unit square to attain the
    # regularity, so normalize each non-Cohen-Macaulay orbit first.
    reps, _ = sweep_orbits(max_n, max_coord)
    for lat in reps:
        if is_cohen_macaulay(lat):
            continue
        diagram, _ = normalize_unit_square(lat)
        normalized = lattice_from_gale(diagram)
        try:
            parts = enumerate_partitions(diagram)
        except NotAllQuadrants:
            continue
        for part in parts:
            yield normalized, diagram, ReductionDatum(normalized, diagram, part)


def test_support_set_solutions_have_defining_dots():
    checked = 0
    for _, _, datum in all_reduction_data():
        for q in (1, 2, 3, 4):
            s = support_sets(datum, q)
            rows = list(datum.members(q)) + list(datum.members(s.opposite))
            for u in s.c:
                dots = [dot2(r, u) for r in rows]
                assert all(d in (-1, 0, 1) for d in dots)
                assert 1 in dots and -1 in dots
                checked += 1
    assert checked >= 100


def test_reduction_chain_and_degree_witnesses():
    seen = 0
    for lat, _, datum in all_reduction_data():
        deg_l, reg_l, _ = degree_and_regularity(lat)
        _, reduced_lattice = reduced_gale(datum)
        deg_q, reg_q, _ = degree_and_regularity(reduced_lattice)
        assert reg_l <= reg_q <= deg_q <= deg_l
        assert degree_preserved(datum) == (deg_q == deg_l)
        try:
            drop = degree_drop_one(datum)
        except PreconditionNotBalanced:
            drop = None
        if drop is not None:
            assert drop == (deg_q == deg_l - 1)
        seen += 1
    assert seen >= 30
