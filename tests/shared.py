"""Lattices and brute-force references used by more than one test module."""

from itertools import combinations, combinations_with_replacement

import numpy as np

from galereg.errors import RankDeficient
from galereg.fiberhom import _ctx
from galereg.intlinalg import det2, solve_2x2
from galereg.zlattice import apply_right, contains, kernel_lattice, lattice_from_gale

TWISTED_CUBIC = kernel_lattice([(1, 1, 1, 1), (0, 1, 2, 3)])
CI_22 = lattice_from_gale([(0, 2), (2, 0), (0, -2), (-2, 0)])
CM_NONCI_N3 = lattice_from_gale([(1, 1), (1, -2), (-2, 1)])

# the 6-vertex real projective plane, as facet bitmasks: acyclic over Q, not over GF(2)
RP2 = tuple(sum(1 << v for v in f) for f in (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)))


def n4_family(d):
    return lattice_from_gale([(1, 0), (-1, 1), (-1, -d + 1), (1, d - 2)])


def compositions(n, d):
    """Every exponent vector in N^n of total degree d, as a list of tuples."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        mono = [0] * n
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def naive_hilbert(lattice, d):
    """Classes of the degree-d monomials, grouped by lattice membership of differences."""
    classes = []
    for mono in compositions(lattice.n, d):
        if not any(contains(lattice, tuple(m - r for m, r in zip(mono, rep))) for rep in classes):
            classes.append(mono)
    return len(classes)


def fiber_multiset(pairs):
    """(d, fiber) pairs as a sorted list, each fiber a sorted tuple."""
    return sorted((d, tuple(sorted(fiber))) for d, fiber in pairs)


def brute_fibers(rows, degrees):
    """Non-cone fibers of the given total degrees, grouped by the exact class key.

    Every composition a is keyed as ``_ctx(rows).key`` keys it: U a for
    the left Smith transform U of the basis rows, its first r
    coordinates modulo the Smith diagonal.  U a is an int64 mat-vec,
    exact below the bound checked first.  A class is a cone when some
    variable divides all its members.  Returns the live classes as
    :func:`fiber_multiset` lists them.
    """
    ctx = _ctx(tuple(rows))
    u = np.array(ctx.u, dtype=np.int64)
    out = []
    for d in degrees:
        if d * int(np.abs(u).max()) >= 1 << 62:
            raise OverflowError(f"U a may leave int64 in degree {d}")
        monos = compositions(ctx.n, d)
        keys = np.array(monos, dtype=np.int64).reshape(len(monos), ctx.n) @ u.T
        keys[:, :ctx.r] %= ctx.mods
        classes = {}
        for mono, key in zip(monos, map(tuple, keys.tolist())):
            classes.setdefault(key, []).append(mono)
        out.extend((d, c) for c in classes.values() if all(min(col) == 0 for col in zip(*c)))
    return fiber_multiset(out)


def _transition(pair_from, pair_to):
    """Integer 2 x 2 matrix U with pair_from[k] * U = pair_to[k], or None.

    Column k of U is the solve_2x2 solution of the system whose rows are
    pair_from and whose right side is column k of pair_to.  The caller
    first requires |det pair_to| = |det pair_from|, and then an integer
    U has |det U| = 1.
    """
    f0, f1 = pair_from
    t0, t1 = pair_to
    cols = [solve_2x2(f0, f1, (t0[k], t1[k])) for k in range(2)]
    if None in cols:
        return None
    return tuple(zip(*cols))


def gale_equivalent_by_search(g, h, up_to_permutation=False):
    """The transition search, a reference for ``zlattice.gale_equivalent``.

    Fix the first independent row pair (g_i, g_j) of g.  A change of
    basis U with g U = h sends it to a row pair of h of the same |det|,
    and solving for U on that pair fixes U.  Without
    ``up_to_permutation`` the pair is (h_i, h_j); with it every pair
    (h_k, h_l) is tried, and the images are compared as multisets.
    O(n^2) transitions.
    """
    gv = tuple(tuple(v) for v in g)
    hv = tuple(tuple(v) for v in h)
    if len(gv) != len(hv):
        return False
    pair = next(((i, j) for i, j in combinations(range(len(gv)), 2)
                 if det2(gv[i], gv[j])), None)
    if pair is None:
        raise RankDeficient("diagram does not span the plane")
    i, j = pair
    dg = abs(det2(gv[i], gv[j]))
    if up_to_permutation:
        targets = [(k, l) for k in range(len(hv)) for l in range(len(hv)) if k != l]
        order = sorted
    else:
        targets, order = [(i, j)], list
    for k, l in targets:
        if abs(det2(hv[k], hv[l])) != dg:
            continue
        u = _transition((gv[i], gv[j]), (hv[k], hv[l]))
        if u is None:
            continue
        if order(apply_right(v, u) for v in gv) == order(hv):
            return True
    return False
