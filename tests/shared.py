"""Lattices and brute-force references used by more than one test module."""

from itertools import combinations_with_replacement

import numpy as np

from galereg.fiberhom import _ctx
from galereg.zlattice import contains, kernel_lattice, lattice_from_gale

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
