"""Exact linear algebra over the integers for small dense matrices.

Matrices are lists (or tuples) of row tuples of Python ints, so every
computation is arbitrary precision.  All routines are deterministic:
given the same input they produce the same output, which the rest of
the package relies on for canonical forms.
"""

from __future__ import annotations

from math import gcd


def mat_rank(rows) -> int:
    """Rank over the rationals, by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_p(rows, p: int) -> int:
    """Rank of the matrix over the prime field GF(p)."""
    m = [[x % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def row_hermite(rows):
    """Row Hermite normal form H of an integer matrix, with its transform.

    Returns (H, U) with U unimodular and U*M = H.  H is the canonical
    echelon form: pivots positive, entries above each pivot reduced into
    [0, pivot), zero rows last.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    pivot_row = 0
    pivot_cols = []
    for col in range(ncols):
        if pivot_row == nrows:
            break
        # clear the column below pivot_row with gcd steps
        while True:
            rs = [r for r in range(pivot_row, nrows) if m[r][col] != 0]
            if not rs:
                break
            r_min = min(rs, key=lambda r: abs(m[r][col]))
            if r_min != pivot_row:
                m[pivot_row], m[r_min] = m[r_min], m[pivot_row]
                u[pivot_row], u[r_min] = u[r_min], u[pivot_row]
            piv = m[pivot_row][col]
            done = True
            for r in range(pivot_row + 1, nrows):
                if m[r][col] != 0:
                    q = m[r][col] // piv
                    m[r] = [a - q * b for a, b in zip(m[r], m[pivot_row])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
                    if m[r][col] != 0:
                        done = False
            if done:
                break
        if m[pivot_row][col] != 0:
            if m[pivot_row][col] < 0:
                m[pivot_row] = [-a for a in m[pivot_row]]
                u[pivot_row] = [-a for a in u[pivot_row]]
            pivot_cols.append(col)
            pivot_row += 1
    # reduce entries above each pivot
    for i, col in enumerate(pivot_cols):
        piv = m[i][col]
        for r in range(i):
            q = m[r][col] // piv
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                u[r] = [a - q * b for a, b in zip(u[r], u[i])]
    return tuple(tuple(r) for r in m), tuple(tuple(r) for r in u)


def integer_kernel(rows, ncols: int):
    """Basis of {v in Z^ncols : M v = 0} as a tuple of row vectors.

    The returned basis spans the full integer kernel, which is always
    a saturated sublattice.
    """
    if not rows:
        return tuple(tuple(int(i == j) for j in range(ncols)) for i in range(ncols))
    mt = [list(c) for c in zip(*rows)]  # ncols x nrows
    h, u = row_hermite(mt)
    return tuple(u[i] for i in range(len(h)) if all(x == 0 for x in h[i]))


def smith_left(rows):
    """Diagonalize M as U*M*V = D and return (U, diagonal entries).

    U is unimodular; V is discarded.  The diagonal entries are positive
    but not normalized to a divisibility chain, which is enough to
    compute residues modulo the column lattice of M.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    t = 0
    while t < min(nrows, ncols):
        entries = [(abs(m[i][j]), i, j) for i in range(t, nrows)
                   for j in range(t, ncols) if m[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        piv = m[t][t]
        clean = True
        for r in range(t + 1, nrows):
            q = m[r][t] // piv
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[t])]
                u[r] = [a - q * b for a, b in zip(u[r], u[t])]
            if m[r][t] != 0:
                clean = False
        for c in range(t + 1, ncols):
            q = m[t][c] // piv
            if q:
                for row in m:
                    row[c] -= q * row[t]
            if m[t][c] != 0:
                clean = False
        if not clean:
            continue
        if m[t][t] < 0:
            for row in m:
                row[t] = -row[t]
        t += 1
    return tuple(tuple(r) for r in u), tuple(m[i][i] for i in range(t))


def dot2(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1]


def det2(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def xgcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def rot90(v):
    """Counterclockwise quarter turn: (x, y) -> (-y, x)."""
    return (-v[1], v[0])


def is_visible(v) -> bool:
    """True when v is a nonzero primitive vector (coordinate gcd 1)."""
    return v != (0, 0) and gcd(v[0], v[1]) == 1


def primitive_part(v):
    """v divided by the gcd of its coordinates; undefined on zero."""
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def solve_2x2(a, b, t):
    """Integer solution x of [a; b] x = t for rows a, b, or None.

    Requires det(a, b) != 0; returns None when the unique rational
    solution is not integral.
    """
    d = det2(a, b)
    x_num = t[0] * b[1] - t[1] * a[1]
    y_num = a[0] * t[1] - b[0] * t[0]
    if x_num % d or y_num % d:
        return None
    return (x_num // d, y_num // d)
