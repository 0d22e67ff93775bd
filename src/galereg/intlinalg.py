"""Exact linear algebra over the integers for small dense matrices.

Matrices are lists (or tuples) of row tuples of Python ints, so every
computation is arbitrary precision.  All routines are deterministic:
given the same input they produce the same output, which the rest of
the package relies on for canonical forms.

One routine answers each exact question:

- :func:`smith_left` diagonalizes U*M*V = D.  It keys residue classes
  modulo a column lattice, decides saturation (every entry of D is 1),
  and through :func:`mat_rank` gives the rank over Q and over GF(p).
- :func:`integer_kernel` gives a basis of the integer kernel by its own
  gcd elimination, so the Gale diagrams built from it stay fixed.
- :func:`solve_2x2` solves a 2 x 2 integer system by Cramer's rule.
"""

from __future__ import annotations

from math import gcd

from .errors import BadInput


def integer_kernel(rows, ncols: int):
    """Basis of {v in Z^ncols : M v = 0} as a tuple of row vectors.

    Gcd steps bring M^T to echelon form E, tracking a unimodular U with
    U M^T = E.  The nonzero rows of E are independent, so v = w U is in
    the kernel exactly when w vanishes off the zero rows of E: the rows
    of U there span the full integer kernel, which is always a
    saturated sublattice.  Rows of a width other than ncols raise
    BadInput.
    """
    widths = {len(r) for r in rows} - {ncols}
    if widths:
        raise BadInput(f"integer_kernel: rows of width {min(widths)}, expected {ncols}")
    if not rows:
        return tuple(tuple(int(i == j) for j in range(ncols)) for i in range(ncols))
    m = [list(c) for c in zip(*rows)]  # M^T
    nrows = len(m)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    pivot_row = 0
    for col in range(len(rows)):
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
            pivot_row += 1
    return tuple(tuple(r) for r in u[pivot_row:])


def mat_rank(rows, p=None) -> int:
    """Rank over the rationals, or over the prime field GF(p) when p is given.

    Read off the diagonal D of U*M*V = D from :func:`smith_left`: its
    length is the rank over Q.  U and V are unimodular, hence also
    invertible mod p, so the rank over GF(p) is the number of diagonal
    entries that p does not divide.
    """
    diag = smith_left(rows)[1]
    if p is None:
        return len(diag)
    return sum(1 for d in diag if d % p)


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
