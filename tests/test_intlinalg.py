"""Exact integer linear algebra primitives."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from galereg.intlinalg import (
    det2,
    dot2,
    integer_kernel,
    is_visible,
    mat_rank,
    primitive_part,
    rank_mod_p,
    rot90,
    smith_left,
    solve_2x2,
)


def test_mat_rank():
    assert mat_rank([(1, 2), (2, 4)]) == 1
    assert mat_rank([(1, 2), (3, 4)]) == 2
    assert mat_rank([(0, 0), (0, 0)]) == 0
    assert mat_rank([(1, 1, 1, 1), (0, 1, 2, 3)]) == 2
    assert mat_rank([]) == 0


def test_rank_mod_p():
    # rank drops mod 2 but not mod 3
    m = [(2, 0), (0, 1)]
    assert rank_mod_p(m, 2) == 1
    assert rank_mod_p(m, 3) == 2
    assert rank_mod_p([(6, 0), (0, 10)], 2) == 0
    assert rank_mod_p([(6, 0), (0, 10)], 5) == 1


def hermite_kernel(rows, ncols):
    """integer_kernel through the full row Hermite form of M^T, as reference.

    The form also makes each pivot positive and reduces the entries
    above it; the kernel is read off the transform rows of its zero rows.
    """
    if not rows:
        return tuple(tuple(int(i == j) for j in range(ncols)) for i in range(ncols))
    m = [list(c) for c in zip(*rows)]
    nrows, width = len(m), len(m[0])
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    pivot_row = 0
    pivot_cols = []
    for col in range(width):
        if pivot_row == nrows:
            break
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
    for i, col in enumerate(pivot_cols):
        piv = m[i][col]
        for r in range(i):
            q = m[r][col] // piv
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                u[r] = [a - q * b for a, b in zip(u[r], u[i])]
    return tuple(tuple(u[i]) for i in range(nrows) if not any(m[i]))


@st.composite
def small_matrices(draw):
    """Integer matrices with 1..7 columns, at most that many rows, entries <= 4."""
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(1, ncols))
    entry = st.integers(-4, 4)
    return [tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)], ncols


@settings(deadline=None, max_examples=300)
@given(small_matrices())
def test_integer_kernel_matches_the_hermite_reference(case):
    rows, ncols = case
    assert integer_kernel(rows, ncols) == hermite_kernel(rows, ncols)


@settings(deadline=None, max_examples=300)
@given(small_matrices())
def test_integer_kernel_spans_the_saturated_kernel(case):
    """The basis has the kernel's rank, lies in it, and is saturated.

    A saturated sublattice of the kernel of full rank is the whole
    integer kernel.  Saturation: the diagonal of any U B V = D has
    product the gcd of the maximal minors of B, so every entry is 1.
    """
    rows, ncols = case
    kern = integer_kernel(rows, ncols)
    assert len(kern) == ncols - mat_rank(rows)
    assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in rows for v in kern)
    if kern:
        assert mat_rank(kern) == len(kern)
        _, diag = smith_left(kern)
        assert diag == (1,) * len(kern)


def test_integer_kernel_saturated():
    kern = integer_kernel([(1, 1, 1, 1), (0, 1, 2, 3)], 4)
    assert len(kern) == 2
    for v in kern:
        assert sum(v) == 0
        assert sum(i * x for i, x in enumerate(v)) == 0
    # saturated: the gcd of 2x2 minors of the kernel basis is 1
    g = 0
    for i in range(4):
        for j in range(i + 1, 4):
            g = math.gcd(g, kern[0][i] * kern[1][j] - kern[0][j] * kern[1][i])
    assert g == 1


def test_smith_left():
    u, diag = smith_left([(2, 4), (4, 2)])
    assert all(d > 0 for d in diag)
    assert math.prod(diag) == abs(2 * 2 - 4 * 4)
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1


def test_two_component_helpers():
    assert dot2((1, 2), (3, 4)) == 11
    assert det2((1, 2), (3, 4)) == -2
    assert rot90((1, 0)) == (0, 1)
    assert rot90((0, 1)) == (-1, 0)
    assert is_visible((2, 3)) and not is_visible((2, 4)) and not is_visible((0, 0))
    assert primitive_part((4, -6)) == (2, -3)
    assert primitive_part((-4, 0)) == (-1, 0)


def test_solve_2x2():
    assert solve_2x2((1, 0), (0, 1), (5, -3)) == (5, -3)
    assert solve_2x2((2, 0), (0, 2), (4, 6)) == (2, 3)
    assert solve_2x2((2, 0), (0, 2), (3, 6)) is None
    with pytest.raises(Exception):
        solve_2x2((1, 2), (2, 4), (1, 1))
