"""Exact integer linear algebra primitives."""

import math

import pytest

from galereg.intlinalg import (
    det2,
    dot2,
    integer_kernel,
    is_visible,
    mat_rank,
    primitive_part,
    rank_mod_p,
    rot90,
    row_hermite,
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


def test_row_hermite_canonical():
    h, _ = row_hermite([(2, 4, 4), (-6, 6, 12), (10, 4, 16)])
    # pivots positive, entries above a pivot reduced
    flat = [r for r in h if any(r)]
    pivots = []
    for r in flat:
        j = next(i for i, x in enumerate(r) if x)
        assert r[j] > 0
        for above in flat[: flat.index(r)]:
            assert 0 <= above[j] < r[j]
        pivots.append(j)
    assert pivots == sorted(pivots)


def test_row_hermite_transform():
    m = [(3, 1), (1, 2)]
    h, u = row_hermite(m)
    # U*M = H and U is unimodular
    prod = [
        [sum(u[i][k] * m[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert [tuple(r) for r in prod] == [tuple(r) for r in h]
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1


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
