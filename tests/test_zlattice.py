"""Lattices, Gale diagrams, saturation and equivalence."""

import pytest

from galereg.errors import (
    AmbientTooSmall,
    BadInput,
    NotHomogeneous,
    RankDeficient,
    WrongRank,
)
from galereg.zlattice import (
    Lattice,
    contains,
    gale_equivalent,
    has_rank_two,
    is_nondegenerate,
    is_saturated,
    kernel_lattice,
    lattice_from_basis,
    lattice_from_gale,
    minor_gcd,
    permutation_canonical_key,
    strip_zero_coordinates,
    transform_lattice,
)

TWISTED_CUBIC_A = [(1, 1, 1, 1), (0, 1, 2, 3)]


def test_kernel_lattice_twisted_cubic():
    lat = kernel_lattice(TWISTED_CUBIC_A)
    assert lat.n == 4
    for col in lat.columns():
        assert sum(col) == 0
        assert sum(i * x for i, x in enumerate(col)) == 0
    assert is_saturated(lat)
    assert is_nondegenerate(lat)


def test_kernel_lattice_requires_all_ones_in_row_span():
    with pytest.raises(NotHomogeneous):
        kernel_lattice([(1, 0, 0, 0), (0, 1, 2, 3)])


def test_lattice_from_basis_roundtrip():
    lat = lattice_from_basis([(1, -2, 1, 0), (0, 1, -2, 1)])
    assert lat.rows == ((1, 0), (-2, 1), (1, -2), (0, 1))
    assert lat.to_json_dict() == {
        "n": 4,
        "basis": [[1, -2, 1, 0], [0, 1, -2, 1]],
    }


def test_constructor_validation():
    with pytest.raises(AmbientTooSmall):
        lattice_from_gale([(1, 0), (-1, 0)])
    with pytest.raises(NotHomogeneous):
        lattice_from_gale([(1, 0), (0, 1), (0, -1)])
    with pytest.raises(RankDeficient):
        lattice_from_gale([(1, 0), (1, 0), (-2, 0)])
    # the type itself refuses every invalid diagram
    for rows, error, match in [
        ([(1, 1), (1, -2), (-2, 1)], WrongRank, "must form a tuple, got list"),
        ((), AmbientTooSmall, "need at least 3 coordinates, got 0"),
        (((1,), (0,), (-1,)), WrongRank, "pair of integers"),
        (((1, 0, 5), (0, 1, 5), (-1, -1, -10), (0, 0, 0)), WrongRank, "pair of integers"),
        (((1, 0), (0, 1), [-1, -1]), WrongRank, "pair of integers"),
        (((1, 0), (0, 1), (-1.0, -1)), WrongRank, "pair of integers"),
        (((1, 0), (0, 1), (0, -1)), NotHomogeneous, r"sum to \(1, 0\)"),
        (((0, 0), (0, 0), (0, 0)), RankDeficient, "rationally dependent"),
    ]:
        with pytest.raises(error, match=match):
            Lattice(rows)


def test_constructors_only_coerce():
    assert lattice_from_gale([[1, 1], [1, -2], [-2, 1]]).rows == ((1, 1), (1, -2), (-2, 1))
    # a third coordinate is kept, and the lattice refuses it
    with pytest.raises(WrongRank):
        lattice_from_gale([(1, 0, 5), (0, 1, 5), (-1, -1, -10), (0, 0, 0)])
    with pytest.raises(WrongRank):
        lattice_from_gale([[1], [0], [-1]])
    with pytest.raises(BadInput, match="exactly two vectors"):
        lattice_from_basis([(1, -2, 1, 0), (0, 1, -2, 1), (1, 0, 0, -1)])
    with pytest.raises(WrongRank, match="different lengths"):
        lattice_from_basis([(1, -2, 1, 0), (0, 1, -1)])


def test_has_rank_two():
    assert has_rank_two(((0, 0), (1, 0), (0, 1), (-1, -1)))
    assert not has_rank_two(((0, 0), (1, 0), (-2, 0), (1, 0)))
    assert not has_rank_two(((0, 0),) * 3)
    assert not has_rank_two(())


def test_contains():
    lat = lattice_from_basis([(1, -2, 1, 0), (0, 1, -2, 1)])
    assert contains(lat, (1, -2, 1, 0))
    assert contains(lat, (1, -1, -1, 1))
    assert not contains(lat, (1, -1, 0, 0))
    assert not contains(lat, (0, 0, 0, 1))


def test_saturation_minor_gcd():
    lat = lattice_from_gale([(1, 1), (1, -2), (-2, 1)])
    assert minor_gcd(lat) == 3
    assert not is_saturated(lat)
    assert is_saturated(kernel_lattice(TWISTED_CUBIC_A))


def test_degeneracy_from_equal_a_columns():
    # columns 2 and 3 of A are equal although the Gale rows there differ
    a = [(1, 0, 0, 1, 0), (0, 1, 1, 0, 1), (1, 1, 1, 0, 0)]
    lat = kernel_lattice(a)
    target = (0, 1, -1, 0, 0)
    assert contains(lat, target)
    assert not is_nondegenerate(lat)
    assert is_nondegenerate(kernel_lattice(TWISTED_CUBIC_A))


def test_strip_zero_coordinates():
    lat = lattice_from_basis([(1, -2, 1, 0, 0), (0, 1, -2, 1, 0)])
    stripped = strip_zero_coordinates(lat)
    assert stripped.n == 4
    assert stripped.rows == ((1, 0), (-2, 1), (1, -2), (0, 1))
    # a valid rank-2 lattice always keeps at least 3 nonzero rows
    assert strip_zero_coordinates(stripped) == stripped


def test_transform_lattice_preserves_invariants():
    lat = kernel_lattice(TWISTED_CUBIC_A)
    u = ((2, 1), (1, 1))  # det 1
    other = transform_lattice(lat, u)
    assert other.rows != lat.rows
    assert is_saturated(other) and is_nondegenerate(other)
    assert gale_equivalent(lat.rows, other.rows)
    assert permutation_canonical_key(lat) == permutation_canonical_key(other)


def test_gale_equivalent_permutation_flag():
    g = ((1, 0), (-2, 1), (1, -2), (0, 1))
    h = (g[2], g[0], g[3], g[1])
    assert not gale_equivalent(g, h)
    assert gale_equivalent(g, h, up_to_permutation=True)
    assert not gale_equivalent(g, ((1, 0), (-2, 1), (1, -1), (0, 0)))


def test_gale_equivalent_rejects_rank_one():
    with pytest.raises(RankDeficient):
        gale_equivalent(((1, 0), (1, 0), (-2, 0)), ((1, 0), (-2, 1), (1, -1)))
    # an h of the same length is built into a Lattice too
    with pytest.raises(RankDeficient):
        gale_equivalent(((1, 0), (-2, 1), (1, -1)), ((1, 0), (1, 0), (-2, 0)), up_to_permutation=True)
    assert not gale_equivalent(((1, 0), (-2, 1), (1, -1)), ((1, 0), (1, 0), (-1, 0), (-1, 0)))


def test_permutation_canonical_key_separates():
    k1 = permutation_canonical_key(kernel_lattice(TWISTED_CUBIC_A))
    k2 = permutation_canonical_key(
        lattice_from_gale([(0, 2), (2, -1), (-1, 0), (-1, -1)])
    )
    assert k1 != k2
    # invariant under permuting coordinates
    lat = lattice_from_gale([(0, 2), (2, -1), (-1, 0), (-1, -1)])
    perm = lattice_from_gale([(2, -1), (-1, -1), (0, 2), (-1, 0)])
    assert permutation_canonical_key(perm) == k2


@pytest.mark.parametrize("rows, key", [
    # a zero row goes first
    (((1, 0), (0, 0), (0, 1), (-1, -1)), (0, 1, 0, -1, 0, 0, 1, -1)),
    # two equal rows
    (((0, 1), (2, -1), (0, 1), (-2, -1)), (1, 1, -3, 1, 0, 2, -4, 2)),
    # -a sits between a and b: its c1 = -1 beats the sheared c1(b) >= 0
    (((1, 0), (0, 1), (-1, 0), (0, -1)), (1, -1, 0, 0, 0, 0, 1, -1)),
])
def test_permutation_canonical_key_cases(rows, key):
    for order in (rows, rows[::-1], rows[1:] + rows[:1]):
        assert permutation_canonical_key(lattice_from_gale(order)) == key


def test_lattice_is_hashable_and_frozen():
    lat = lattice_from_gale([(1, 1), (1, -2), (-2, 1)])
    assert lat == Lattice(((1, 1), (1, -2), (-2, 1)))
    assert hash(lat) == hash(Lattice(((1, 1), (1, -2), (-2, 1))))
    with pytest.raises(AttributeError):
        lat.rows = ()
