"""Exact linear algebra cross-checked against sympy."""

import time
from fractions import Fraction
from math import gcd

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from helpers import (
    integer_kernel,
    intersect,
    lattice_contains,
    lattice_intersection,
    madd,
    msub,
    nullspace,
    solve,
    subspace_contains,
)
from leafatlas.linalg import (
    Lattice,
    Subspace,
    det,
    identity,
    inverse,
    mat,
    matmul,
    quotient_invariants,
    rank,
    row_hnf,
    rref,
    smith_normal_form,
)

small_frac = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def _matrices(max_dim=4, entries=small_frac):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_matches_sympy(rows):
    a = mat(rows)
    assert rank(a) == sympy.Matrix(rows).rank()


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_det_matches_sympy_when_square(rows):
    if len(rows) != len(rows[0]):
        return
    a = mat(rows)
    expected = sympy.Matrix(rows).det()
    assert det(a) == Fraction(expected.p, expected.q)


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_nullspace_is_kernel_of_right_dimension(rows):
    a = mat(rows)
    basis = nullspace(a)
    n = len(rows[0])
    assert len(basis) == n - rank(a)
    for v in basis:
        out = [sum(row[j] * v[j] for j in range(n)) for row in a]
        assert all(x == 0 for x in out)


def test_inverse_round_trip():
    a = mat([[1, 2, 0], [0, 1, 5], [2, 0, 1]])
    assert matmul(a, inverse(a)) == identity(3)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))


@pytest.mark.parametrize("op", [madd, msub])
@pytest.mark.parametrize("a, b", [(((1,),), ((1, 2),)), (((1, 2),), ((1, 2), (3, 4))), ((), ((1,),))])
def test_entrywise_sum_and_difference_reject_a_shape_mismatch(op, a, b):
    # zip would silently truncate to the common shape
    with pytest.raises(ValueError, match=f"^shape mismatch in {op.__name__}$"):
        op(a, b)
    with pytest.raises(ValueError, match=f"^shape mismatch in {op.__name__}$"):
        op(b, a)
    assert op(a, a) == tuple(tuple(2 * x if op is madd else 0 for x in row) for row in a)


def test_solve_returns_solution_or_none():
    a = mat([[1, 2], [3, 4]])
    x = solve(a, [Fraction(5), Fraction(11)])
    assert x == (Fraction(1), Fraction(2))
    assert solve(mat([[1, 1], [1, 1]]), [0, 1]) is None


def test_rref_pivot_columns_are_unit():
    r, pivots = rref(mat([[2, 4, 1], [1, 2, 3]]))
    for row_idx, col in enumerate(pivots):
        assert r[row_idx][col] == 1
        for other in range(len(r)):
            if other != row_idx:
                assert r[other][col] == 0


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rref_matches_sympy(rows):
    r, pivots = rref(mat(rows))
    expected, expected_pivots = sympy.Matrix(rows).rref()
    assert pivots == tuple(expected_pivots)
    assert r == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in expected.row(i))
        for i in range(expected.rows)
    )


@settings(max_examples=80, deadline=None)
@given(_matrices(6, st.integers(-60, 60)))
def test_smith_diagonal_matches_sympy_invariant_factors(rows):
    diag = smith_normal_form(rows)
    assert all(isinstance(x, int) and x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    sd = sympy_snf(sympy.Matrix(rows))
    expected = [abs(int(sd[i, i])) for i in range(min(sd.shape)) if sd[i, i] != 0]
    assert diag == expected


def test_smith_diagonal_of_a_matrix_whose_transforms_blow_up():
    # eliminating with unimodular transforms and no reduction of their
    # entries ran here past 60 s with entries of about 1.5 million bits
    rows = [
        [-6, 0, 0, 0, 0, -6, 5, 0],
        [3, 7, 0, 0, -11, 2, -3, 8],
        [-9, 0, 11, 12, 6, 0, 1, 4],
        [8, 2, 4, -8, -7, -12, 0, 0],
        [-1, -3, 0, 0, -10, 0, 0, 2],
        [-1, 3, 0, -9, -8, -12, 0, 0],
        [-8, -3, 0, 4, 1, 1, 3, 3],
    ]
    start = time.perf_counter()
    assert smith_normal_form(rows) == [1, 1, 1, 1, 1, 1, 2]
    assert time.perf_counter() - start < 1.0


def test_smith_diagonal_of_zero_and_empty_matrices():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[0, 4], [0, 6]]) == [2]


def _solve_contains(lat, v):
    """Membership through the Fraction solve that lattice_contains replaced."""
    if lat.rank == 0:
        return not any(v)
    x = solve(lat.basis, v)
    return x is not None and all(e.denominator == 1 for e in x)


@settings(max_examples=60, deadline=None)
@given(_matrices(4, st.integers(-6, 6)), st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(0, 3))
def test_lattice_membership_matches_the_rational_solve(gens, coeffs, bump):
    # v is an integer combination of the generators, moved off the lattice
    # by bump in its first coordinate; v/2 has Fraction entries
    k = len(gens[0])
    lat = Lattice(k, gens)
    v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(k)]
    v[0] += bump
    half = [Fraction(x, 2) for x in v]
    assert lattice_contains(lat, v) == _solve_contains(lat, v)
    assert lattice_contains(lat, half) == _solve_contains(lat, half)


def test_row_hnf_canonicalizes_equal_lattices():
    a = Lattice(2, [[2, 0], [0, 3]])
    b = Lattice(2, [[2, 3], [2, -3], [4, 3]])
    assert a == b


def test_lattice_membership_sum_intersection():
    two = Lattice(1, [[2]])
    three = Lattice(1, [[3]])
    assert lattice_contains(two, [4]) and not lattice_contains(two, [3])
    assert two.sum(three) == Lattice(1, [[1]])
    assert lattice_intersection(two, three) == Lattice(1, [[6]])


@pytest.mark.parametrize(
    "space, v",
    [
        (Lattice(2, [[1, 0], [0, 1]]), [1, 0, 5]),
        (Lattice(2, [[1, 0], [0, 1]]), [1]),
        (Lattice(2, []), [0, 0, 0]),
        (Subspace(2, [(1, 0)]), [1, 0, 7]),
        (Subspace(2, [(1, 0)]), [1]),
        (Subspace(2, []), [0]),
    ],
)
def test_membership_rejects_a_vector_of_another_length(space, v):
    # a longer vector must not pass on its first coordinates alone
    with pytest.raises(ValueError, match="^vector length does not match ambient dimension$"):
        (lattice_contains if isinstance(space, Lattice) else subspace_contains)(space, v)


def test_integer_kernel_is_integral_and_spans():
    a = [[2, -4, 0], [1, -2, 0]]
    ker = integer_kernel(a)
    assert len(ker) == 2
    for v in ker:
        assert all(isinstance(x, int) for x in v)
        assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in a)


def test_quotient_invariants_simple_cases():
    z2 = Lattice(2, [[1, 0], [0, 1]])
    assert quotient_invariants(z2, Lattice(2, [[2, 0], [0, 2]]).columns()) == ((2, 2), 0)
    assert quotient_invariants(z2, Lattice(2, [[1, 0], [0, 6]]).columns()) == ((6,), 0)
    # corank one sublattice leaves a free factor
    assert quotient_invariants(z2, Lattice(2, [[3, 0]]).columns()) == ((3,), 1)
    # generators go in as they are: dependent or not in Hermite form
    assert quotient_invariants(z2, [[2, 0], [0, 2], [2, 2]]) == ((2, 2), 0)
    assert quotient_invariants(z2, [[2, 4], [4, 2]]) == ((2, 6), 0)
    assert quotient_invariants(z2, [[3, 0], [6, 0]]) == ((3,), 1)
    with pytest.raises(ValueError, match="not a sublattice"):
        quotient_invariants(Lattice(2, [[2, 0], [0, 2]]), [[1, 0]])


def test_subspace_basis_is_primitive_integer():
    s = Subspace(3, [(Fraction(1, 2), Fraction(1, 3), 0), (0, Fraction(2, 7), 4)])
    assert s.dim == 2
    for col in s.vectors():
        assert all(type(x) is int for x in col)
        assert gcd(*col) == 1
    # the span of the basis is the span of the generators
    assert subspace_contains(s, (Fraction(1, 2), Fraction(1, 3), 0))
    assert subspace_contains(s, (0, Fraction(2, 7), 4))


def test_equal_spans_from_different_generators_are_equal():
    a = Subspace(4, [(1, 2, 0, 3), (0, 1, 1, 1)])
    b = Subspace(4, [(Fraction(2), Fraction(5), Fraction(1), Fraction(7)), (-3, -6, 0, -9), (0, 0, 0, 0)])
    c = Subspace(4, [(Fraction(1, 3), Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3)), (0, 5, 5, 5)])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert a.basis == b.basis == c.basis
    assert a != Subspace(4, [(1, 2, 0, 3)])


def test_subspace_operations():
    x = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    y = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert intersect(x, y).dim == 1
    assert x.add(y).dim == 3
    assert subspace_contains(x, (Fraction(2), Fraction(-7), Fraction(0)))
    assert not subspace_contains(x, (0, 0, 1))
    assert Subspace(3, [(1, 2, 0), (2, 4, 0)]).dim == 1
