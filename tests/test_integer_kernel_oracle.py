"""The integer RREF and kernel against the Fraction path they replaced.

`_primitive_rref` runs the Bareiss forward pass and an integer back phase
that leaves each pivot row primitive with a positive pivot; `_kernel`
reads primitive kernel vectors off those rows.  `Subspace`, its `perp`,
the subspace meet `helpers.intersect` and the pair loop of `leafclass`
used to take a ``Fraction`` RREF (or `nullspace`) and rescale each row by
the lcm of its denominators.  Those bodies are the oracles here, over the Gauss-Jordan
reference `rref` of `test_linalg_kernel`.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import intersect
from test_linalg_kernel import ref_int_rows, ref_nullspace, ref_rref
from leafatlas import build_root_system
from leafatlas.linalg import (
    Subspace,
    _kernel,
    _primitive_rref,
    matmul,
    matvec,
    transpose,
)


# ---------------------------------------------------------------------------
# oracles: the Fraction RREF, then each row scaled by its lcm


def ref_primitive_rref(a):
    r, pivots = ref_rref(a)
    return ref_int_rows(r[: len(pivots)]), list(pivots)


def ref_kernel(a):
    return ref_int_rows(ref_nullspace(a))


def ref_basis(ambient, vectors):
    """The basis the Subspace constructor built from a Fraction RREF."""
    rows = tuple(map(tuple, ref_primitive_rref(tuple(vectors))[0])) if vectors else ()
    return transpose(rows) if rows else tuple(() for _ in range(ambient))


def ref_intersect(u, v):
    if u.dim == 0 or v.dim == 0:
        return ref_basis(u.ambient, ())
    stacked = tuple(
        tuple(u.basis[i]) + tuple(-x for x in v.basis[i]) for i in range(u.ambient)
    )
    return ref_basis(u.ambient, [matvec(u.basis, s[: u.dim]) for s in ref_kernel(stacked)])


def ref_perp(u, gram):
    if u.dim == 0:
        return ref_basis(u.ambient, [tuple(int(i == j) for j in range(u.ambient))
                                     for i in range(u.ambient)])
    return ref_basis(u.ambient, ref_nullspace(matmul(transpose(u.basis), gram)))


# ---------------------------------------------------------------------------
# strategies: int and Fraction entries; zero rows and columns; dependent
# rows with negative multiples, so pivots of either sign turn up


ints = st.integers(-6, 6)
fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def matrices(draw, rows=None, cols=None):
    m = draw(st.integers(1, 5)) if rows is None else rows
    n = draw(st.integers(1, 6)) if cols is None else cols
    entry = draw(st.sampled_from((ints, fracs, st.one_of(ints, fracs))))
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    kind = draw(st.sampled_from(("free", "zero_row", "zero_col", "zero", "dependent")))
    if kind == "zero_row":
        a[draw(st.integers(0, m - 1))] = [0] * n
    elif kind == "zero_col":
        c = draw(st.integers(0, n - 1))
        for row in a:
            row[c] = 0
    elif kind == "zero":
        a = [[0] * n for _ in range(m)]
    elif kind == "dependent" and m > 1:
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.sampled_from((-3, -2, -1, Fraction(-1, 2), 2)))
        a[i] = [c * x for x in a[j]]
    return tuple(map(tuple, a))


EDGE_CASES = [
    (),
    ((), (), ()),
    ((0, 0, 0),),
    ((0,), (0,)),
    ((-2, 4, -6), (1, -2, 3)),
    ((0, -3, 1), (0, 6, -2), (0, 0, 0)),
    ((-1, 0, 2), (0, -4, 6), (-1, -4, 8)),
    ((Fraction(-2, 3), 1, 0), (Fraction(4, 3), -2, 0)),
    ((0, 0, -5, 10), (-7, 0, 0, 0)),
]


def _all_int(rows):
    return all(type(x) is int for row in rows for x in row)


def _check_matrix(a):
    rows, pivots = _primitive_rref(a)
    assert (rows, pivots) == ref_primitive_rref(a)
    assert _all_int(rows) and all(row[c] > 0 for row, c in zip(rows, pivots))
    kernel = _kernel(a)
    assert kernel == ref_kernel(a)
    assert _all_int(kernel)
    for v in kernel:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@pytest.mark.parametrize("a", EDGE_CASES, ids=[f"edge{i}" for i in range(len(EDGE_CASES))])
def test_edge_cases_match_the_fraction_path(a):
    _check_matrix(a)


def test_negative_pivots_come_out_positive():
    rows, pivots = _primitive_rref(((-2, 4, -6), (1, -2, 3)))
    assert (rows, pivots) == ([[1, -2, 3]], [0])
    assert _kernel(((-2, 4, -6), (1, -2, 3))) == [[2, 1, 0], [-3, 0, 1]]
    assert _kernel(((0, -3, 1),)) == [[1, 0, 0], [0, 1, 3]]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_primitive_rref_and_kernel_match_the_fraction_path(a):
    _check_matrix(a)


@st.composite
def subspaces(draw, ambient):
    count = draw(st.integers(0, ambient + 1))
    vectors = draw(matrices(rows=count, cols=ambient)) if count else ()
    return Subspace(ambient, vectors), vectors


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(subspaces(k), subspaces(k))))
def test_subspace_basis_and_intersection_match_the_fraction_path(pair):
    (u, u_vectors), (v, v_vectors) = pair
    assert u.basis == ref_basis(u.ambient, u_vectors)
    assert v.basis == ref_basis(v.ambient, v_vectors)
    assert _all_int(u.basis)
    assert intersect(u, v).basis == ref_intersect(u, v)
    assert intersect(v, u) == intersect(u, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(subspaces(k), matrices(rows=k, cols=k))))
def test_perp_matches_the_fraction_path(pair):
    (u, _), gram = pair
    assert u.perp(gram).basis == ref_perp(u, gram)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "F4", "A2+T1"])
def test_root_spans_and_their_perps_match_the_fraction_path(label):
    rs = build_root_system(label)
    k = rs.cartan_rank
    roots = list(rs.positive_roots)
    for start in range(0, len(roots), 3):
        u = Subspace(k, roots[start : start + 3])
        assert u.basis == ref_basis(k, roots[start : start + 3])
        perp = u.perp(rs.gram)
        assert perp.basis == ref_perp(u, rs.gram)
        assert intersect(u, perp).basis == ref_intersect(u, perp)
