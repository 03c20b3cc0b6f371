"""The sparse Weyl steps against the dense products they replaced.

``weyl._orbit`` builds s_i·w from row i of w and the rows of i's Dynkin
neighbours, and ``weyl._right_step`` builds w·s_j from column j alone, both
from the off-diagonal nonzeros of row i of s_i (``RootSystem.neighbours``).  The references are the dense walk
(``helpers.reference_orbit``) and ``linalg.matmul`` with the full
reflection matrix.  The dense walk steps its orbit point as a weight and
``_orbit`` as a coweight, so the check also pins that both give the same
elements, lengths and order.
"""

from __future__ import annotations

import itertools

import pytest

from helpers import reference_orbit
from leafatlas import build_root_system, enumerate_weyl
from leafatlas.linalg import matmul
from leafatlas.weyl import _orbit, _right_step


def _subsets(rank, most=None):
    top = rank if most is None else most
    return [s for k in range(top + 1) for s in itertools.combinations(range(rank), k)]


def _assert_same_walk(rs, indices, lam, dominant):
    got = _orbit(rs, indices, lam, dominant)
    want = reference_orbit(rs, indices, lam, dominant)
    assert [(w.matrix, w.length) for w in got] == [(w.matrix, w.length) for w in want], (
        indices, lam, dominant,
    )


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A2xA1", "B2xG2+T1"]
)
def test_sparse_orbit_matches_the_dense_walk(label):
    # every index set I, every 0/1 weight lam and every dominant set; on
    # B2xG2+T1 this also pins the torus row and column, fixed by the walk
    rs = build_root_system(label)
    subsets = _subsets(rs.rank)
    for indices, lam in itertools.product(subsets, itertools.product((0, 1), repeat=rs.rank)):
        for dominant in subsets:
            _assert_same_walk(rs, indices, lam, dominant)


def test_sparse_orbit_matches_the_dense_walk_f4():
    # I = all simple roots, every 0/1 weight, dominant sets of at most one root
    rs = build_root_system("F4")
    for lam in itertools.product((0, 1), repeat=4):
        for dominant in _subsets(4, most=1):
            _assert_same_walk(rs, range(4), lam, dominant)


@pytest.mark.parametrize("label", ["B3", "G2", "A2+T1"])
def test_right_step_is_the_dense_product(label):
    rs = build_root_system(label)
    for w in enumerate_weyl(rs):
        for j in range(rs.rank):
            assert _right_step(rs, w.matrix, j) == matmul(w.matrix, rs.reflections[j]), (w, j)


def test_neighbours_are_the_off_diagonal_entries_of_the_reflection_rows():
    for label in ("A4", "B3", "C3", "D4", "F4", "G2", "E6", "B2xG2+T1"):
        rs = build_root_system(label)
        for i, row in enumerate(rs.neighbours):
            dense = [0] * rs.cartan_rank
            for k, c in row:
                assert k != i and k < rs.rank and c > 0
                dense[k] = c
            dense[i] = -1
            assert tuple(dense) == rs.reflections[i][i], (label, i)
