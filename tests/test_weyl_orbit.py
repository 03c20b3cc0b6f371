"""The Weyl-orbit walk against the enumeration it replaced.

``weyl`` builds W, a parabolic W_J and the minimal coset representatives
W^J as orbits of a dominant weight.  The reference functions below are the
former code: the closure of the simple-reflection matrices under right
multiplication, with the BFS depth as length, and the coset
representatives as the elements of that closure with no right descent in R
and no left descent in L.  They are kept here only as oracles, so that
the matrices, their order and their lengths are checked against an
enumeration that does not use weights.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from helpers import parabolic_elements
from leafatlas import build_root_system, enumerate_weyl, minimal_coset_reps
from leafatlas.weyl import (
    ParabolicSubgroup,
    WeylElement,
    left_descent,
    right_descent,
)

# ---------------------------------------------------------------------------
# reference implementations, copied from the replaced code


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reference_closure(rs, indices):
    """(matrix, length) of every element generated by the listed simple
    reflections, ordered by matrix; the length is the BFS depth."""
    generators = [rs.reflections[i] for i in sorted(indices)]
    n = rs.cartan_rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    depth = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                p = _matmul(m, g)
                if p not in depth:
                    depth[p] = depth[m] + 1
                    nxt.append(p)
        frontier = nxt
    return [(m, depth[m]) for m in sorted(depth)]


@functools.lru_cache(maxsize=None)
def _reference_group(label):
    rs = build_root_system(label)
    return rs, [WeylElement(m, n) for m, n in reference_closure(rs, range(rs.rank))]


def reference_minimal_coset_reps(label, left, right):
    """Scan all of W and keep the elements with no descent on either side."""
    rs, elements = _reference_group(label)
    return [
        (w.matrix, w.length)
        for w in elements
        if right_descent(rs, w, right) is None and left_descent(rs, w, left) is None
    ]


# ---------------------------------------------------------------------------


def _pairs(elements):
    return [(w.matrix, w.length) for w in elements]


def _subsets(rank):
    return [s for k in range(rank + 1) for s in itertools.combinations(range(rank), k)]


SYSTEMS = (
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2",
    "A1xA1", "A2xA1", "A2+T1",
)


@pytest.mark.parametrize("label", SYSTEMS)
def test_orbit_walk_matches_closure_oracle(label):
    rs, _ = _reference_group(label)
    assert _pairs(enumerate_weyl(rs)) == reference_closure(rs, range(rs.rank))
    subsets = _subsets(rs.rank)
    for j in subsets:
        got = parabolic_elements(rs, ParabolicSubgroup.of(j))
        assert _pairs(got) == reference_closure(rs, j), j
    for left, right in itertools.product(subsets, repeat=2):
        got = minimal_coset_reps(rs, ParabolicSubgroup.of(left), ParabolicSubgroup.of(right))
        assert _pairs(got) == reference_minimal_coset_reps(label, left, right), (left, right)


def test_orbit_walk_matches_closure_oracle_f4_one_sided():
    rs, _ = _reference_group("F4")
    assert _pairs(enumerate_weyl(rs)) == reference_closure(rs, range(rs.rank))
    trivial = ParabolicSubgroup.of(())
    for j in _subsets(rs.rank):
        p = ParabolicSubgroup.of(j)
        assert _pairs(parabolic_elements(rs, p)) == reference_closure(rs, j), j
        for left, right in ((trivial, p), (p, trivial)):
            got = minimal_coset_reps(rs, left, right)
            want = reference_minimal_coset_reps("F4", left.generators, right.generators)
            assert _pairs(got) == want, (left, right)


# J of type A4 and D4 (Bourbaki nodes {1,3,4,5} and {2,3,4,5})
@pytest.mark.parametrize("j", [(0, 2, 3, 4), (1, 2, 3, 4)])
def test_e6_coset_space_size(j):
    # the oracle's scan of all 51840 elements takes about 20 s, so E6 is
    # checked by |W^J| = |W|/|W_J| and the defining descent condition
    rs = build_root_system("E6")
    p = ParabolicSubgroup.of(j)
    reps = minimal_coset_reps(rs, ParabolicSubgroup.of(()), p)
    assert len(reps) * len(parabolic_elements(rs, p)) == 51840
    assert len({w.matrix for w in reps}) == len(reps)
    for w in reps:
        assert right_descent(rs, w, j) is None
        inverted = sum(
            1 for a in rs.positive_roots if all(x <= 0 for x in w(a))
        )
        assert inverted == w.length
