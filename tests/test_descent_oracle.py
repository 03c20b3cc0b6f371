"""Column-sign descents, column-step strips and dominance-filtered double
cosets against the code they replaced.

The reference functions below are the former ``weyl`` code: a right
descent is the sign of w(alpha_i), computed as a full matrix-vector product
on the unit vector alpha_i; a strip step is the full product w·s_j; and a
double-coset representative is an element of W^R with no left descent in
L, that is, no right descent of its inverse G^{-1}·w^T·G.  W^R itself comes
from the library's orbit walk, which the reference shares, so the tests
below check the dominance filter that replaced the descent filter.  The
references are kept here only as oracles.
"""

import itertools
import random

import pytest

from leafatlas import (
    ParabolicSubgroup,
    build_root_system,
    enumerate_weyl,
    minimal_coset_reps,
    reduced_word,
)
from leafatlas.linalg import matvec
from leafatlas.weyl import WeylElement, inverse_element

# ---------------------------------------------------------------------------
# reference implementations, copied from the replaced code


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reference_right_descent(rs, w, indices):
    """i with l(w·s_i) < l(w): holds iff w(alpha_i) is negative."""
    for i in sorted(indices):
        img = matvec(w.matrix, rs.simple_roots[i])
        if all(x <= 0 for x in img):
            return i
    return None


def reference_strip(rs, w, indices):
    word = []
    cur = w
    while (j := reference_right_descent(rs, cur, indices)) is not None:
        cur = WeylElement(_matmul(cur.matrix, rs.reflections[j]), cur.length - 1)
        word.append(j)
    return cur, word


def reference_reduced_word(rs, w):
    rest, word = reference_strip(rs, w, range(rs.rank))
    if rest.length:
        raise AssertionError("non-identity element without right descent")
    return tuple(reversed(word))


def reference_left_descent(rs, w, indices):
    if not indices:
        return None
    return reference_right_descent(rs, inverse_element(rs, w), indices)


def reference_double_coset_reps(rs, left, right):
    """The elements of W^R with no left descent in L."""
    reps = minimal_coset_reps(rs, ParabolicSubgroup.of(()), right)
    return tuple(w for w in reps if reference_left_descent(rs, w, left.generators) is None)


# ---------------------------------------------------------------------------


def _pairs(elements):
    return [(w.matrix, w.length) for w in elements]


def _subsets(rank):
    return [
        ParabolicSubgroup.of(s)
        for k in range(rank + 1)
        for s in itertools.combinations(range(rank), k)
    ]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4"])
def test_reduced_word_matches_reference_on_every_element(label):
    rs = build_root_system(label)
    for w in enumerate_weyl(rs):
        assert reduced_word(rs, w) == reference_reduced_word(rs, w), w


RANK3 = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xA1", "A2+T1"]


@pytest.mark.parametrize("label", RANK3)
def test_double_coset_reps_match_reference_on_every_pair(label):
    rs = build_root_system(label)
    subsets = _subsets(rs.rank)
    for left, right in itertools.product(subsets, repeat=2):
        got = minimal_coset_reps(rs, left, right)
        assert _pairs(got) == _pairs(reference_double_coset_reps(rs, left, right)), (left, right)


# (label, number of sampled (L, R) pairs); an E6 pair costs the reference about
# a second, one inverse per element of W^R
SAMPLED = [("D4", 24), ("F4", 12), ("E6", 3)]


@pytest.mark.parametrize("label,pairs", SAMPLED)
def test_double_coset_reps_match_reference_on_sampled_pairs(label, pairs):
    rs = build_root_system(label)
    subsets = _subsets(rs.rank)
    rng = random.Random(f"double-coset-{label}")
    for _ in range(pairs):
        left, right = rng.choice(subsets), rng.choice(subsets)
        got = minimal_coset_reps(rs, left, right)
        assert _pairs(got) == _pairs(reference_double_coset_reps(rs, left, right)), (left, right)
