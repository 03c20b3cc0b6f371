"""The Weyl-group kernel against the implementations it replaced.

The reference functions below are the former ``weyl`` and ``rootsys``
code: simple reflections built from Fraction pairings with the Gram
matrix, the inverse as a power of w, the left descent as a recount of
l(s_i·w), and the length as a count of inverted positive roots.  They are
kept here only as oracles, so that the stored reflection matrices, the
Gram-adjoint inverse G^{-1}·w^T·G, descents as sign tests and lengths as
BFS depths are each checked against a definition that does not use them.
"""

from __future__ import annotations

import pytest

from helpers import reflect
from leafatlas import build_root_system, enumerate_weyl
from leafatlas.rootsys import form_pairing
from leafatlas.weyl import (
    inverse_element,
    left_descent,
    right_descent,
    simple_reflection,
)

# ---------------------------------------------------------------------------
# reference implementations, copied from the replaced code


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _apply(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def reference_reflect(rs, i, v):
    """Reflection through the i-th simple root from Fraction pairings."""
    alpha = rs.simple_roots[i]
    c = 2 * form_pairing(rs, v, alpha) / form_pairing(rs, alpha, alpha)
    if c.denominator != 1:
        raise ValueError("reflection of a non-root produced non-integer pairing")
    c = int(c)
    return tuple(int(x) - c * int(a) for x, a in zip(v, alpha))


def reference_reflection_matrix(rs, i):
    n = rs.cartan_rank
    cols = [reference_reflect(rs, i, tuple(int(t == j) for t in range(n))) for j in range(n)]
    return tuple(tuple(cols[j][t] for j in range(n)) for t in range(n))


def reference_length(rs, m):
    """Count of positive roots mapped to negative roots."""
    return sum(1 for alpha in rs.positive_roots if all(x <= 0 for x in _apply(m, alpha)))


def reference_inverse(rs, m):
    """The inverse of an integer matrix of finite order is a power of it."""
    ident = tuple(tuple(int(i == j) for j in range(rs.cartan_rank)) for i in range(rs.cartan_rank))
    prev, acc = ident, m
    while acc != ident:
        prev, acc = acc, _matmul(acc, m)
    return prev


def reference_left_descent(rs, reflections, w, indices):
    """i with l(s_i·w) < l(w), by recounting the length."""
    for i in sorted(indices):
        if reference_length(rs, _matmul(reflections[i], w.matrix)) < w.length:
            return i
    return None


# ---------------------------------------------------------------------------

KERNEL_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA1", "A2xA1", "A2+T1"]


def _check_reflections(rs):
    refs = [reference_reflection_matrix(rs, i) for i in range(rs.rank)]
    for i in range(rs.rank):
        assert simple_reflection(rs, i).matrix == refs[i]
        for alpha in rs.all_roots:
            assert reflect(rs, i, alpha) == reference_reflect(rs, i, alpha)
    return refs


@pytest.mark.parametrize("label", KERNEL_LABELS)
def test_kernel_matches_references(label):
    rs = build_root_system(label)
    refs = _check_reflections(rs)
    everything = range(rs.rank)
    for w in enumerate_weyl(rs):
        assert w.length == reference_length(rs, w.matrix)
        assert inverse_element(rs, w).matrix == reference_inverse(rs, w.matrix)
        assert left_descent(rs, w, everything) == reference_left_descent(rs, refs, w, everything)
        for i in everything:
            assert left_descent(rs, w, (i,)) == reference_left_descent(rs, refs, w, (i,))
            right = reference_length(rs, _matmul(w.matrix, refs[i])) < w.length
            assert (right_descent(rs, w, (i,)) == i) == right
        assert left_descent(rs, w, ()) is None


def test_f4_reflections_and_lengths_match_references():
    rs = build_root_system("F4")
    _check_reflections(rs)
    elements = enumerate_weyl(rs)
    assert len(elements) == 1152
    for w in elements:
        assert w.length == reference_length(rs, w.matrix)
        assert inverse_element(rs, w).matrix == reference_inverse(rs, w.matrix)


@pytest.mark.parametrize("label", KERNEL_LABELS + ["F4", "E6"])
def test_integer_scaled_gram_pair(label):
    """gram_int = s·G and gram_inverse_int = t·G^{-1}, integral, with
    gram_int_scale = s·t."""
    rs = build_root_system(label)
    s = rs.gram_int[0][0] / rs.gram[0][0]
    t = rs.gram_inverse_int[0][0] / rs.gram_inverse[0][0]
    assert s.denominator == t.denominator == 1 and s > 0 and t > 0
    assert rs.gram_int_scale == s * t
    for scaled, exact, c in ((rs.gram_int, rs.gram, s), (rs.gram_inverse_int, rs.gram_inverse, t)):
        assert all(type(x) is int for row in scaled for x in row)
        assert [[c * x for x in row] for row in exact] == [list(row) for row in scaled]


def test_reflect_rejects_wrong_dimension():
    rs = build_root_system("A2+T1")
    with pytest.raises(ValueError):
        reflect(rs, 0, (1, 0))
