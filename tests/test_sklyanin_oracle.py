"""Leaf dimensions of the standard triple against the rank of the Poisson
bivector at a point of each record's cell.

Translated back to the identity, the bivector at g is r - (Ad g ⊗ Ad g)(r)
for r = realize_r(n, triple, r0), and its rank is the dimension of the
symplectic leaf through g (Semenov-Tian-Shansky, Publ. RIMS 21 (1985)).
Over the matrix units of each leg, index (i, j) -> i·N + j with N = n + 1,
r is an N²×N² matrix R, Ad g is A[(k, l), (i, j)] = g[k][i]·g⁻¹[j][l], and
the bivector is R - A·R·Aᵀ.

On the standard triple a record (v1, v2) names the double Bruhat cell
G^{v1, v2⁻¹}, on which the leaf dimension is constant (Hoffmann–
Kellendonk–Kutz–Reshetikhin, CMP 212 (2000)).  A point of the cell is
g = y_{i1}(t1)⋯y_{il}(tl)·h·x_{jm}(s1)⋯x_{j1}(sm) along the reduced words
(i1…il) of v1 and (j1…jm) of v2, with y_i(t) = 1 + t·E_{i+1,i},
x_i(t) = 1 + t·E_{i,i+1}, h diagonal of determinant 1, and seeded nonzero
integers t, s (Fomin–Zelevinsky, JAMS 12 (1999)).  Ranks are taken with
sympy, so the oracle shares no elimination with leafatlas.linalg.

Tier-1 checks A1, A2 and every 12th A3 record.  As a script it checks all
576 A3 records and exits 1 on a mismatch:

    python tests/test_sklyanin_oracle.py
"""

import random
import sys
from fractions import Fraction
from math import prod

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from leafatlas import (
    build_root_system,
    classify_g,
    compute_decomposition,
    realize_r,
    reduced_word,
    solve_r0,
    validate_triple,
)


def _dm(rows) -> DomainMatrix:
    """The matrix of int or Fraction rows over sympy's rationals."""
    entries = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), QQ)


def _elementary(size: int, i: int, j: int, t: int) -> DomainMatrix:
    """1 + t·E_ij."""
    return _dm([[(a == b) + t * ((a, b) == (i, j)) for b in range(size)] for a in range(size)])


def _cell_point(n: int, word1, word2, rng: random.Random) -> DomainMatrix:
    """A point of G^{v1, v2⁻¹} in SL(n + 1) for reduced words of v1 and v2."""
    size = n + 1

    def nonzero():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    g = DomainMatrix.eye(size, QQ)
    for i in word1:
        g = g * _elementary(size, i + 1, i, nonzero())
    h = [Fraction(nonzero()) for _ in range(n)]
    h.append(1 / prod(h))
    g = g * _dm([[h[a] if a == b else 0 for b in range(size)] for a in range(size)])
    for j in reversed(word2):
        g = g * _elementary(size, j, j + 1, nonzero())
    return g


def bivector_rank(r_matrix: DomainMatrix, g: DomainMatrix) -> int:
    """rank(R - A·R·Aᵀ) for A the matrix of Ad g on the matrix units."""
    size = g.shape[0]
    gl, gi = g.to_list(), g.inv().to_list()
    ad = [
        [gl[k][i] * gi[j][l] for i in range(size) for j in range(size)]
        for k in range(size)
        for l in range(size)
    ]
    a = DomainMatrix(ad, (size * size, size * size), QQ)
    return (r_matrix - a * r_matrix * a.transpose()).rank()


def r_matrix(n: int, triple, r0) -> DomainMatrix:
    """The N²×N² matrix R of realize_r(n, triple, r0) over the matrix units."""
    size = n + 1
    rows = [[0] * size**2 for _ in range(size**2)]
    for ((i, j), (k, l)), c in realize_r(n, triple, r0).coefficients.items():
        rows[i * size + j][k * size + l] = c
    return _dm(rows)


def standard_mismatches(n: int, step: int = 1, seed: int = 0):
    """Every step-th classify_g record of A_n with the standard triple and
    the canonical r0, checked at one point of its cell: the number checked
    and the (v1 word, v2 word, leaf_dim, rank) of each record that differs."""
    rs = build_root_system(f"A{n}")
    triple = validate_triple(rs, (), (), {})
    r0 = solve_r0(rs, triple, "canonical")
    records = classify_g(rs, triple, compute_decomposition(rs, triple, r0))[::step]
    r = r_matrix(n, triple, r0)
    rng, bad = random.Random(seed), []
    for rec in records:
        word1, word2 = reduced_word(rs, rec.v1), reduced_word(rs, rec.v2)
        got = bivector_rank(r, _cell_point(n, word1, word2, rng))
        if got != rec.leaf_dim.at(0):
            bad.append((word1, word2, str(rec.leaf_dim), got))
    return len(records), bad


@pytest.mark.parametrize("n, step, count", [(1, 1, 4), (2, 1, 36), (3, 12, 48)])
def test_standard_leaf_dim_is_the_bivector_rank_on_its_cell(n, step, count):
    assert standard_mismatches(n, step) == (count, [])


if __name__ == "__main__":
    checked, mismatches = standard_mismatches(3)
    for word1, word2, dim, got in mismatches:
        print(f"v1={word1} v2={word2}: leaf_dim {dim}, bivector rank {got}")
    print(f"A3 standard triple: {checked - len(mismatches)}/{checked} records match")
    sys.exit(1 if mismatches else 0)
