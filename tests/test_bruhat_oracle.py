"""The integer Bruhat core against its Fraction reference.

`typea._bruhat_core` runs one fraction-free elimination on the row-scaled
integer copy of g, reads p1 and m·p2 off it, and applies the signed
permutations by index.  The reference in ``helpers`` eliminates rows and
columns in `Fraction` arithmetic and multiplies by the permutation matrices.
Both must give the same (p1, wdot, p2, w_min), and `bruhat_decompose` the
same factors as the reference decomposition, in both orientations.

The inputs are det-one matrices of two kinds: D·A for a random integer A
and a diagonal D whose entries all have different denominators, so every
row of g has its own scale; and u1·t·wdot·u2 for unitriangular rational
u1, u2, a diagonal t and a signed permutation wdot, so every Bruhat cell
is met.  Tier-1 draws on A1-A5; as a script it runs 200 draws per rank on
A6-A8 in both orientations and exits 1 on a mismatch:

    python tests/test_bruhat_oracle.py
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import pytest

from helpers import monomial_weyl, reference_bruhat_core
from leafatlas import build_root_system
from leafatlas.linalg import det, matmul, transpose
from leafatlas.typea import (
    MatrixElement,
    ParabolicBlocks,
    _bruhat_core,
    bruhat_decompose,
    perm_to_weyl,
    wdot_matrix,
)

# denominators for the row scales of D·A: primes above every |entry| of A
# and every numerator of D, so row i of D·A has the scale DENOMINATORS[k_i]
DENOMINATORS = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def _flip(m):
    """J·m·J for the antidiagonal J: rows and columns reversed."""
    return tuple(row[::-1] for row in reversed(m))


def _scaled_draw(rng, size):
    """D·A with A a random integer matrix of nonzero determinant and D a
    diagonal of determinant 1/det A whose entries have distinct
    denominators, so no two rows share a scale."""
    while True:
        a = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        da = det(a)
        if da:
            break
    dens = rng.sample(DENOMINATORS, size)
    diag = [Fraction(rng.choice([-3, -1, 1, 2]), q) for q in dens[:-1]]
    # the last entry fixes the determinant, and its denominator is free
    diag.append(1 / (da * prod(diag, start=Fraction(1))))
    return tuple(tuple(x * y for y in row) for x, row in zip(diag, a))


def _unitriangular(rng, size):
    return [
        [Fraction(int(r == c) or (Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if r < c else 0))
         for c in range(size)]
        for r in range(size)
    ]


def _cell_draw(rng, perm):
    """u1·t·wdot·u2 in the Bruhat cell of perm: unitriangular u1, u2 with
    rational entries and a det-one diagonal t."""
    size = len(perm)
    wd = wdot_matrix(perm_to_weyl(build_root_system(f"A{size - 1}"), perm))
    diag = [Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 5)) for _ in range(size - 1)]
    diag.append(1 / prod(diag, start=Fraction(1)))
    t = [[diag[r] if r == c else Fraction(0) for c in range(size)] for r in range(size)]
    u1, u2 = _unitriangular(rng, size), _unitriangular(rng, size)
    return matmul(matmul(matmul(u1, t), wd), u2)


def _blocks(rng, n):
    return tuple(i for i in range(n) if rng.random() < 0.4)


def _reference_decompose(g, lower, left, right):
    """bruhat_decompose over the reference core: the lower orientation flips
    g, and wd^T·wd_raw folds the sign convention into p2 as a product."""
    if not lower:
        return reference_bruhat_core(g, left, right)[:3]
    size = len(g)
    rev = lambda s: frozenset(size - 2 - i for i in s)
    p1j, wdj, p2j, _ = reference_bruhat_core(_flip(g), rev(left), rev(right))
    p1, wd_raw, p2 = _flip(p1j), _flip(wdj), _flip(p2j)
    wd = wdot_matrix(monomial_weyl(wd_raw))
    return p1, wd, matmul(matmul(transpose(wd), wd_raw), p2)


def mismatches(g, left, right) -> list[str]:
    """What differs between the integer core and the reference on g, for the
    upper and the lower orientation of the blocks left, right."""
    size, bad = len(g), []
    element = MatrixElement(g, "group")
    for lower, blocks in ((False, ParabolicBlocks.upper), (True, ParabolicBlocks.lower_of)):
        # the lower orientation runs the core on J·g·J with the blocks reversed
        rev = (lambda s: frozenset(size - 2 - i for i in s)) if lower else frozenset
        h = _flip(g) if lower else g
        if _bruhat_core(h, rev(left), rev(right)) != reference_bruhat_core(h, rev(left), rev(right)):
            bad.append(f"core ({blocks.__name__})")
        got = tuple(m.entries for m in bruhat_decompose(element, blocks(left), blocks(right)))
        if got != _reference_decompose(g, lower, left, right):
            bad.append(f"factors ({blocks.__name__})")
    return bad


def _draws(n, count, seed):
    """count seeded (g, left, right) on A_n: D·A and cell draws alternate."""
    rng = random.Random(seed)
    size = n + 1
    for k in range(count):
        if k % 2:
            g = _cell_draw(rng, rng.sample(range(size), size))
        else:
            g = _scaled_draw(rng, size)
        yield g, _blocks(rng, n), _blocks(rng, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_integer_core_matches_the_reference(n):
    for g, left, right in _draws(n, 16, seed=100 + n):
        assert mismatches(g, left, right) == [], (g, left, right)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_core_matches_the_reference_in_every_cell(n):
    rng = random.Random(200 + n)
    for perm in permutations(range(n + 1)):
        g = _cell_draw(rng, perm)
        left, right = _blocks(rng, n), _blocks(rng, n)
        assert mismatches(g, left, right) == [], (perm, left, right)


def test_scaled_draws_have_a_distinct_scale_per_row():
    # unlike a draw that scales row 0 only, every row but the last (which
    # fixes the determinant) has its own prime as the lcm of its denominators
    for n in range(1, 6):
        for g, _, _ in list(_draws(n, 16, seed=100 + n))[::2]:
            scales = [lcm(*(x.denominator for x in row)) for row in g[:-1]]
            assert len(set(scales)) == n and set(scales) <= set(DENOMINATORS), scales


if __name__ == "__main__":
    failed = False
    for n in range(6, 9):
        start = time.perf_counter()
        bad = [(g, left, right, m) for g, left, right in _draws(n, 200, seed=300 + n)
               if (m := mismatches(g, left, right))]
        for g, left, right, m in bad:
            print(f"A{n} {left} {right}: {', '.join(m)} differ on {g}")
        took = time.perf_counter() - start
        print(f"A{n}: {200 - len(bad)}/200 draws match in both orientations ({took:.1f} s)")
        failed = failed or bool(bad)
    sys.exit(1 if failed else 0)
