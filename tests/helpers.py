"""Small helpers shared by several test modules.

Only tests call these, so they live here rather than in the package.
"""

from __future__ import annotations

from fractions import Fraction


def in_parabolic(rs, w, p) -> bool:
    """Membership of the Weyl element w in the standard parabolic subgroup
    p: all inversions of w lie in the parabolic subsystem."""
    gens = p.generators
    for alpha in rs.positive_roots:
        img = w(alpha)
        if all(x <= 0 for x in img):
            if any(alpha[t] != 0 for t in range(len(alpha)) if t not in gens):
                return False
    return True


def element_length(rs, m) -> int:
    """Count of positive roots mapped to negative roots: the length of the
    Weyl element with matrix m, by its definition."""
    return sum(
        1 for alpha in rs.positive_roots
        if all(sum(r * a for r, a in zip(row, alpha)) <= 0 for row in m)
    )


def coroot_matrix(size: int, i: int):
    """E_ii - E_{i+1,i+1} in sl(size), as a Fraction matrix."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[i][i] = Fraction(1)
    rows[i + 1][i + 1] = Fraction(-1)
    return tuple(tuple(r) for r in rows)


def unit_matrix(size: int, i: int, j: int):
    """The matrix unit E_ij in gl(size), as a Fraction matrix."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[i][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)
