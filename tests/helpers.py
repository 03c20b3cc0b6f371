"""Small helpers shared by several test modules.

Only tests call these, so they live here rather than in the package.
"""

from __future__ import annotations

from fractions import Fraction

from leafatlas.linalg import Lattice, matvec, smith_normal_form


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


def assert_simple_generated(rs, root_set):
    """Raise unless every simple root in the support of a positive root of
    root_set is itself in root_set."""
    members = set(root_set)
    for a in root_set:
        if not all(x >= 0 for x in a):
            continue
        for t, x in enumerate(a):
            if x != 0 and rs.simple_roots[t] not in members:
                raise AssertionError(
                    "stable root set is not generated by its simple roots"
                )


# ---------------------------------------------------------------------------
# lattice intersection through an integer kernel: an oracle for sigma_group,
# which gets the same quotient from a lattice sum


def integer_kernel(a) -> list[list[int]]:
    """Basis of the integer solution lattice of a·x = 0, read off the
    columns of V in a Smith form U·a·V = D."""
    rows = [[int(x) for x in row] for row in a]
    n = len(rows[0]) if rows else 0
    if n == 0:
        return []
    _, d, v = smith_normal_form(rows)
    m = len(rows)
    kernel = []
    for j in range(n):
        diag = d[j][j] if j < min(m, n) else 0
        if diag == 0:
            kernel.append([v[i][j] for i in range(n)])
    return kernel


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    """a ∩ b: the kernel of [A | -B] gives the A-coordinates of its vectors."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.rank == 0 or b.rank == 0:
        return Lattice(a.ambient)
    stacked = [list(x) + [-y for y in z] for x, z in zip(a.basis, b.basis)]
    cols = [matvec(a.basis, k[: a.rank]) for k in integer_kernel(stacked)]
    return Lattice(a.ambient, cols)
