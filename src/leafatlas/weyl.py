"""Weyl group arithmetic: elements, lengths, parabolic subgroups, and
minimal-length (double) coset representatives.

Elements are integer matrices acting on simple-root coordinates, fixing the
torus block.  W, W_J and W^J are each one BFS over a Weyl orbit in
fundamental-coweight coordinates, with BFS depths as lengths and a size bound
(env var LEAFATLAS_WEYL_BOUND, default 10^6) checked first by Macdonald's
product; W_L\\W/W_R is the part of W^R dominant for L.  Descents are sign
reads of the height row 1·w (entry i is the height of w(alpha_i)) or 1·w^{-1};
lengths, reduced words and decompose_min strip right descents off height
rows.  All steps read the sparse table RootSystem.neighbours.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import prod
from itertools import repeat
from operator import add, attrgetter, mul, neg

from .linalg import matmul, matvec, transpose
from .rootsys import RootSystem, _off_diagonal, levi_roots

__all__ = [
    "WeylElement",
    "ParabolicSubgroup",
    "enumerate_weyl",
    "minimal_coset_reps",
    "decompose_min",
    "simple_reflection",
    "weyl_identity",
    "compose",
    "inverse_element",
    "reduced_word",
]

IntMatrix = tuple[tuple[int, ...], ...]

DEFAULT_BOUND = 10**6


@dataclass(frozen=True)
class WeylElement:
    """Integer matrix on root coordinates with its cached length."""

    matrix: IntMatrix
    length: int

    def __call__(self, v) -> tuple[int, ...]:
        return matvec(self.matrix, v)


def make_element(rs: RootSystem, m: IntMatrix) -> WeylElement:
    """m with its length: the number of right descents stripped off 1·m."""
    return WeylElement(matrix=m, length=len(_descend(rs, _heights(m), range(rs.rank))[0]))


def weyl_identity(rs: RootSystem) -> WeylElement:
    n = rs.cartan_rank
    return WeylElement(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 0)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return WeylElement(matrix=rs.reflections[i], length=1)


def compose(rs: RootSystem, a: WeylElement, b: WeylElement) -> WeylElement:
    return make_element(rs, matmul(a.matrix, b.matrix))


def inverse_element(rs: RootSystem, w: WeylElement) -> WeylElement:
    """G^{-1}·w^T·G (w preserves the form G) on the integer-scaled forms."""
    m = matmul(rs.gram_inverse_int, matmul(transpose(w.matrix), rs.gram_int))
    q = rs.gram_int_scale
    if any(x % q for row in m for x in row):
        raise AssertionError("inverse of a Weyl element is not an integer matrix")
    return WeylElement(tuple(tuple(x // q for x in row) for row in m), w.length)


def _weyl_bound() -> int:
    raw = os.environ.get("LEAFATLAS_WEYL_BOUND")
    if not raw:
        return DEFAULT_BOUND
    if not (raw.isdecimal() and int(raw) > 0):
        raise ValueError(f"LEAFATLAS_WEYL_BOUND must be a positive integer, got {raw!r}")
    return int(raw)


def _orbit_size(rs: RootSystem, indices, fixed) -> int:
    """|W_I / W_F| for I = indices and F = fixed, a subset of I: the product
    of (ht a + 1)/ht a over the positive roots a of I that are not roots of
    F, Macdonald's product for |W_I| divided by the one for |W_F|."""
    roots = set(levi_roots(rs, indices)) - set(levi_roots(rs, fixed))
    heights = [sum(a) for a in roots if sum(a) > 0]
    return prod(h + 1 for h in heights) // prod(heights)


def _orbit(rs: RootSystem, indices, lam, dominant=()) -> tuple[WeylElement, ...]:
    """One element of W_I (I = indices) per point of the W_I-orbit of the dominant
    coweight lam in fundamental-coweight coordinates, ordered by matrix, keeping the
    points with no negative coordinate in dominant.  For lam = sum of the omega_i^vee
    with i not in J, these are W^J, and s_i·w < w for w in W^J exactly when mu_i < 0
    (Deodhar's lemma).  s_i steps from mu only when mu_i > 0: that lengthens the
    element by one and still reaches every point, so the length is the BFS depth;
    the weight with lam's coordinates gives the same elements."""
    bound = _weyl_bound()
    if _orbit_size(rs, indices, (i for i in indices if lam[i] == 0)) > bound:
        raise ValueError(f"Weyl enumeration exceeded bound {bound}")
    # s_i·mu has the coweight coordinates mu·s_i; steps are the off-diagonal
    # nonzeros c = (s_i)_ik of row i of s_i
    gens = [(i, _off_diagonal(simple_reflection(rs, i).matrix[i], i)) for i in sorted(indices)]
    found = {tuple(lam): weyl_identity(rs)}
    frontier = list(found)
    while frontier:
        nxt = []
        for mu in frontier:
            w = found[mu]
            for i, steps in gens:
                if mu[i] > 0 and (nu := _times_s(mu, i, steps)) not in found:
                    found[nu] = WeylElement(_left_step(w.matrix, i, steps), w.length + 1)
                    nxt.append(nu)
        frontier = nxt
    kept = (w for mu, w in found.items() if all(mu[i] >= 0 for i in dominant))
    return tuple(sorted(kept if dominant else found.values(), key=attrgetter("matrix")))


def enumerate_weyl(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, ordered lexicographically by matrix: the
    orbit of rho, whose stabilizer is trivial."""
    return _orbit(rs, range(rs.rank), (1,) * rs.rank)


@dataclass(frozen=True)
class ParabolicSubgroup:
    """Standard parabolic subgroup given by a set of simple-root indices."""

    generators: frozenset[int]

    @staticmethod
    def of(indices) -> "ParabolicSubgroup":
        return ParabolicSubgroup(generators=frozenset(indices))


def _simple_indices(rs: RootSystem, indices) -> list[int]:
    """indices sorted, after checking that each names a simple root."""
    out = sorted(indices)
    if bad := [i for i in out if not 0 <= i < rs.rank]:
        raise ValueError(f"{rs.type_label} has no simple root {bad[0]}, only 0..{rs.rank - 1}")
    return out


def left_descent(rs: RootSystem, w: WeylElement, indices) -> int | None:
    """i with l(s_i·w) < l(w): w^{-1}(alpha_i) < 0, a negative entry i of 1·w^{-1}."""
    return _negative(_inverse_heights(rs, w.matrix), _simple_indices(rs, indices))


def right_descent(rs: RootSystem, w: WeylElement, indices) -> int | None:
    """i with l(w·s_i) < l(w): w(alpha_i) < 0, a negative entry i of 1·w."""
    return _negative(_heights(w.matrix), _simple_indices(rs, indices))


def _heights(m: IntMatrix) -> tuple[int, ...]:
    """The height row 1·m: entry i is the height of the root m(alpha_i)."""
    return tuple(map(sum, zip(*m)))


def _inverse_heights(rs: RootSystem, m: IntMatrix) -> tuple[int, ...]:
    """1·m^{-1} = (1·G^{-1})·m^T·G on the integer-scaled (symmetric) forms."""
    q = rs.gram_int_scale
    return tuple(x // q for x in matvec(rs.gram_int, matvec(m, _heights(rs.gram_inverse_int))))


def _negative(h: tuple[int, ...], indices) -> int | None:
    return next((i for i in indices if h[i] < 0), None)


def _times_s(row: tuple[int, ...], j: int, steps) -> tuple[int, ...]:
    """row·s_j for steps = rs.neighbours[j]: s_j is the identity outside row
    j, so entry j changes sign and entry k gains c times it per (k, c)."""
    x, out = row[j], list(row)
    out[j] = -x
    for k, c in steps:
        out[k] += c * x
    return tuple(out)


def _right_step(rs: RootSystem, m: IntMatrix, j: int) -> IntMatrix:
    """m·s_j, one row at a time."""
    return tuple(_times_s(row, j, rs.neighbours[j]) for row in m)


def _left_step(m: IntMatrix, i: int, steps) -> IntMatrix:
    """s_i·m for steps = rs.neighbours[i]: row i becomes -(row i) + c·(row k) per (k, c)."""
    row = map(neg, m[i])
    for k, c in steps:
        row = map(add, row, map(mul, repeat(c), m[k]))
    return m[:i] + (tuple(row),) + m[i + 1 :]


def _descend(rs: RootSystem, h: tuple[int, ...], indices, known=()) -> tuple[list, tuple[int, ...]]:
    """Strip right descents in indices (sorted), smallest first, off h = 1·w until none
    is left or h is in known: [(h, j), ...] per step (w·s_j has the row h·s_j), last h."""
    path = []
    while h not in known and (j := _negative(h, indices)) is not None:
        path.append((h, j))
        h = _times_s(h, j, rs.neighbours[j])
    return path, h


def minimal_coset_reps(
    rs: RootSystem, left: ParabolicSubgroup, right: ParabolicSubgroup
) -> tuple[WeylElement, ...]:
    """Unique minimal-length representatives of the double cosets W_L\\W/W_R.

    W^R is the orbit of the sum of the fundamental coweights outside R; a
    representative is a point of it that is dominant for L.
    """
    right_set = _simple_indices(rs, right.generators)
    lam = tuple(int(i not in right_set) for i in range(rs.rank))
    return _orbit(rs, range(rs.rank), lam, _simple_indices(rs, left.generators))


def decompose_min(
    rs: RootSystem, u: WeylElement, left: ParabolicSubgroup, right: ParabolicSubgroup
) -> tuple[WeylElement, WeylElement, WeylElement]:
    """Write u = w1·w·w2 with additive lengths.

    w is the minimal double-coset representative, w1 the minimal representative of its
    coset modulo the absorbing parabolic W_L ∩ w·W_R·w^{-1}, w2 in the right parabolic
    subgroup; the decomposition is unique.  Stripping 1·u of right descents in R gives
    u = x·w2 with x in W^R; stripping 1·x^{-1} of those in L (left descents of x) gives
    x = w1·w.  Left descents keep x in W^R, and Kilmoyer's theorem makes w1 minimal
    modulo the absorbing parabolic (Björner–Brenti §2.4).
    """
    e = weyl_identity(rs).matrix
    path2, _ = _descend(rs, _heights(u.matrix), _simple_indices(rs, right.generators))
    x, w2 = u.matrix, e
    for _, j in path2:
        x, w2 = _right_step(rs, x, j), _left_step(w2, j, rs.neighbours[j])
    path1, _ = _descend(rs, _inverse_heights(rs, x), _simple_indices(rs, left.generators))
    m, w1 = x, e
    for _, i in path1:
        m, w1 = _left_step(m, i, rs.neighbours[i]), _right_step(rs, w1, i)
    w = WeylElement(m, u.length - len(path1) - len(path2))
    w1, w2 = WeylElement(w1, len(path1)), WeylElement(w2, len(path2))
    if right_descent(rs, w, right.generators) is not None:
        raise AssertionError("decompose_min representative left W^R")
    if matmul(matmul(w1.matrix, w.matrix), w2.matrix) != u.matrix:
        raise AssertionError("decompose_min product mismatch")
    return w1, w, w2


def reduced_word(rs: RootSystem, w: WeylElement, memo: dict | None = None) -> tuple[int, ...]:
    """A reduced word (s_{i1}·...·s_{il} = w), chosen deterministically.

    The strip removes the smallest right descent j off 1·w first, so word(w)
    = word(w·s_j) + (j,).  Callers with many elements of one root system
    pass one memo dict to every call, keyed by the height rows a strip
    passes (1·w determines w), and a call strips only down to a known row.
    """
    path, h = _descend(rs, _heights(w.matrix), range(rs.rank), () if memo is None else memo)
    word = (memo.get(h, ()) if memo else ()) + tuple(j for _, j in reversed(path))
    if len(word) != w.length:
        raise AssertionError("reduced word is not as long as the element")
    if memo is not None:
        memo.update((h, word[: len(word) - t]) for t, (h, _) in enumerate(path))
    return word
