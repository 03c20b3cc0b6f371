"""Weyl group arithmetic: elements, lengths, parabolic subgroups, and
minimal-length (double) coset representatives.

Elements are integer matrices acting on simple-root coordinates; the torus
block is fixed pointwise.  Every decision reads the integer simple-reflection
matrices and the inverse Gram matrix stored on the RootSystem.  Descents are
sign reads: w has a right descent at i when column i of w, w(alpha_i), is
negative.  W, W_J and the minimal coset representatives W^J are each one BFS
over a Weyl orbit in fundamental-weight coordinates, with lengths as BFS
depths and a bound on the set's size (env var LEAFATLAS_WEYL_BOUND, default
10^6), checked before the walk from Macdonald's product over positive roots;
the double-coset representatives W_L\\W/W_R are the orbit points of W^R that
are dominant for L.  Lengths, reduced words and decompose_min strip right
descents, each step w·s_j a column update.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import prod

from .linalg import matmul, matvec, transpose
from .rootsys import RootSystem, levi_roots

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
    """m with its length: the number of right descents stripped to reach e."""
    return WeylElement(matrix=m, length=len(_strip(rs, m, range(rs.rank))[1]))


def weyl_identity(rs: RootSystem) -> WeylElement:
    n = rs.cartan_rank
    return WeylElement(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 0)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return WeylElement(matrix=rs.reflections[i], length=1)


def compose(rs: RootSystem, a: WeylElement, b: WeylElement) -> WeylElement:
    return make_element(rs, matmul(a.matrix, b.matrix))


def inverse_element(rs: RootSystem, w: WeylElement) -> WeylElement:
    """G^{-1}·w^T·G: w preserves the invariant form G.

    The product runs on the integer-scaled G and G^{-1} stored on rs and is
    divided by their scale once, at the end.
    """
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
    """One element of W_I (I = indices) per point of the W_I-orbit of the
    dominant weight lam in fundamental-weight coordinates, ordered by matrix,
    keeping the points with no negative coordinate in dominant.  For lam =
    sum of the omega_i with i not in J, these are W^J, and s_i·w < w for w
    in W^J exactly when mu_i < 0 (Deodhar's lemma).  s_i steps from mu only
    when mu_i > 0: that lengthens the element by one and still reaches every
    point, so the length is the BFS depth.  The orbit's size, |W_I| over the
    stabilizer's order, is checked against the bound before the walk."""
    bound = _weyl_bound()
    if _orbit_size(rs, indices, (i for i in indices if lam[i] == 0)) > bound:
        raise ValueError(f"Weyl enumeration exceeded bound {bound}")
    # s_i differs from the identity only in row i, and alpha_i has the weight
    # coordinates <alpha_i, alpha_j^vee> = delta_ij - (s_j)_ji
    gens = []
    for i in sorted(indices):
        alpha = [int(i == j) - rs.reflections[j][j][i] for j in range(rs.rank)]
        gens.append((i, simple_reflection(rs, i).matrix[i], alpha))
    found = {tuple(lam): weyl_identity(rs)}
    frontier = list(found)
    while frontier:
        nxt = []
        for mu in frontier:
            w = found[mu]
            cols = tuple(zip(*w.matrix))
            for i, s_row, alpha in gens:
                if mu[i] > 0:
                    nu = tuple(x - mu[i] * a for x, a in zip(mu, alpha))
                    if nu not in found:
                        # row i of s_i·w; the other rows are those of w
                        row = tuple(sum(c * x for c, x in zip(s_row, col)) for col in cols)
                        m = w.matrix[:i] + (row,) + w.matrix[i + 1 :]
                        found[nu] = WeylElement(m, w.length + 1)
                        nxt.append(nu)
        frontier = nxt
    kept = (w for mu, w in found.items() if all(mu[i] >= 0 for i in dominant))
    return tuple(sorted(kept, key=lambda w: w.matrix))


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


def left_descent(rs: RootSystem, w: WeylElement, indices) -> int | None:
    """i with l(s_i·w) < l(w): a right descent of w^{-1}."""
    return right_descent(rs, inverse_element(rs, w), indices) if indices else None


def right_descent(rs: RootSystem, w: WeylElement, indices) -> int | None:
    """i with l(w·s_i) < l(w): holds iff w(alpha_i), column i of w, is negative."""
    return _descent(w.matrix, indices)


def _descent(m: IntMatrix, indices) -> int | None:
    return next((i for i in sorted(indices) if all(row[i] <= 0 for row in m)), None)


def _right_step(rs: RootSystem, m: IntMatrix, j: int) -> IntMatrix:
    """m·s_j.  s_j differs from the identity only in row j, so column k of m
    gains (s_j)_jk - delta_jk = -<alpha_k, alpha_j^vee> times column j: -2 for
    k = j, nonzero only for the Dynkin neighbours k of j otherwise."""
    coef = [(k, c - (k == j)) for k, c in enumerate(rs.reflections[j][j]) if c != (k == j)]
    rows = [list(row) for row in m]
    for r, row in zip(rows, m):
        for k, c in coef:
            r[k] += c * row[j]
    return tuple(map(tuple, rows))


def minimal_coset_reps(
    rs: RootSystem, left: ParabolicSubgroup, right: ParabolicSubgroup
) -> tuple[WeylElement, ...]:
    """Unique minimal-length representatives of the double cosets W_L\\W/W_R.

    W^R is the orbit of the sum of the fundamental weights outside R; a
    representative is a point of it that is dominant for L.
    """
    lam = tuple(int(i not in right.generators) for i in range(rs.rank))
    return _orbit(rs, range(rs.rank), lam, left.generators)


def _strip(rs: RootSystem, m: IntMatrix, indices) -> tuple[IntMatrix, list[int]]:
    """Remove right descents in indices, smallest first, one at a time: the
    matrix x and the word [j1, ..., jk] with m = x·s_jk·...·s_j1 reduced."""
    word: list[int] = []
    while (j := _descent(m, indices)) is not None:
        m = _right_step(rs, m, j)
        word.append(j)
    return m, word


def decompose_min(
    rs: RootSystem,
    u: WeylElement,
    left: ParabolicSubgroup,
    right: ParabolicSubgroup,
) -> tuple[WeylElement, WeylElement, WeylElement]:
    """Write u = w1·w·w2 with additive lengths.

    w is the minimal double-coset representative, w1 the minimal
    representative of its coset modulo the absorbing parabolic
    W_L ∩ w·W_R·w^{-1}, w2 in the right parabolic subgroup.  The
    decomposition is unique.  Stripping u on the right by R gives
    u = x·w2 with x in W^R; stripping x^{-1} on the right by L gives
    x = w1·w.  Left descents keep x in W^R, and Kilmoyer's theorem makes
    w1 minimal modulo the absorbing parabolic (Björner–Brenti §2.4).
    """
    x, word2 = _strip(rs, u.matrix, right.generators)
    x_inv = inverse_element(rs, WeylElement(x, u.length - len(word2)))
    w_inv, word1 = _strip(rs, x_inv.matrix, left.generators)
    w = inverse_element(rs, WeylElement(w_inv, x_inv.length - len(word1)))
    w1 = WeylElement(matmul(x, w_inv), len(word1))
    w2 = WeylElement(matmul(x_inv.matrix, u.matrix), len(word2))
    if right_descent(rs, w, right.generators) is not None:
        raise AssertionError("decompose_min representative left W^R")
    if matmul(matmul(w1.matrix, w.matrix), w2.matrix) != u.matrix:
        raise AssertionError("decompose_min product mismatch")
    return w1, w, w2


def reduced_word(rs: RootSystem, w: WeylElement, memo: dict | None = None) -> tuple[int, ...]:
    """A reduced word (s_{i1}·...·s_{il} = w), chosen deterministically.

    The strip removes the smallest right descent j first, so word(m) =
    word(m·s_j) + (j,).  Callers with many elements of one root system pass
    one memo dict to every call (None is a fresh one): it keeps the word of
    every matrix a strip passes, and a call strips only down to a known matrix.
    """
    if memo is None:
        memo = {}
    path, m = [], w.matrix
    while m not in memo and (j := _descent(m, range(rs.rank))) is not None:
        path.append((m, j))
        m = _right_step(rs, m, j)
    word = memo.get(m, ())
    for m, j in reversed(path):
        word = memo[m] = word + (j,)
    if len(word) != w.length:
        raise AssertionError("reduced word is not as long as the element")
    return word
