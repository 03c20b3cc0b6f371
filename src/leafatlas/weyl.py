"""Weyl group arithmetic: elements, lengths, parabolic subgroups, and
minimal-length (double) coset representatives.

Elements are integer matrices acting on simple-root coordinates; the torus
block is fixed pointwise.  Descents are sign reads: w has a right descent at
i when column i of w, w(alpha_i), is negative.  W, W_J and the minimal coset
representatives W^J are each one BFS over a Weyl orbit in fundamental-coweight
coordinates, with lengths as BFS depths and a bound on the set's size (env
var LEAFATLAS_WEYL_BOUND, default 10^6), checked before the walk from
Macdonald's product over positive roots; the double-coset representatives
W_L\\W/W_R are the orbit points of W^R that are dominant for L.  Lengths,
reduced words and decompose_min strip right descents.  Both steps use the
table RootSystem.neighbours, the off-diagonal nonzeros of row i of s_i: s_i·w
replaces row i of w with its Dynkin-neighbour combination, and w·s_j changes
column j and its neighbours'.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import prod
from itertools import repeat
from operator import add, mul, neg

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
    dominant coweight lam in fundamental-coweight coordinates, ordered by
    matrix, keeping the points with no negative coordinate in dominant.  For
    lam = sum of the omega_i^vee with i not in J, these are W^J, and s_i·w <
    w for w in W^J exactly when mu_i < 0 (Deodhar's lemma).  s_i steps from
    mu only when mu_i > 0: that lengthens the element by one and still
    reaches every point, so the length is the BFS depth; the weight with
    lam's coordinates gives the same elements."""
    bound = _weyl_bound()
    if _orbit_size(rs, indices, (i for i in indices if lam[i] == 0)) > bound:
        raise ValueError(f"Weyl enumeration exceeded bound {bound}")
    # s_i·mu has the coweight coordinates mu·s_i; row i of s_i·w is -(row i
    # of w) plus c·(row k of w) for each off-diagonal nonzero c = (s_i)_ik
    gens = [(i, _off_diagonal(simple_reflection(rs, i).matrix[i], i)) for i in sorted(indices)]
    found = {tuple(lam): weyl_identity(rs)}
    frontier = list(found)
    while frontier:
        nxt = []
        for mu in frontier:
            w = found[mu]
            m = w.matrix
            for i, steps in gens:
                if mu[i] > 0 and (nu := _times_s(mu, i, steps)) not in found:
                    row = map(neg, m[i])
                    for k, c in steps:
                        row = map(add, row, map(mul, repeat(c), m[k]))
                    found[nu] = WeylElement(m[:i] + (tuple(row),) + m[i + 1 :], w.length + 1)
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


def _times_s(row: tuple[int, ...], j: int, steps) -> tuple[int, ...]:
    """row·s_j for steps = rs.neighbours[j]: s_j is the identity outside row
    j, so entry j changes sign and entry k gains c times it per (k, c)."""
    if not (x := row[j]):
        return row
    out = list(row)
    out[j] = -x
    for k, c in steps:
        out[k] += c * x
    return tuple(out)


def _right_step(rs: RootSystem, m: IntMatrix, j: int) -> IntMatrix:
    """m·s_j, one row at a time."""
    return tuple(_times_s(row, j, rs.neighbours[j]) for row in m)


def minimal_coset_reps(
    rs: RootSystem, left: ParabolicSubgroup, right: ParabolicSubgroup
) -> tuple[WeylElement, ...]:
    """Unique minimal-length representatives of the double cosets W_L\\W/W_R.

    W^R is the orbit of the sum of the fundamental coweights outside R; a
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
    one memo dict to every call: it keeps the word of every matrix a strip
    passes, and a call strips only down to a known matrix.
    """
    known = {} if memo is None else memo
    path, m = [], w.matrix
    while m not in known and (j := _descent(m, range(rs.rank))) is not None:
        path.append((m, j))
        m = _right_step(rs, m, j)
    word = known.get(m, ()) + tuple(j for _, j in reversed(path))
    if len(word) != w.length:
        raise AssertionError("reduced word is not as long as the element")
    if memo is not None:
        memo.update((m, word[: len(word) - t]) for t, (m, _) in enumerate(path))
    return word
