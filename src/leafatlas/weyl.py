"""Weyl group arithmetic: elements, lengths, parabolic subgroups, and
minimal-length (double) coset representatives.

Elements are integer matrices acting on simple-root coordinates; the torus
block is fixed pointwise.  Every decision reads data stored on the
RootSystem: the integer simple-reflection matrices and the inverse Gram
matrix.  Descents are sign tests on images of simple roots.
W, W_J and the minimal coset representatives W^J are each one BFS over a
Weyl orbit in fundamental-weight coordinates, with lengths as BFS depths and
a bound on the set's size (env var LEAFATLAS_WEYL_BOUND, default 10^6).
Reduced words and the factorization u = w1·w·w2 strip right descents one
at a time, with lengths stepped down by one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .rootsys import RootSystem, _apply as apply_matrix

__all__ = [
    "WeylElement",
    "ParabolicSubgroup",
    "enumerate_weyl",
    "longest_element",
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
        return apply_matrix(self.matrix, v)


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def element_length(rs: RootSystem, m: IntMatrix) -> int:
    """Count of positive roots mapped to negative roots."""
    count = 0
    for alpha in rs.positive_roots:
        img = apply_matrix(m, alpha)
        if all(x <= 0 for x in img):
            count += 1
    return count


def make_element(rs: RootSystem, m: IntMatrix) -> WeylElement:
    return WeylElement(matrix=m, length=element_length(rs, m))


def weyl_identity(rs: RootSystem) -> WeylElement:
    n = rs.cartan_rank
    return WeylElement(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 0)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return WeylElement(matrix=rs.reflections[i], length=1)


def compose(rs: RootSystem, a: WeylElement, b: WeylElement) -> WeylElement:
    m = _matmul(a.matrix, b.matrix)
    return make_element(rs, m)


def inverse_element(rs: RootSystem, w: WeylElement) -> WeylElement:
    """G^{-1}·w^T·G: w preserves the invariant form G.

    The product runs on the integer-scaled G and G^{-1} stored on rs and is
    divided by their scale once, at the end.
    """
    m = _matmul(rs.gram_inverse_int, _matmul(tuple(zip(*w.matrix)), rs.gram_int))
    q = rs.gram_int_scale
    if any(x % q for row in m for x in row):
        raise AssertionError("inverse of a Weyl element is not an integer matrix")
    return WeylElement(
        matrix=tuple(tuple(x // q for x in row) for row in m), length=w.length
    )


def _weyl_bound() -> int:
    raw = os.environ.get("LEAFATLAS_WEYL_BOUND")
    if not raw:
        return DEFAULT_BOUND
    if not (raw.isdecimal() and int(raw) > 0):
        raise ValueError(f"LEAFATLAS_WEYL_BOUND must be a positive integer, got {raw!r}")
    return int(raw)


def _orbit(rs: RootSystem, indices, lam) -> tuple[WeylElement, ...]:
    """One element of W_I (I = indices) per point of the W_I-orbit of the
    dominant weight lam in fundamental-weight coordinates, ordered by matrix.
    For lam = sum of the omega_i with i not in J, these are W^J.  s_i steps
    from mu only when mu_i > 0: that lengthens the element by one and still
    reaches every point, so the length is the BFS depth."""
    bound = _weyl_bound()
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
                        if len(found) > bound:
                            raise ValueError(f"Weyl enumeration exceeded bound {bound}")
                        nxt.append(nu)
        frontier = nxt
    return tuple(sorted(found.values(), key=lambda w: w.matrix))


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


def parabolic_elements(rs: RootSystem, p: ParabolicSubgroup) -> tuple[WeylElement, ...]:
    return _orbit(rs, p.generators, (1,) * rs.rank)


def longest_element(rs: RootSystem, parabolic: ParabolicSubgroup) -> WeylElement:
    """The unique maximal-length element of the parabolic subgroup."""
    elems = parabolic_elements(rs, parabolic)
    best = max(elems, key=lambda w: w.length)
    ties = [w for w in elems if w.length == best.length]
    if len(ties) != 1:
        raise AssertionError("longest element is not unique")
    return best


def left_descent(rs: RootSystem, w: WeylElement, indices) -> int | None:
    """i with l(s_i·w) < l(w): a right descent of w^{-1}."""
    if not indices:
        return None
    return right_descent(rs, inverse_element(rs, w), indices)


def right_descent(rs: RootSystem, w: WeylElement, indices) -> int | None:
    """i with l(w·s_i) < l(w): holds iff w(alpha_i) is negative."""
    for i in sorted(indices):
        img = apply_matrix(w.matrix, rs.simple_roots[i])
        if all(x <= 0 for x in img):
            return i
    return None


def minimal_coset_reps(
    rs: RootSystem, left: ParabolicSubgroup, right: ParabolicSubgroup
) -> tuple[WeylElement, ...]:
    """Unique minimal-length representatives of the double cosets W_L\\W/W_R.

    W^R is the orbit of the sum of the fundamental weights outside R; a
    representative is the element of W^R with no left descent in L.
    """
    lam = tuple(int(i not in right.generators) for i in range(rs.rank))
    reps = _orbit(rs, range(rs.rank), lam)
    return tuple(w for w in reps if left_descent(rs, w, left.generators) is None)


def _strip(rs: RootSystem, w: WeylElement, indices) -> tuple[WeylElement, list[int]]:
    """Remove right descents in indices, smallest first, one at a time: the
    result x and the word [j1, ..., jk] with w = x·s_jk·...·s_j1 reduced."""
    word: list[int] = []
    cur = w
    while (j := right_descent(rs, cur, indices)) is not None:
        # j is a right descent, so cur·s_j is one shorter
        cur = WeylElement(_matmul(cur.matrix, rs.reflections[j]), cur.length - 1)
        word.append(j)
    return cur, word


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
    x, word2 = _strip(rs, u, right.generators)
    x_inv = inverse_element(rs, x)
    w_inv, word1 = _strip(rs, x_inv, left.generators)
    w = inverse_element(rs, w_inv)
    w1 = WeylElement(_matmul(x.matrix, w_inv.matrix), len(word1))
    w2 = WeylElement(_matmul(x_inv.matrix, u.matrix), len(word2))
    if right_descent(rs, w, right.generators) is not None:
        raise AssertionError("decompose_min representative left W^R")
    if _matmul(_matmul(w1.matrix, w.matrix), w2.matrix) != u.matrix:
        raise AssertionError("decompose_min product mismatch")
    return w1, w, w2


def reduced_word(rs: RootSystem, w: WeylElement) -> tuple[int, ...]:
    """A reduced word (s_{i1}·...·s_{il} = w), chosen deterministically."""
    rest, word = _strip(rs, w, range(rs.rank))
    if rest.length:
        raise AssertionError("non-identity element without right descent")
    return tuple(reversed(word))
