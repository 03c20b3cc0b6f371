"""Weyl group arithmetic: elements, lengths, parabolic subgroups, and
minimal-length (double) coset representatives.

Elements are integer matrices acting on simple-root coordinates; the torus
block is fixed pointwise.  Enumeration is breadth-first over the simple
reflections with matrix-keyed deduplication and a configurable size bound
(env var LEAFATLAS_WEYL_BOUND, default 10^6).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .rootsys import RootSystem

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
    "apply_weyl",
    "cross_parabolic",
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


def apply_matrix(m: IntMatrix, v) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def apply_weyl(w: WeylElement, v) -> tuple[int, ...]:
    return apply_matrix(w.matrix, v)


def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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
    return WeylElement(matrix=_identity_matrix(rs.cartan_rank), length=0)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    n = rs.cartan_rank
    cols = []
    for j in range(n):
        e_j = tuple(1 if t == j else 0 for t in range(n))
        cols.append(rs.reflect(i, e_j))
    m = tuple(tuple(cols[j][t] for j in range(n)) for t in range(n))
    return WeylElement(matrix=m, length=1)


def compose(rs: RootSystem, a: WeylElement, b: WeylElement) -> WeylElement:
    m = _matmul(a.matrix, b.matrix)
    return make_element(rs, m)


def inverse_element(rs: RootSystem, w: WeylElement) -> WeylElement:
    # the inverse of an integer matrix of finite order is a power of it
    m = w.matrix
    acc = m
    ident = _identity_matrix(rs.cartan_rank)
    prev = ident
    while acc != ident:
        prev = acc
        acc = _matmul(acc, m)
    return WeylElement(matrix=prev, length=w.length)


def _weyl_bound() -> int:
    raw = os.environ.get("LEAFATLAS_WEYL_BOUND")
    return int(raw) if raw else DEFAULT_BOUND


def _closure(rs: RootSystem, generators: list[IntMatrix]) -> list[IntMatrix]:
    bound = _weyl_bound()
    ident = _identity_matrix(rs.cartan_rank)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                p = _matmul(m, g)
                if p not in seen:
                    seen.add(p)
                    if len(seen) > bound:
                        raise ValueError(
                            f"Weyl enumeration exceeded bound {bound}"
                        )
                    nxt.append(p)
        frontier = nxt
    return sorted(seen)


def enumerate_weyl(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, ordered lexicographically by matrix."""
    gens = [simple_reflection(rs, i).matrix for i in range(rs.rank)]
    return tuple(make_element(rs, m) for m in _closure(rs, gens))


@dataclass(frozen=True)
class ParabolicSubgroup:
    """Standard parabolic subgroup given by a set of simple-root indices."""

    generators: frozenset[int]

    @staticmethod
    def of(indices) -> "ParabolicSubgroup":
        return ParabolicSubgroup(generators=frozenset(indices))


def parabolic_elements(rs: RootSystem, p: ParabolicSubgroup) -> tuple[WeylElement, ...]:
    gens = [simple_reflection(rs, i).matrix for i in sorted(p.generators)]
    if not gens:
        return (weyl_identity(rs),)
    return tuple(make_element(rs, m) for m in _closure(rs, gens))


def longest_element(rs: RootSystem, parabolic: ParabolicSubgroup) -> WeylElement:
    """The unique maximal-length element of the parabolic subgroup."""
    elems = parabolic_elements(rs, parabolic)
    best = max(elems, key=lambda w: w.length)
    ties = [w for w in elems if w.length == best.length]
    if len(ties) != 1:
        raise AssertionError("longest element is not unique")
    return best


def left_descent(rs: RootSystem, w: WeylElement, indices) -> int | None:
    """i with l(s_i·w) < l(w)."""
    for i in sorted(indices):
        s = simple_reflection(rs, i)
        if element_length(rs, _matmul(s.matrix, w.matrix)) < w.length:
            return i
    return None


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

    A representative w is characterized by w^{-1}(alpha) positive for the
    simple roots alpha of the left side and w(beta) positive for those of
    the right side.
    """
    # the right test is O(rank); the left one recounts a length, so it runs last
    return tuple(
        w
        for w in enumerate_weyl(rs)
        if right_descent(rs, w, right.generators) is None
        and left_descent(rs, w, left.generators) is None
    )


def in_parabolic(rs: RootSystem, w: WeylElement, p: ParabolicSubgroup) -> bool:
    """Membership test: all inversions of w lie in the parabolic subsystem."""
    gens = p.generators
    for alpha in rs.positive_roots:
        img = apply_weyl(w, alpha)
        if all(x <= 0 for x in img):
            if any(alpha[t] != 0 for t in range(len(alpha)) if t not in gens):
                return False
    return True


def cross_parabolic(
    rs: RootSystem, w: WeylElement, left: ParabolicSubgroup, right: ParabolicSubgroup
) -> ParabolicSubgroup:
    """The absorbing parabolic W_L ∩ w·W_R·w^{-1} of a double-minimal w.

    Generated by the simple roots alpha of the left subsystem whose image
    w^{-1}(alpha) is a root of the right subsystem.
    """
    winv_m = inverse_element(rs, w).matrix
    gens = set()
    for i in left.generators:
        img = apply_matrix(winv_m, rs.simple_roots[i])
        support = {t for t, x in enumerate(img) if x != 0}
        if support <= right.generators:
            gens.add(i)
    return ParabolicSubgroup.of(gens)


def decompose_min(
    rs: RootSystem,
    u: WeylElement,
    left: ParabolicSubgroup,
    right: ParabolicSubgroup,
) -> tuple[WeylElement, WeylElement, WeylElement]:
    """Write u = w1·w·w2 with additive lengths.

    w is the minimal double-coset representative, w1 the minimal
    representative of its coset modulo the absorbing parabolic, w2 in the
    right parabolic subgroup.  The decomposition is unique.
    """
    ident = weyl_identity(rs)

    # minimal double-coset representative by greedy descent on both sides
    w = u
    while True:
        i = left_descent(rs, w, left.generators)
        if i is not None:
            w = compose(rs, simple_reflection(rs, i), w)
            continue
        j = right_descent(rs, w, right.generators)
        if j is not None:
            w = compose(rs, w, simple_reflection(rs, j))
            continue
        break

    # split u = a·x with x minimal in W_L·u
    a = ident
    x = u
    while True:
        i = left_descent(rs, x, left.generators)
        if i is None:
            break
        s = simple_reflection(rs, i)
        x = compose(rs, s, x)
        a = compose(rs, a, s)
    # x lies in w·W_R with additive lengths
    b = compose(rs, inverse_element(rs, w), x)
    if not in_parabolic(rs, b, right):
        raise AssertionError("double-coset reduction failed to land in W_R")
    if x.length != w.length + b.length:
        raise AssertionError("length additivity failed in coset splitting")

    # push a to the minimal representative of a·W^w, transferring across w
    j_par = cross_parabolic(rs, w, left, right)
    while True:
        j = right_descent(rs, a, j_par.generators)
        if j is None:
            break
        s = simple_reflection(rs, j)
        a = compose(rs, a, s)
        # s transfers across w as the reflection through w^{-1}(alpha_j)
        t = compose(rs, compose(rs, inverse_element(rs, w), s), w)
        b = compose(rs, t, b)

    if u.length != a.length + w.length + b.length:
        raise AssertionError("length additivity failed in decompose_min")
    recombined = compose(rs, compose(rs, a, w), b)
    if recombined.matrix != u.matrix:
        raise AssertionError("decompose_min product mismatch")
    return a, w, b


def reduced_word(rs: RootSystem, w: WeylElement) -> tuple[int, ...]:
    """A reduced word (s_{i1}·...·s_{il} = w), chosen deterministically."""
    word: list[int] = []
    cur = w
    while cur.length > 0:
        j = right_descent(rs, cur, range(rs.rank))
        if j is None:
            raise AssertionError("non-identity element without right descent")
        cur = compose(rs, cur, simple_reflection(rs, j))
        word.append(j)
    return tuple(reversed(word))
