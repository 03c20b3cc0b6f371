"""Reduced reductive root systems in simple-root coordinates.

A root system is specified by a label such as ``"A3"``, ``"B2xA1"`` or
``"A2+T1"`` (``T`` = central torus rank).  Roots are integer vectors in
simple-root coordinates; the invariant form is carried entirely by the gram
matrix, normalized so long roots have squared length 2 in every simple
component.  The central torus contributes an identity gram block and no
roots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Lattice, Matrix, _integer_scaled, inverse, mat, matvec

__all__ = [
    "RootSystem",
    "build_root_system",
    "exp_kernel_lattice",
    "levi_roots",
]

_LETTER_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 1,
    "C": lambda n: n >= 1,
    "D": lambda n: n >= 2,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class RootSystem:
    """Immutable root system data.

    type_label: the normalized input label.
    components: parsed (letter, rank) pairs for the simple factors.
    torus_rank: rank of the central torus summand.
    simple_roots: unit vectors, one per simple root, length cartan_rank.
    positive_roots: all positive roots as integer vectors.
    positive_set: the same roots as a frozenset, for membership tests.
    gram: matrix of the invariant form on simple-root coordinates.
    cartan_rank: dim h = semisimple rank + torus rank.
    reflections: integer matrix of each simple reflection on those
        coordinates (the torus block is fixed).
    neighbours: sparse Cartan table; neighbours[i] holds (k, (s_i)_ik) per Dynkin neighbour k.
    gram_inverse: the inverse of gram.
    gram_int, gram_inverse_int: gram·gram_scale and gram_inverse scaled to
        integer matrices; gram_int_scale is the product of the two scales, so
        gram_inverse_int·x·gram_int = gram_int_scale·gram_inverse·x·gram.
    gram_inverse_heights: the column sums 1·gram_inverse_int.
    identity_int: the integer identity matrix of size cartan_rank.
    """

    type_label: str
    components: tuple[tuple[str, int], ...]
    torus_rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    positive_set: frozenset
    gram: Matrix
    cartan_rank: int
    reflections: tuple[tuple[tuple[int, ...], ...], ...]
    neighbours: tuple[tuple[tuple[int, int], ...], ...]
    gram_inverse: Matrix
    gram_int: tuple[tuple[int, ...], ...]
    gram_inverse_int: tuple[tuple[int, ...], ...]
    gram_scale: int
    gram_int_scale: int
    gram_inverse_heights: tuple[int, ...]
    identity_int: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        """Number of simple roots (semisimple rank)."""
        return len(self.simple_roots)

    @property
    def all_roots(self) -> tuple[tuple[int, ...], ...]:
        return self.positive_roots + tuple(
            tuple(-x for x in r) for r in self.positive_roots
        )

    def is_positive_root(self, v) -> bool:
        return tuple(v) in self.positive_set

    @cached_property
    def coroot_lattice(self) -> Lattice:
        """The lattice of the simple coroots, built on first use."""
        cols = []
        for i in range(self.rank):
            # the coroot of alpha_i = e_i is (2 / gram[i][i])·e_i
            c = 2 / self.gram[i][i]
            if c.denominator != 1:
                raise ValueError("coroot with non-integer coordinates")
            cols.append([int(c) if k == i else 0 for k in range(self.cartan_rank)])
        return Lattice(self.cartan_rank, cols)


def _simple_reflections(gram: Matrix, rank: int, ident) -> tuple:
    """s_i(e_j) = e_j - a_ij·e_i with the Cartan integer a_ij = 2 g_ij / g_ii:
    only row i of the identity ident changes."""
    out = []
    for i in range(rank):
        cartan = [2 * g / gram[i][i] for g in gram[i]]
        if any(a.denominator != 1 for a in cartan):
            raise ValueError("gram matrix gives a non-integer Cartan entry")
        m = list(ident)
        m[i] = tuple(e - int(a) for e, a in zip(ident[i], cartan))
        out.append(tuple(m))
    return tuple(out)


def _parse_label(label: str) -> tuple[tuple[tuple[str, int], ...], int]:
    text = label.strip().upper().replace(" ", "")
    if not text:
        raise ValueError("empty root-system label")
    components: list[tuple[str, int]] = []
    torus = 0
    for part in text.split("+"):
        for piece in part.split("X"):
            m = re.fullmatch(r"([A-GT])(\d+)", piece)
            if not m:
                raise ValueError(f"unrecognized root-system label piece: {piece!r}")
            letter, rank = m.group(1), int(m.group(2))
            if letter == "T":
                torus += rank
                continue
            if rank < 1 or not _LETTER_RANKS[letter](rank):
                raise ValueError(f"rank {rank} not valid for type {letter}")
            components.append((letter, rank))
    return tuple(components), torus


def _dynkin(letter: str, n: int) -> tuple[list[tuple[int, int]], list[Fraction]]:
    """The Dynkin edges i - j of a simple component and its squared
    simple-root lengths, long roots of squared length 2 (Bourbaki, Lie Groups
    and Lie Algebras, ch. VI, plates I-IX)."""
    one, two = Fraction(1), Fraction(2)
    edges = [(i, i + 1) for i in range(n - 1)]
    lengths = [two] * n
    if letter == "B":  # last simple root short
        lengths[-1] = one
    elif letter == "C":  # last simple root long
        lengths = [one] * (n - 1) + [two]
    elif letter == "D":  # the fork: n-3 - n-2 and n-3 - n-1
        edges = edges[: n - 2] + ([(n - 3, n - 1)] if n >= 3 else [])
    elif letter == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3), (5, 6), (6, 7)][: n - 1]
    elif letter == "F":
        lengths = [two, two, one, one]
    elif letter == "G":
        lengths = [Fraction(2, 3), two]
    return edges, lengths


_BUILT: dict[str, RootSystem] = {}


def _off_diagonal(row: tuple[int, ...], i: int) -> tuple[tuple[int, int], ...]:
    """The pairs (k, row[k]) with row[k] != 0 and k != i."""
    return tuple((k, c) for k, c in enumerate(row) if c and k != i)


def build_root_system(type_label: str) -> RootSystem:
    """Construct a root system from a label like "A3", "A2xA1" or "A2+T1",
    once per label string: later calls return the same object."""
    if type_label in _BUILT:
        return _BUILT[type_label]
    components, torus = _parse_label(type_label)
    rank = sum(n for _, n in components)
    cartan_rank = rank + torus

    # the symmetrized Cartan matrix: squared lengths on the diagonal (1 on
    # the torus block), g_ij = -max(g_ii, g_jj)/2 on every Dynkin edge i - j
    edges, lengths = [], []
    for letter, n in components:
        block_edges, block_lengths = _dynkin(letter, n)
        edges += [(len(lengths) + i, len(lengths) + j) for i, j in block_edges]
        lengths += block_lengths
    lengths += [Fraction(1)] * torus
    gram_rows = [[Fraction(0)] * cartan_rank for _ in range(cartan_rank)]
    for i, g in enumerate(lengths):
        gram_rows[i][i] = g
    for i, j in edges:
        gram_rows[i][j] = gram_rows[j][i] = -max(lengths[i], lengths[j]) / 2
    gram = mat(gram_rows)

    ident = tuple(tuple(int(i == j) for j in range(cartan_rank)) for i in range(cartan_rank))
    simple = ident[:rank]
    reflections = _simple_reflections(gram, rank, ident)

    # closure generation: reflect known roots through simple roots until stable
    known = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for s in reflections:
                w = matvec(s, v)
                if all(x >= 0 for x in w) and w not in known:
                    known.add(w)
                    nxt.append(w)
        frontier = nxt
    positive = tuple(sorted(known, key=lambda v: (sum(v), v)))
    gram_inverse = inverse(gram)
    gram_int, s = _integer_scaled(gram)
    gram_inverse_int, t = _integer_scaled(gram_inverse)
    rs = _BUILT[type_label] = RootSystem(
        type_label=type_label.strip().replace(" ", ""),
        components=components,
        torus_rank=torus,
        simple_roots=simple,
        positive_roots=positive,
        positive_set=frozenset(positive),
        gram=gram,
        cartan_rank=cartan_rank,
        reflections=reflections,
        neighbours=tuple(_off_diagonal(r[i], i) for i, r in enumerate(reflections)),
        gram_inverse=gram_inverse,
        gram_int=gram_int,
        gram_inverse_int=gram_inverse_int,
        gram_scale=s,
        gram_int_scale=s * t,
        gram_inverse_heights=tuple(map(sum, zip(*gram_inverse_int))),
        identity_int=ident,
    )
    return rs


def levi_roots(rs: RootSystem, indices) -> tuple[tuple[int, ...], ...]:
    """Sorted roots (both signs) of the Levi subsystem spanned by the
    listed simple roots."""
    s = set(indices)
    out = []
    for a in rs.positive_roots:
        if all(x == 0 for t, x in enumerate(a) if t not in s):
            out.append(a)
            out.append(tuple(-x for x in a))
    return tuple(sorted(out))


def exp_kernel_lattice(rs: RootSystem) -> Lattice:
    """Kernel of the exponential map on h, up to a global scalar unit.

    For a semisimple simply connected group this is the lattice spanned by
    the simple coroots, built once per root system.  A central torus has no
    canonical kernel: a caller with one passes its own kernel to sigma_group.
    """
    if rs.torus_rank > 0:
        raise ValueError("central torus present: exp kernel must be supplied explicitly")
    return rs.coroot_lattice
