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

from .linalg import Lattice, Matrix, Subspace, _integer_scaled, frac, inverse, mat, matvec, vec

__all__ = [
    "RootSystem",
    "build_root_system",
    "form_pairing",
    "exp_kernel_lattice",
    "levi_roots",
    "Lattice",
    "Subspace",
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
    gram_inverse: the inverse of gram.
    gram_int, gram_inverse_int: gram and gram_inverse scaled to integer
        matrices; gram_int_scale is the product of the two scales, so
        gram_inverse_int·x·gram_int = gram_int_scale·gram_inverse·x·gram.
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
    gram_inverse: Matrix
    gram_int: tuple[tuple[int, ...], ...]
    gram_inverse_int: tuple[tuple[int, ...], ...]
    gram_int_scale: int

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

    def is_root(self, v) -> bool:
        t = tuple(v)
        return t in self.positive_set or tuple(-x for x in t) in self.positive_set

    def coroot(self, alpha) -> tuple[Fraction, ...]:
        """2·alpha/(alpha,alpha) in the same coordinates."""
        norm = form_pairing(self, alpha, alpha)
        return tuple(Fraction(2, 1) * frac(x) / norm for x in alpha)

    def reflect(self, i: int, v) -> tuple[int, ...]:
        """Reflection of v through the i-th simple root."""
        if len(v) != self.cartan_rank:
            raise ValueError("vector dimension does not match cartan_rank")
        return _apply(self.reflections[i], v)


def _apply(m, v) -> tuple[int, ...]:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def _simple_reflections(gram: Matrix, rank: int) -> tuple:
    """s_i(e_j) = e_j - a_ij·e_i with the Cartan integer a_ij = 2 g_ij / g_ii:
    only row i of the identity changes."""
    k = len(gram)
    ident = [tuple(int(t == j) for j in range(k)) for t in range(k)]
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


def _component_gram(letter: str, n: int) -> list[list[Fraction]]:
    """Symmetrized Cartan matrix with long roots of squared length 2."""
    g = [[Fraction(0)] * n for _ in range(n)]
    two = Fraction(2)

    def chain(pairs, lengths):
        for i in range(n):
            g[i][i] = lengths[i]
        for i, j, v in pairs:
            g[i][j] = v
            g[j][i] = v

    if letter == "A":
        chain([(i, i + 1, Fraction(-1)) for i in range(n - 1)], [two] * n)
    elif letter == "B":
        # last simple root short
        lengths = [two] * (n - 1) + [Fraction(1)]
        chain([(i, i + 1, Fraction(-1)) for i in range(n - 1)], lengths)
    elif letter == "C":
        # last simple root long
        lengths = [Fraction(1)] * (n - 1) + [two]
        pairs = [(i, i + 1, Fraction(-1, 2)) for i in range(n - 2)]
        if n >= 2:
            pairs.append((n - 2, n - 1, Fraction(-1)))
        chain(pairs, lengths)
    elif letter == "D":
        pairs = [(i, i + 1, Fraction(-1)) for i in range(n - 2)]
        if n >= 3:
            pairs.append((n - 3, n - 1, Fraction(-1)))
        chain(pairs, [two] * n)
    elif letter == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        chain([(i, j, Fraction(-1)) for i, j in edges], [two] * n)
    elif letter == "F":
        lengths = [two, two, Fraction(1), Fraction(1)]
        chain(
            [(0, 1, Fraction(-1)), (1, 2, Fraction(-1)), (2, 3, Fraction(-1, 2))],
            lengths,
        )
    elif letter == "G":
        chain([(0, 1, Fraction(-1))], [Fraction(2, 3), two])
    else:  # pragma: no cover
        raise ValueError(letter)
    return g


_BUILT: dict[str, RootSystem] = {}


def build_root_system(type_label: str) -> RootSystem:
    """Construct a root system from a label like "A3", "A2xA1" or "A2+T1",
    once per label string: later calls return the same object."""
    if type_label in _BUILT:
        return _BUILT[type_label]
    components, torus = _parse_label(type_label)
    ranks = [n for _, n in components]
    rank = sum(ranks)
    cartan_rank = rank + torus

    gram_rows = [[Fraction(0)] * cartan_rank for _ in range(cartan_rank)]
    offset = 0
    for letter, n in components:
        block = _component_gram(letter, n)
        for i in range(n):
            for j in range(n):
                gram_rows[offset + i][offset + j] = block[i][j]
        offset += n
    for i in range(rank, cartan_rank):
        gram_rows[i][i] = Fraction(1)
    gram = mat(gram_rows)

    simple = tuple(
        tuple(1 if j == i else 0 for j in range(cartan_rank)) for i in range(rank)
    )

    reflections = _simple_reflections(gram, rank)

    # closure generation: reflect known roots through simple roots until stable
    known = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for s in reflections:
                w = _apply(s, v)
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
        gram_inverse=gram_inverse,
        gram_int=gram_int,
        gram_inverse_int=gram_inverse_int,
        gram_int_scale=s * t,
    )
    return rs


def form_pairing(rs: RootSystem, x, y) -> Fraction:
    """(x, y) = x^T · gram · y in simple-root coordinates."""
    if len(x) != rs.cartan_rank or len(y) != rs.cartan_rank:
        raise ValueError("vector dimension does not match cartan_rank")
    gy = matvec(rs.gram, vec(y))
    return sum((frac(a) * b for a, b in zip(x, gy)), Fraction(0))


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


def exp_kernel_lattice(rs: RootSystem, user_kernel: Lattice | None = None) -> Lattice:
    """Kernel of the exponential map on h, up to a global scalar unit.

    For a semisimple simply connected group this is the lattice spanned by
    the simple coroots.  A central torus has no canonical kernel, so it must
    be supplied by the caller (and is then returned unchanged).
    """
    if user_kernel is not None:
        if user_kernel.ambient != rs.cartan_rank:
            raise ValueError("supplied kernel has wrong ambient dimension")
        return user_kernel
    if rs.torus_rank > 0:
        raise ValueError(
            "central torus present: exp kernel must be supplied explicitly"
        )
    cols = []
    for i in range(rs.rank):
        # the coroot of alpha_i = e_i is (2 / gram[i][i])·e_i
        c = 2 / rs.gram[i][i]
        if c.denominator != 1:
            raise ValueError("coroot with non-integer coordinates")
        cols.append([int(c) if k == i else 0 for k in range(rs.cartan_rank)])
    return Lattice(rs.cartan_rank, cols)
