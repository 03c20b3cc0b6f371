"""Exact rational linear algebra.

Everything downstream needs exact zeros, so matrices are tuples of tuples of
ints or ``Fraction``s (integer data stays integer), and all elimination is
done over Q (or fraction-free over Z).  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries) -> Vector:
    return tuple(frac(x) for x in entries)


def mat(rows) -> Matrix:
    m = tuple(tuple(frac(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product a·b that multiplies only nonzero pairs of entries.

    All-int factors give int entries; any ``Fraction`` entry in either
    factor makes every entry of the product a ``Fraction``.
    """
    if shape(a)[1] != shape(b)[0]:
        raise ValueError("shape mismatch in matmul")
    # the nonzero entries of each row of b, by column
    nz = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    fractional = not (_integral(a) and _integral(b))
    zero = [Fraction(0) if fractional else 0] * shape(b)[1]
    out = []
    for row in a:
        acc = zero[:]
        for x, terms in zip(row, nz):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def matvec(a: Matrix, v) -> Vector:
    if shape(a)[1] != len(v):
        raise ValueError("shape mismatch in matvec")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c, a: Matrix) -> Matrix:
    c = frac(c)
    return tuple(tuple(c * x for x in row) for row in a)


def _integral(a) -> bool:
    """Whether every entry of a is an int (no ``Fraction``), in one C-level scan."""
    return Fraction not in set(map(type, chain.from_iterable(a)))


def _integer_scaled(m: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(s·m, s) for the least s > 0 that clears every denominator of m."""
    s = lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (s // x.denominator) for x in row) for row in m), s


def _echelon(a: Matrix) -> tuple[list[list[int]], list[int], int, int]:
    """Forward fraction-free (Bareiss) elimination on the row-scaled copy.

    Returns (echelon rows, pivot columns, sign of the row swaps, product of
    the row scales).  Rows from len(pivots) on are zero.  Each pivot is a
    minor of the row-swapped copy, so for a square matrix of full rank the
    last pivot is its determinant.
    """
    # integer rows go straight to the pass; others are scaled by row lcms
    m, scale = [list(row) for row in a], 1
    if not _integral(a):
        for row in m:
            d = lcm(*(x.denominator for x in row))
            row[:] = [x.numerator * (d // x.denominator) for x in row]
            scale *= d
    nr, nc = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top, p = m[r], m[r][c]
        for i in range(r + 1, nr):
            row = m[i]
            f = row[c]
            for j in range(c + 1, nc):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots, sign, scale


def rank(a: Matrix) -> int:
    """Rank: the pivot count of the fraction-free echelon form."""
    return len(_echelon(a)[1])


def _primitive_rref(a: Matrix) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the RREF of a, each scaled to a primitive integer
    row with a positive pivot (the RREF row times the lcm of its
    denominators), and the pivot columns.  All arithmetic is in integers."""
    m, pivots, _, _ = _echelon(a)
    rows = m[: len(pivots)]
    # back phase, bottom up: make the pivot row primitive, clear above it
    for r in range(len(pivots) - 1, -1, -1):
        c, low = pivots[r], rows[r]
        g = gcd(*low) if low[c] > 0 else -gcd(*low)
        low = rows[r] = [x // g for x in low]
        p = low[c]
        for i in range(r):
            f = rows[i][c]
            if f:
                q = gcd(p, f)
                rows[i] = [(p // q) * x - (f // q) * y for x, y in zip(rows[i], low)]
    return rows, pivots


def _kernel(a: Matrix) -> list[list[int]]:
    """Primitive integer basis of the right kernel of a: one vector per free
    column, with a positive entry there (nullspace's vectors, lcm-scaled)."""
    nc = shape(a)[1]
    rows, pivots = _primitive_rref(a)
    big = lcm(*(row[c] for row, c in zip(rows, pivots)))
    out = []
    for free in sorted(set(range(nc)) - set(pivots)):
        # x[free] = L, x[c] = -row[free]·L/row[c] for the lcm L of the pivots
        v = [0] * nc
        v[free] = big
        for row, c in zip(rows, pivots):
            v[c] = -row[free] * (big // row[c])
        g = gcd(*v)
        out.append([x // g for x in v])
    return out


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    rows, pivots = _primitive_rref(a)
    red = tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots))
    return red + ((Fraction(0),) * shape(a)[1],) * (len(a) - len(pivots)), tuple(pivots)


def solve(a: Matrix, b) -> Vector | None:
    """One solution of a·x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    nr, nc = shape(a)
    aug = tuple(tuple(row) + (frac(bi),) for row, bi in zip(a, b))
    r, pivots = rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = r[i][nc]
    return tuple(x)


def nullspace(a: Matrix) -> tuple[Vector, ...]:
    """Canonical basis of the right kernel (free variable = 1 pattern): the
    primitive kernel vectors divided by their free entry, the last nonzero one."""
    kernel = _kernel(a)
    free = [next(x for x in reversed(v) if x) for v in kernel]
    return tuple(tuple(Fraction(x, d) for x in v) for v, d in zip(kernel, free))


def inverse(a: Matrix) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse of non-square matrix")
    aug = tuple(row + iden for row, iden in zip(a, identity(n)))
    r, pivots = rref(aug)
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in r)


def det(a: Matrix) -> Fraction:
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Fraction(1)
    rows, pivots, sign, scale = _echelon(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1], scale)


class Subspace:
    """Rational subspace of Q^ambient with a canonical primitive integer basis.

    Generators may have int or ``Fraction`` entries.  The basis is stored as
    a matrix whose columns span the subspace: the nonzero rows of the RREF of
    the generator list, each scaled by the lcm of its denominators, so every
    column is a primitive integer vector and equal subspaces compare equal.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors=()):
        self.ambient = ambient
        rows = tuple(vectors)
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        rows = tuple(map(tuple, _primitive_rref(rows)[0]))
        self.basis: Matrix = transpose(rows) if rows else tuple(() for _ in range(ambient))

    @property
    def dim(self) -> int:
        return len(self.basis[0]) if self.ambient and self.basis else 0

    def vectors(self) -> tuple[Vector, ...]:
        """Basis as a tuple of column vectors."""
        return tuple(zip(*self.basis)) if self.dim else ()

    def contains(self, v) -> bool:
        if self.dim == 0:
            return all(frac(x) == 0 for x in v)
        return solve(self.basis, v) is not None

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient, self.vectors() + other.vectors())

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.ambient)
        # columns of [U | -V] kernel give U-coordinates of intersection vectors
        stacked = tuple(
            tuple(self.basis[i]) + tuple(-x for x in other.basis[i])
            for i in range(self.ambient)
        )
        vecs = [matvec(self.basis, s[: self.dim]) for s in _kernel(stacked)]
        return Subspace(self.ambient, vecs)

    def perp(self, gram: Matrix) -> "Subspace":
        """Orthogonal complement in the ambient space w.r.t. the form gram."""
        if self.dim == 0:
            return Subspace(self.ambient, tuple(identity(self.ambient)))
        return Subspace(self.ambient, _kernel(matmul(transpose(self.basis), gram)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def subspace_from_columns(a: Matrix) -> Subspace:
    return Subspace(len(a), tuple(zip(*a)) if a and a[0] else ())


# ---------------------------------------------------------------------------
# integer lattices


def _int_matrix(rows) -> list[list[int]]:
    out = [[int(x) for x in row] for row in rows]
    for row, orig in zip(out, rows):
        for x, y in zip(row, orig):
            if x != y:
                raise ValueError("non-integer entry in lattice data")
    return out


def row_hnf(rows) -> list[list[int]]:
    """Canonical row-style Hermite normal form; zero rows dropped.

    Pivots positive, entries above a pivot reduced into [0, pivot).
    """
    work = [list(r) for r in _int_matrix(rows)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        # gcd elimination below row r in column c
        while True:
            live = [i for i in range(r, len(work)) if work[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(work[i][c]))
            p = live[0]
            for i in live[1:]:
                q = work[i][c] // work[p][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[p])]
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
    return [row for row in work[:r]]


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (U, D, V) with U·a·V = D.

    U and V are unimodular; D is diagonal with d_i | d_{i+1}, d_i >= 0.
    """
    d = [list(r) for r in _int_matrix(a)]
    m = len(d)
    n = len(d[0]) if d else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        d[dst] = [x - q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        # locate a pivot of minimal absolute value in the working block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        stuck = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            add_row(stuck, t, -1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


class Lattice:
    """Integer lattice in Z^ambient given by independent basis columns.

    The basis is canonicalized with a Hermite normal form so equal lattices
    compare equal.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, columns=()):
        self.ambient = ambient
        rows = row_hnf([list(c) for c in columns])
        for r in rows:
            if len(r) != ambient:
                raise ValueError("lattice vector length mismatch")
        self.basis: Matrix = (
            transpose(mat(rows)) if rows else tuple(() for _ in range(ambient))
        )

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.ambient and self.basis else 0

    def columns(self) -> tuple[Vector, ...]:
        return tuple(zip(*self.basis)) if self.rank else ()

    def contains(self, v) -> bool:
        if self.rank == 0:
            return all(frac(x) == 0 for x in v)
        c = solve(self.basis, v)
        return c is not None and all(x.denominator == 1 for x in c)

    def sum(self, other: "Lattice") -> "Lattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Lattice(self.ambient, self.columns() + other.columns())

    def intersection(self, other: "Lattice") -> "Lattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.rank == 0 or other.rank == 0:
            return Lattice(self.ambient)
        a, b = self.basis, other.basis
        stacked = [
            [int(a[i][j]) for j in range(self.rank)]
            + [-int(b[i][j]) for j in range(other.rank)]
            for i in range(self.ambient)
        ]
        kernel = integer_kernel(stacked)
        cols = [matvec(a, k[: self.rank]) for k in kernel]
        return Lattice(self.ambient, cols)

    def rational_span(self) -> Subspace:
        return Subspace(self.ambient, self.columns())

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Lattice(ambient={self.ambient}, rank={self.rank})"


def integer_kernel(a) -> list[list[int]]:
    """Basis of the integer solution lattice of a·x = 0."""
    rows = _int_matrix(a)
    n = len(rows[0]) if rows else 0
    if n == 0:
        return []
    u, d, v = smith_normal_form(rows)
    m = len(rows)
    kernel = []
    for j in range(n):
        diag = d[j][j] if j < min(m, n) else 0
        if diag == 0:
            kernel.append([v[i][j] for i in range(n)])
    return kernel


def quotient_invariants(sup: Lattice, sub: Lattice) -> tuple[tuple[int, ...], int]:
    """Invariant factors of sup/sub for sub a sublattice of sup.

    Returns (torsion factors > 1, free rank). Raises if sub is not contained
    in sup.
    """
    if sub.rank == 0:
        return ((), sup.rank)
    coords = []
    for c in sub.columns():
        x = solve(sup.basis, c)
        if x is None or any(e.denominator != 1 for e in x):
            raise ValueError("second lattice is not a sublattice of the first")
        coords.append([int(e) for e in x])
    # columns of the coordinate matrix express sub in the basis of sup
    a = [[coords[j][i] for j in range(len(coords))] for i in range(sup.rank)]
    _, d, _ = smith_normal_form(a)
    k = min(len(a), len(a[0]) if a else 0)
    diag = [d[i][i] for i in range(k) if d[i][i] != 0]
    free = sup.rank - len(diag)
    return tuple(x for x in diag if x > 1), free
