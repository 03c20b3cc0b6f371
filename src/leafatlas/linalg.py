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


def _integral(a) -> bool:
    """Whether every entry of a is an int (no ``Fraction``), in one C-level scan."""
    return Fraction not in set(map(type, chain.from_iterable(a)))


def _integer_scaled(m: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(s·m, s) for the least s > 0 that clears every denominator of m."""
    s = lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (s // x.denominator) for x in row) for row in m), s


def _bareiss(m: list[list[int]]) -> tuple[list[int], int]:
    """Forward fraction-free (Bareiss) elimination of the integer rows m in
    place: (pivot columns, sign of the row swaps).  Rows from len(pivots) on
    are zero.  Each pivot is a minor of the row-swapped copy, so for a square
    matrix of full rank the last pivot is its determinant."""
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
    return pivots, sign


def _echelon(a: Matrix) -> tuple[list[list[int]], list[int], int, int]:
    """_bareiss on the row-scaled copy of a: (echelon rows, pivot columns,
    sign of the row swaps, product of the row scales)."""
    # integer rows go straight to the pass; others are scaled by row lcms
    m, scale = [list(row) for row in a], 1
    if not _integral(a):
        for row in m:
            d = lcm(*(x.denominator for x in row))
            row[:] = [x.numerator * (d // x.denominator) for x in row]
            scale *= d
    pivots, sign = _bareiss(m)
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
    column, with a positive entry there."""
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


def _shift(a, c: int) -> list[list[int]]:
    """a - c·1 for a square matrix a."""
    return [[x - c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]


def _shifted_rank(a, c: int) -> int:
    """rank(a - c·1) for a square integer matrix a, with no type scan."""
    return len(_bareiss(_shift(a, c))[0])


def _over(a, q: int) -> Matrix:
    """The Fraction matrix a/q of an integer matrix a."""
    return tuple(tuple(Fraction(x, q) for x in row) for row in a)


def _adjugate(a) -> tuple[Matrix, int]:
    """(adj a, det a) of a square integer matrix a, so a^-1 = adj/det; raises
    ValueError if a is singular.  Fraction-free elimination on [a | 1] gives
    [U | E] with U = E·a upper triangular and last pivot D = ±det a, and back
    substitution solves U·X = D·E for the integer X = D·a^-1 exactly."""
    n = len(a)
    m = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(a)]
    pivots, sign = _bareiss(m)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    d, x = m[-1][n - 1] if n else 1, [None] * n
    for i in range(n - 1, -1, -1):
        acc = [d * y for y in m[i][n:]]
        for j in range(i + 1, n):
            if u := m[i][j]:
                acc = [s - u * y for s, y in zip(acc, x[j])]
        x[i] = [s // m[i][i] for s in acc]
    return tuple(tuple(sign * y for y in r) for r in x), sign * d


def inverse(a: Matrix) -> Matrix:
    if len(a) != shape(a)[1]:
        raise ValueError("inverse of non-square matrix")
    big, s = _integer_scaled(a)
    adj, d = _adjugate(big)
    return _over([[s * x for x in row] for row in adj], d)


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

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient, self.vectors() + other.vectors())

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


def smith_normal_form(a) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of the integer matrix a.

    Hermite forms of the rows and of the columns alternate until the matrix
    is diagonal.  The loop ends: each pass puts at top left the positive gcd
    of the first column it reads, a column that holds the entry there
    before.  So the top-left entry falls strictly until its row and column
    are clear, and the passes then act on the block below it alone.
    Replacing a diagonal pair (d_i, d_j) with their gcd and lcm keeps the
    quotient, and makes each factor divide the next.
    """
    m = row_hnf(a)
    while any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        m = row_hnf(transpose(m))
    diag = [row[i] for i, row in enumerate(m)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _coords(rows, v) -> list[int] | None:
    """The integer coordinates of v along the Hermite rows, pivot by pivot,
    or None when v is not in the lattice they span."""
    v, out = list(v), []
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        c, r = divmod(v[p], row[p])
        if r:
            return None
        out.append(c)
        v = [x - c * y for x, y in zip(v, row)]
    return None if any(v) else out


class Lattice:
    """Integer lattice in Z^ambient spanned by integer generator columns.

    The basis is stored as a matrix of ints whose columns are the rows of the
    Hermite normal form of the generators, so equal lattices compare equal.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, columns=()):
        self.ambient = ambient
        rows = row_hnf([list(c) for c in columns])
        for r in rows:
            if len(r) != ambient:
                raise ValueError("lattice vector length mismatch")
        self.basis: Matrix = transpose(rows) if rows else tuple(() for _ in range(ambient))

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.ambient and self.basis else 0

    def columns(self) -> tuple[Vector, ...]:
        return tuple(zip(*self.basis)) if self.rank else ()

    def sum(self, other: "Lattice") -> "Lattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Lattice(self.ambient, self.columns() + other.columns())

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


def quotient_invariants(sup: Lattice, gens) -> tuple[tuple[int, ...], int]:
    """Invariant factors of sup/sub, sub spanned by the integer columns gens.

    Returns (torsion factors > 1, free rank). Raises if sub is not contained
    in sup.
    """
    rows = sup.columns()
    # one row per generator of sub: its coordinates in sup's Hermite basis
    coords = [_coords(rows, c) for c in gens]
    if None in coords:
        raise ValueError("second lattice is not a sublattice of the first")
    factors = smith_normal_form(coords)
    return tuple(x for x in factors if x > 1), sup.rank - len(factors)
