"""The shared fraction-free elimination against the loops it replaced.

`rank`, `det` and `rref` now run one forward Bareiss pass (`_echelon`), and
`solve_r0` solves its skew-part system through `solve`.  The replaced code
is kept here as reference oracles: Gauss-Jordan `rref` on Fraction, Gaussian
`det` on Fraction, the Bareiss `rank` with its Fraction-product row scaling,
and the pivot read-out `solve_r0` did on its own `rref` call.  `solve`,
`nullspace` (now in ``helpers``) and `inverse` keep their bodies, so their
references are the same bodies over the reference `rref`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from helpers import nullspace, vec
from leafatlas import build_root_system, enumerate_valid_triples, solve_r0
from leafatlas.bdtriple import Infeasible
from leafatlas.linalg import (
    det,
    frac,
    identity,
    inverse,
    mat,
    matvec,
    rank,
    rref,
    shape,
    solve,
)


# ---------------------------------------------------------------------------
# reference oracles: the elimination loops before the shared Bareiss pass


def ref_rref(a):
    rows = [list(row) for row in a]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def ref_det(a):
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Fraction(1)
    rows = [list(row) for row in a]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result * sign


def ref_int_rows(a):
    out = []
    for row in a:
        d = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * d) for x in row])
    return out


def ref_rank(a):
    if not a or not a[0]:
        return 0
    m = ref_int_rows(a)
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def ref_solve(a, b):
    nr, nc = shape(a)
    aug = tuple(tuple(row) + (frac(bi),) for row, bi in zip(a, b))
    r, pivots = ref_rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = r[i][nc]
    return tuple(x)


def ref_nullspace(a):
    nr, nc = shape(a)
    if nc == 0:
        return ()
    if nr == 0:
        return tuple(identity(nc))
    r, pivots = ref_rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(nc):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * nc
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -r[i][free]
        basis.append(tuple(v))
    return tuple(basis)


def ref_inverse(a):
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse of non-square matrix")
    aug = tuple(row + iden for row, iden in zip(a, identity(n)))
    r, pivots = ref_rref(aug)
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in r)


def ref_canonical_r0(rs, triple):
    """The canonical branch of solve_r0 with its own pivot read-out."""
    k = rs.cartan_rank
    g = rs.gram
    omega = rs.gram_inverse
    unknowns = [(i, j) for i in range(k) for j in range(i + 1, k)]
    index = {p: t for t, p in enumerate(unknowns)}
    rows, rhs = [], []
    for a_idx, t_idx in triple.tau:
        a = vec(rs.simple_roots[a_idx])
        t = vec(rs.simple_roots[t_idx])
        d = matvec(g, tuple(x - y for x, y in zip(a, t)))
        target = tuple(-(x + y) / 2 for x, y in zip(a, t))
        for r in range(k):
            row = [Fraction(0)] * len(unknowns)
            for c in range(k):
                if r == c or d[c] == 0:
                    continue
                if r < c:
                    row[index[(r, c)]] += d[c]
                else:
                    row[index[(c, r)]] -= d[c]
            rows.append(row)
            rhs.append(target[r])
    if unknowns:
        aug = tuple(tuple(row) + (b,) for row, b in zip(rows, rhs))
        red, pivots = ref_rref(aug)
        if len(unknowns) in pivots:
            raise Infeasible("r0 constraint system inconsistent")
        sol = [Fraction(0)] * len(unknowns)
        for i, c in enumerate(pivots):
            sol[c] = red[i][len(unknowns)]
    else:
        if any(b != 0 for b in rhs):
            raise Infeasible("r0 constraint system inconsistent")
        sol = []
    s = [[Fraction(0)] * k for _ in range(k)]
    for (i, j), val in zip(unknowns, sol):
        s[i][j] = val
        s[j][i] = -val
    return tuple(tuple(omega[i][j] / 2 + s[i][j] for j in range(k)) for i in range(k))


# ---------------------------------------------------------------------------
# strategies: zero entries and rows, 1 x n and n x 1, dependent rows,
# and denominators far beyond a machine word

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
large = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**15))
entries = st.one_of(st.just(Fraction(0)), small, large)


@st.composite
def matrices(draw, square=False):
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    kind = draw(st.sampled_from(("free", "zero_row", "zero", "dependent")))
    if kind == "zero_row":
        rows[draw(st.integers(0, m - 1))] = [Fraction(0)] * n
    elif kind == "zero":
        rows = [[Fraction(0)] * n for _ in range(m)]
    elif kind == "dependent" and m > 1:
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.one_of(small, large))
        rows[i] = [c * x for x in rows[j]]
    return mat(rows)


EDGE_CASES = [
    mat([[0, 0, 0]]),
    mat([[0], [0], [0]]),
    mat([[0, 0], [0, 0]]),
    mat([[3, Fraction(1, 7), 0]]),
    mat([[Fraction(2, 3)], [0], [Fraction(-5, 4)]]),
    mat([[1, 2], [2, 4]]),
    mat([[0, 1, 2], [0, 0, 0], [0, 2, 4]]),
    mat([[Fraction(1, 10**18 + 9), 1], [1, Fraction(10**18 + 9, 7)]]),
]


def _all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_reference(a):
    r, pivots = rref(a)
    assert (r, pivots) == ref_rref(a)
    assert len(r) == len(a) and _all_fractions(r)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_reference(a):
    assert rank(a) == ref_rank(a)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_det_matches_reference(a):
    assert det(a) == ref_det(a)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_reference(a, data):
    n = len(a[0])
    if data.draw(st.booleans()):
        # a right-hand side in the column span, so a solution exists
        b = matvec(a, data.draw(st.lists(entries, min_size=n, max_size=n)))
    else:
        b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    x = solve(a, b)
    assert x == ref_solve(a, b)
    if x is not None:
        assert matvec(a, x) == tuple(b)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(a):
    assert nullspace(a) == ref_nullspace(a)


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_reference(a):
    try:
        expected = ref_inverse(a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return
    assert inverse(a) == expected


@pytest.mark.parametrize("a", EDGE_CASES, ids=[f"edge{i}" for i in range(len(EDGE_CASES))])
def test_edge_cases_match_reference(a):
    assert rref(a) == ref_rref(a)
    assert rank(a) == ref_rank(a)
    assert nullspace(a) == ref_nullspace(a)
    if len(a) == len(a[0]):
        assert det(a) == ref_det(a)


def test_empty_shapes():
    assert rref(()) == ((), ())
    assert rank(()) == 0 and det(()) == 1
    no_cols = ((), (), ())
    assert rref(no_cols) == (no_cols, ())
    assert rank(no_cols) == 0
    assert solve(no_cols, [0, 0, 0]) == ()
    assert solve(no_cols, [0, 1, 0]) is None


def test_det_sign_on_permutation_matrices():
    seen = set()
    for n in range(1, 6):
        for p in permutations(range(n)):
            m = mat([[1 if p[i] == j else 0 for j in range(n)] for i in range(n)])
            inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            sign = -1 if inversions % 2 else 1
            assert det(m) == sign == ref_det(m)
            seen.add(sign)
    assert seen == {1, -1}


R0_SYSTEMS = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xA1", "A2+T1"]


@pytest.mark.parametrize("label", R0_SYSTEMS)
def test_canonical_r0_matches_pivot_readout(label):
    rs = build_root_system(label)
    count = 0
    for t in enumerate_valid_triples(rs):
        try:
            expected = ref_canonical_r0(rs, t)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_r0(rs, t, "canonical")
            continue
        assert solve_r0(rs, t, "canonical").r0 == expected
        count += 1
    assert count > 0
