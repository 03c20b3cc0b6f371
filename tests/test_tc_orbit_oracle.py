"""Twisted-conjugation orbit dimensions against the explicit two-step twist.

The oracles are the earlier bodies of the library code.  `tc_orbit_dim`
applied the twist x -> g x g^{-1} as a step of its own and then conjugated
by f; `cg_orbit_correspondence` took its gl(j) dimension as the rank of
x -> b x b^{-1} - x over every matrix unit of gl(j).  The library now
conjugates once by h = f g and takes the gl(j) rank over the sl(j) basis.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import test_acceptance
from helpers import coroot_matrix, unit_matrix
from leafatlas import build_root_system
from leafatlas.linalg import det, identity, inverse, mat, matmul, rank
from leafatlas.rootsys import levi_roots
from leafatlas.typea import (
    MatrixElement,
    SubalgebraNotPreserved,
    cg_orbit_correspondence,
    cg_sigma,
    conjugation_twist,
    identity_twist,
    perm_to_weyl,
    root_to_interval,
    tc_orbit_dim,
    wdot_matrix,
)
from leafatlas.weyl import enumerate_weyl

NOT_PRESERVED = "not preserved"


def _flatten(m):
    return tuple(x for row in m for x in row)


def _oracle_tc_orbit_dim(f, g, roots):
    """Rank of x -> f (g x g^{-1}) f^{-1} - x, twist first, then f."""
    size = len(f)
    fi = inverse(f)
    intervals = dict.fromkeys(root_to_interval(root) for root in roots)
    basis = [coroot_matrix(size, i) for i in range(size - 1)]
    basis += [unit_matrix(size, i, j) for i, j in intervals]
    span = [_flatten(b) for b in basis]
    gi = None if g is None else inverse(g)
    images = []
    for b, row in zip(basis, span):
        twisted = b if g is None else matmul(g, matmul(b, gi))
        moved = matmul(f, matmul(twisted, fi))
        images.append(tuple(p - q for p, q in zip(_flatten(moved), row)))
    if rank(span + images) > len(basis):
        raise SubalgebraNotPreserved("twisted image leaves the subalgebra span")
    return rank(images)


def _oracle_gl_dim(bm):
    """Rank of x -> b x b^{-1} - x over every matrix unit of gl(j)."""
    j = len(bm)
    bi = inverse(bm)
    images = []
    for p in range(j):
        for q in range(j):
            x = unit_matrix(j, p, q)
            y = matmul(bm, matmul(x, bi))
            images.append(tuple(u - v for u, v in zip(_flatten(y), _flatten(x))))
    return rank(images)


def _oracle_cg_orbit_correspondence(n, j, b):
    rs = build_root_system(f"A{n}")
    size = n + 1
    if j == 0:
        return _oracle_tc_orbit_dim(identity(size), wdot_matrix(cg_sigma(rs, 0)), []), 0
    bm = b.entries if isinstance(b, MatrixElement) else mat(b)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for r in range(j):
        for c in range(j):
            rows[r][c] = bm[r][c]
    for t in range(j, size - 1):
        rows[t][t] = Fraction(1)
    rows[size - 1][size - 1] = 1 / det(bm)
    g = wdot_matrix(cg_sigma(rs, j))
    tc = _oracle_tc_orbit_dim(mat(rows), g, levi_roots(rs, range(j - 1)))
    return tc, _oracle_gl_dim(bm)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SubalgebraNotPreserved:
        return NOT_PRESERVED


# ---------------------------------------------------------------------------
# random group elements of SL(n+1)


def _torus(size, rng):
    diag = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(size - 1)]
    prod = Fraction(1)
    for x in diag:
        prod *= x
    diag.append(1 / prod)
    return tuple(
        tuple(diag[r] if r == c else Fraction(0) for c in range(size))
        for r in range(size)
    )


def _levi_element(rs, indices, rng):
    """Torus element times unipotents whose entries stay in the Levi blocks."""
    size = rs.rank + 1
    m = _torus(size, rng)
    intervals = [root_to_interval(a) for a in levi_roots(rs, indices)]
    for _ in range(min(len(intervals), 2 * size)):
        i, j = rng.choice(intervals)
        u = [list(row) for row in identity(size)]
        u[i][j] = Fraction(rng.randint(-3, 3))
        m = matmul(m, mat(u))
    return m


def _draw(rs, weyl, indices, rng, allow_none):
    """A Levi element of the block, a Weyl representative, a dense element,
    or (for a twist) nothing."""
    kinds = ["levi", "weyl", "dense"] + (["none"] if allow_none else [])
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "levi":
        return _levi_element(rs, indices, rng)
    if kind == "weyl":
        return wdot_matrix(rng.choice(weyl))
    return _levi_element(rs, range(rs.rank), rng)


# ---------------------------------------------------------------------------
# tc_orbit_dim


def test_tc_orbit_dim_matches_the_two_step_oracle_on_a1_to_a4():
    rng = random.Random(71)
    seen = set()
    for n in range(1, 5):
        rs = build_root_system(f"A{n}")
        weyl = enumerate_weyl(rs)
        subsets = [
            frozenset(c) for k in range(n) for c in combinations(range(n), k)
        ]
        root_sets = [(range(n), list(rs.all_roots))]
        root_sets += [(s, levi_roots(rs, s)) for s in subsets]
        for indices, roots in root_sets:
            for _ in range(6):
                f = _draw(rs, weyl, indices, rng, allow_none=False)
                g = _draw(rs, weyl, indices, rng, allow_none=True)
                twist = identity_twist() if g is None else conjugation_twist(g)
                got = _outcome(tc_orbit_dim, MatrixElement(f, "group"), twist, roots)
                want = _outcome(_oracle_tc_orbit_dim, f, g, roots)
                assert got == want, (n, sorted(indices), f, g)
                seen.add(got == NOT_PRESERVED)
    # both the rank and the preservation check were exercised
    assert seen == {True, False}


def test_tc_orbit_dim_applies_the_twist_before_f():
    # f g is the transposition (0 1), which keeps the first A1 block of A3;
    # g f is (0 2), which does not, so conjugating in the wrong order raises
    rs = build_root_system("A3")
    f = wdot_matrix(perm_to_weyl(rs, (1, 2, 0, 3)))
    g = wdot_matrix(perm_to_weyl(rs, (0, 2, 1, 3)))
    assert matmul(f, g) != matmul(g, f)
    roots = levi_roots(rs, {0})
    got = tc_orbit_dim(MatrixElement(f, "group"), conjugation_twist(g), roots)
    assert got == _oracle_tc_orbit_dim(f, g, roots) == 2
    assert _outcome(_oracle_tc_orbit_dim, g, f, roots) == NOT_PRESERVED
    assert (
        _outcome(tc_orbit_dim, MatrixElement(g, "group"), conjugation_twist(f), roots)
        == NOT_PRESERVED
    )


def _rational_unimodular(size, rng):
    """Random integer matrix with its first row divided by the determinant,
    as the benchmark draws f: det 1, with real denominators."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)]
        d = det(mat(rows))
        if d not in (0, 1, -1):
            rows[0] = [x / d for x in rows[0]]
            return mat(rows)


def _rational_levi(rs, indices, rng):
    """A Levi element of the block with a torus part of proper fractions."""
    size = rs.rank + 1
    diag = [Fraction(rng.choice([-3, -2, 2, 3]), rng.choice([5, 7])) for _ in range(size - 1)]
    prod = Fraction(1)
    for x in diag:
        prod *= x
    torus = [[Fraction(0)] * size for _ in range(size)]
    for i, x in enumerate(diag + [1 / prod]):
        torus[i][i] = x
    return matmul(mat(torus), _levi_element(rs, indices, rng))


def test_tc_orbit_dim_with_rational_h_matches_the_oracle():
    rng = random.Random(29)
    outcomes = set()
    for n in range(1, 6):
        rs = build_root_system(f"A{n}")
        weyl = enumerate_weyl(rs)
        size = n + 1
        blocks = [frozenset(range(n))] + [frozenset({i}) for i in range(n)]
        for indices in blocks:
            roots = levi_roots(rs, indices)
            cases = [
                # dense rational f, no twist and a Weyl twist
                (_rational_unimodular(size, rng), None),
                (_rational_unimodular(size, rng), wdot_matrix(rng.choice(weyl))),
                # rational Levi elements of the block: the span is preserved
                (_rational_levi(rs, indices, rng), _rational_levi(rs, indices, rng)),
            ]
            for f, g in cases:
                twist = identity_twist() if g is None else conjugation_twist(g)
                got = _outcome(tc_orbit_dim, MatrixElement(f, "group"), twist, roots)
                assert got == _outcome(_oracle_tc_orbit_dim, f, g, roots), (n, indices, f, g)
                outcomes.add((got == NOT_PRESERVED, g is None))
    # a rank and a NOT_PRESERVED outcome, each with a non-identity twist
    assert {(False, False), (True, False), (False, True)} <= outcomes


def test_tc_orbit_dim_not_preserved_with_a_rational_h_and_a_weyl_twist():
    # f is a rational Levi element of the {0} block of A2; the twist
    # (0 2) moves E_01 to E_21, outside the span of the A1 block
    rs = build_root_system("A2")
    f = mat([[Fraction(2, 3), Fraction(1, 5), 0], [0, Fraction(3, 2), 0], [0, 0, 1]])
    g = wdot_matrix(perm_to_weyl(rs, (2, 1, 0)))
    roots = levi_roots(rs, {0})
    args = (MatrixElement(f, "group"), conjugation_twist(g), roots)
    assert _outcome(tc_orbit_dim, *args) == NOT_PRESERVED
    assert _outcome(_oracle_tc_orbit_dim, f, g, roots) == NOT_PRESERVED
    # with the twist (0 1), which keeps the block, both give the rank
    g = wdot_matrix(perm_to_weyl(rs, (1, 0, 2)))
    got = tc_orbit_dim(MatrixElement(f, "group"), conjugation_twist(g), roots)
    assert got == _oracle_tc_orbit_dim(f, g, roots) == 2


def test_full_root_set_matches_the_oracle_on_a1_to_a5():
    # with every root, S is all of sl(n+1) and the preservation rank is
    # skipped; the orbit rank must still be the oracle's
    rng = random.Random(43)
    for n in range(1, 6):
        rs = build_root_system(f"A{n}")
        weyl = enumerate_weyl(rs)
        roots = list(rs.all_roots)
        cases = [(_draw(rs, weyl, range(n), rng, False), _draw(rs, weyl, range(n), rng, True))
                 for _ in range(4)]
        cases += [(_rational_unimodular(n + 1, rng), wdot_matrix(rng.choice(weyl)))]
        for f, g in cases:
            twist = identity_twist() if g is None else conjugation_twist(g)
            got = tc_orbit_dim(MatrixElement(f, "group"), twist, roots)
            assert got == _oracle_tc_orbit_dim(f, g, roots), (n, f, g)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_roots_but_one_still_checks_preservation(n):
    # w0 sends E_theta to the root vector of -theta, the one root left out
    rs = build_root_system(f"A{n}")
    lowest = tuple(-1 for _ in range(n))
    roots = [a for a in rs.all_roots if a != lowest]
    assert len(roots) == len(rs.all_roots) - 1
    w0 = wdot_matrix(perm_to_weyl(rs, tuple(reversed(range(n + 1)))))
    args = (MatrixElement(w0, "group"), identity_twist(), roots)
    assert _outcome(tc_orbit_dim, *args) == NOT_PRESERVED
    assert _outcome(_oracle_tc_orbit_dim, w0, None, roots) == NOT_PRESERVED


def test_a_singular_twist_is_rejected():
    with pytest.raises(ValueError, match="singular"):
        conjugation_twist([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# cg_orbit_correspondence


def test_cg_orbit_correspondence_matches_the_oracle_on_check_7_samples(monkeypatch):
    # rerun acceptance check 7 with every cg_orbit_correspondence call it
    # makes compared against the oracle
    calls = []

    def compared(n, j, b):
        got = cg_orbit_correspondence(n, j, b)
        assert got == _oracle_cg_orbit_correspondence(n, j, b), (n, j, b)
        calls.append((n, j))
        return got

    monkeypatch.setattr(test_acceptance, "cg_orbit_correspondence", compared)
    test_acceptance.test_primary_7_orbit_dimension_oracle()
    # one j = 0 call and three blocks for each 1 <= j <= n, n = 1..4
    assert len(calls) == 4 + 3 * (1 + 2 + 3 + 4)
