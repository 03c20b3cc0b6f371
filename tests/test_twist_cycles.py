"""cong_dim against the cycle count of the twist on its stable simple roots.

The twist psi (v one-sided, v1·theta^-1·v2·theta two-sided) is an isometry
that permutes the simple roots alpha_i, i in S, of its stable subsystem by a
permutation phi.  On span{alpha_i : i in S}, psi - 1 then has rank
|S| - #cycles(phi on S), and psi keeps the orthogonal complement, so

    cong_dim = rank(psi - 1 on lv_center) = rank(psi - 1) - |S| + #cycles.

(Steinberg, Endomorphisms of linear algebraic groups, Mem. AMS 80 (1968).)
``leafclass._Frame`` computes cong_dim by this identity (``_cong_dim``), so
this module is its oracle: everything here is computed from v1, v2, tau and
theta alone, on roots and Fraction matrices, without the leaf frame's index
walk or integer scaling.  The last test plants columns that break the
identity's premise and expects ``_cong_dim`` to refuse them.
"""

from __future__ import annotations

import pytest

from helpers import msub
from leafatlas import (
    build_root_system,
    classify_g,
    classify_gminus,
    compute_decomposition,
    enumerate_valid_triples,
    solve_r0,
    validate_triple,
)
from leafatlas.leafclass import _cong_dim
from leafatlas.linalg import identity, inverse, matmul, matvec, rank


def _root_map(rs, m, i, domain):
    """j with m·alpha_i = alpha_j for j in domain, else None."""
    image = matvec(m, rs.simple_roots[i])
    return next((j for j in domain if rs.simple_roots[j] == image), None)


def _phi(rs, t, v1, v2=None):
    """The twist on the simple-root indices of Gamma1, None where it leaves
    them: v on its own, or alpha_i -> v1·tau^-1·v2·tau(alpha_i)."""
    tau = dict(t.tau)
    tau_inv = {j: i for i, j in t.tau}
    phi = {}
    for i in t.gamma1:
        if v2 is None:
            phi[i] = _root_map(rs, v1.matrix, i, t.gamma1)
            continue
        j = _root_map(rs, v2.matrix, tau[i], t.gamma2)
        phi[i] = None if j is None else _root_map(rs, v1.matrix, tau_inv[j], t.gamma1)
    return phi


def _stable(phi):
    """The largest S that phi maps into itself."""
    s = set(phi)
    while not all(phi[i] in s for i in s):
        s = {i for i in s if phi[i] in s}
    return s


def _cycles(phi, s):
    seen, count = set(), 0
    for i in s:
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = phi[i]
    return count


def _predicted(rs, t, psi, phi):
    """rank(psi - 1) - |S| + #cycles(phi on S), and #cycles < |S|."""
    s = _stable(phi)
    for i in s:
        assert matvec(psi, rs.simple_roots[i]) == rs.simple_roots[phi[i]]
    cycles = _cycles(phi, s)
    return rank(msub(psi, identity(rs.cartan_rank))) - len(s) + cycles, cycles < len(s)


def _decomposition(rs, t):
    return compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))


def test_one_sided_cong_dim_is_the_cycle_formula_on_a4_and_d4():
    checked = permuted = 0
    for label in ("A4", "D4"):
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            for r in classify_gminus(rs, t, _decomposition(rs, t)):
                want, moved = _predicted(rs, t, r.v.matrix, _phi(rs, t, r.v))
                assert r.stable.cong_dim == want, (label, t, r.v)
                checked += 1
                permuted += moved
    assert checked == 1270 + 1824
    assert permuted == 10 + 30


# the valid A4 triples (0-based tau) that hold all 20 pair records whose
# twist permutes S nontrivially
A4_PERMUTING = [
    {0: 3, 2: 0}, {0: 1, 2: 3}, {0: 3, 2: 1}, {0: 2, 3: 0}, {0: 3, 3: 1},
    {1: 0, 3: 2}, {1: 2, 3: 0}, {1: 3, 3: 0}, {0: 2, 1: 3, 3: 0}, {0: 3, 2: 0, 3: 1},
]


def test_two_sided_cong_dim_is_the_cycle_formula_on_a4():
    rs = build_root_system("A4")
    checked = permuted = 0
    for tau in A4_PERMUTING:
        t = validate_triple(rs, tau.keys(), tau.values(), tau)
        d = _decomposition(rs, t)
        theta, theta_inv = d.theta_cartan, inverse(d.theta_cartan)
        for r in classify_g(rs, t, d):
            psi = matmul(r.v1.matrix, matmul(theta_inv, matmul(r.v2.matrix, theta)))
            want, moved = _predicted(rs, t, psi, _phi(rs, t, r.v1, r.v2))
            assert r.stable.cong_dim == want, (t, r.v1, r.v2)
            checked += 1
            permuted += moved
    assert checked == 8 * 900 + 2 * 100
    assert permuted == 20


def test_cong_dim_counts_cycles_of_a_scaled_permutation():
    # the swap of e_0 and e_1, fixing e_2: one cycle on S = {0, 1}, and
    # m - c·1 has rank 1, so psi - 1 vanishes on the perp e_2
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    for c in (1, 2, -3):
        m = tuple(tuple(c * x for x in row) for row in swap)
        assert _cong_dim(m, c, frozenset({0, 1})) == 0
    # -1 on e_2 and the swap again: rank 2 - |S| + 1 cycle
    flip = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert _cong_dim(flip, 1, frozenset({0, 1})) == 1
    assert _cong_dim(flip, 1, frozenset()) == 2


@pytest.mark.parametrize(
    "m,c,s",
    [
        # column 0 is e_0 + e_1, not a multiple of one unit vector
        (((1, 0, 0), (1, 1, 0), (0, 0, 1)), 1, {0}),
        # column 0 is e_1, and 1 is not in S
        (((0, 1, 0), (1, 0, 0), (0, 0, 1)), 1, {0}),
        # column 0 is e_0, not c·e_0
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2, {0, 2}),
        # column 1 is -e_0: psi sends alpha_1 to -alpha_0
        (((0, -1, 0), (1, 0, 0), (0, 0, 1)), 1, {0, 1}),
    ],
    ids=["sum", "outside", "scale", "sign"],
)
def test_cong_dim_rejects_a_column_that_is_not_a_simple_root_of_s(m, c, s):
    with pytest.raises(AssertionError, match="does not permute the simple roots"):
        _cong_dim(m, c, frozenset(s))
