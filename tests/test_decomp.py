import dataclasses
from fractions import Fraction

import pytest

from leafatlas import (
    DegenerateComplement,
    build_root_system,
    cg_triple,
    compute_decomposition,
    dimension_summary,
    enumerate_valid_triples,
    full_h_predicate,
    solve_r0,
    validate_triple,
)
from leafatlas.bdtriple import CartanTerm, tau_linear_matrix
from leafatlas.decomp import cartan_domain
from leafatlas.linalg import matmul, matvec, transpose


def F(p, q=1):
    return Fraction(p, q)


def _cg_a2():
    rs = build_root_system("A2")
    t = cg_triple(rs)
    d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
    return rs, t, d


def _tau_on_levi1(rs, t, d):
    """Sorted pairs (a, tau(a)) over the first Levi's roots."""
    tlin = tau_linear_matrix(rs, t)
    return tuple(sorted((a, matvec(tlin, a)) for a in d.levi1_roots))


def test_cg_a2_dimension_summary():
    rs, t, d = _cg_a2()
    assert dimension_summary(rs, t, d) == {
        "dim_g": 8,
        "dim_l1": 4,
        "dim_l2": 4,
        "dim_lprime1_a1": 4,
        "dim_lprime2_a2": 4,
        "dim_h_ort1": 0,
        "dim_h_ort2": 0,
        "dim_n_plus": 2,
        "dim_n_minus": 2,
        "dim_g_plus": 6,
        "dim_g_minus": 6,
        "dim_m_plus": 2,
        "dim_m_minus": 2,
    }


def test_cg_a2_theta_on_h():
    rs, t, d = _cg_a2()
    theta = d.theta_cartan
    assert theta == ((F(0), F(-1)), (F(1), F(-1)))
    # gram isometry
    assert matmul(matmul(transpose(theta), rs.gram), theta) == rs.gram
    # no fixed vectors: 1 is never an eigenvalue of a Cayley transform
    one_minus = tuple(
        tuple((1 if i == j else 0) - theta[i][j] for j in range(2))
        for i in range(2)
    )
    from leafatlas.linalg import rank

    assert rank(one_minus) == 2


def test_cg_a2_theta_extends_tau_on_roots():
    rs, t, d = _cg_a2()
    assert _tau_on_levi1(rs, t, d) == (((-1, 0), (0, -1)), ((1, 0), (0, 1)))


def test_cg_a2_full_h_and_subspaces():
    rs, t, d = _cg_a2()
    assert full_h_predicate(d)
    # h_i is the Levi-center slice of h, of dimension rank - |gamma_i|
    assert d.h1.dim == 1 and d.h2.dim == 1
    assert d.h_ort1.dim == 0 and d.h_ort2.dim == 0
    assert d.a1.dim == 1 and d.a2.dim == 1
    # theta carries a1 onto a2
    for x in d.a1.vectors():
        assert d.a2.contains(matvec(d.theta_cartan, x))


# simply- and non-simply-laced systems up to rank 4, products and a torus:
# 88 canonical triples on the first ten labels, 3 on each of the last two
THETA_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4", "A2xA1", "A1xA1", "A2+T1"]


def test_theta_is_an_isometry_extending_tau_on_every_canonical_triple():
    """theta^T G theta = G, and theta(alpha_i) = alpha_tau(i) for i in Gamma1."""
    checked = 0
    for label in THETA_LABELS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            theta = compute_decomposition(rs, t, solve_r0(rs, t, "canonical")).theta_cartan
            assert matmul(matmul(transpose(theta), rs.gram), theta) == rs.gram, (label, t)
            for i, j in t.tau:
                assert matvec(theta, rs.simple_roots[i]) == rs.simple_roots[j], (label, t, i)
            checked += 1
    assert checked == 94


def test_standard_theta_is_minus_one():
    for label in ("A1", "A2", "B2"):
        rs = build_root_system(label)
        t = validate_triple(rs, (), (), {})
        d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
        k = rs.cartan_rank
        assert d.theta_cartan == tuple(
            tuple(F(-1) if i == j else F(0) for j in range(k)) for i in range(k)
        )
        assert _tau_on_levi1(rs, t, d) == ()
        assert full_h_predicate(d)


def test_root_space_splits():
    rs, t, d = _cg_a2()
    assert set(d.levi1_roots) == {(1, 0), (-1, 0)}
    assert set(d.levi2_roots) == {(0, 1), (0, -1)}
    assert set(d.n_plus_roots) == {(0, 1), (1, 1)}
    assert set(d.n_minus_roots) == {(-1, 0), (-1, -1)}


# the solver never produces a singular Cartan term, so the degenerate
# branches below are reachable only through a hand-built unvalidated term
DEGENERATE = ((F(1, 4), F(0)), (F(0), F(0)))


def test_unvalidated_degenerate_term_breaks_full_h():
    rs = build_root_system("A1xA1")
    t = validate_triple(rs, (), (), {})
    d = compute_decomposition(rs, t, CartanTerm(DEGENERATE))
    assert not full_h_predicate(d)
    assert d.h1.dim == 1


def test_singular_cayley_transform_is_degenerate():
    rs = build_root_system("A1xA1")
    t = validate_triple(rs, (), (), {})
    with pytest.raises(DegenerateComplement):
        compute_decomposition(
            rs, t, CartanTerm(((F(1, 2), F(0)), (F(0), F(0))))
        )


# every valid triple of these systems also goes through the consistency checks
_SUMMARY_SYSTEMS = (
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2",
    "A1xA1", "A2xA1", "A2+T1", "F4",
)


def _summary_inputs():
    for label, gamma in (("A3", "cg"), ("A3", "std"), ("B3", "std")):
        rs = build_root_system(label)
        yield rs, cg_triple(rs) if gamma == "cg" else validate_triple(rs, (), (), {})
    for label in _SUMMARY_SYSTEMS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            yield rs, t


def test_dimension_summary_counts_are_consistent():
    sides = 0
    for rs, t in _summary_inputs():
        d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
        dims = dimension_summary(rs, t, d)
        n_roots = 2 * len(rs.positive_roots)
        assert dims["dim_g"] == n_roots + rs.cartan_rank
        assert dims["dim_g_plus"] + dims["dim_m_minus"] == dims["dim_g"]
        assert dims["dim_g_minus"] + dims["dim_m_plus"] == dims["dim_g"]
        assert dims["dim_m_plus"] == dims["dim_h_ort1"] + dims["dim_n_plus"]
        # l'_i + a_i counted from the Cartan domain subspace itself
        for side, levi in ((1, d.levi1_roots), (2, d.levi2_roots)):
            dom = cartan_domain(rs, t, d, side)
            assert dims[f"dim_lprime{side}_a{side}"] == len(levi) + dom.dim, (t, side)
            sides += 1
    assert sides == 2 * 3 + 202
