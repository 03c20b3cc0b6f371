from fractions import Fraction

import pytest

from helpers import (
    cg_theta_target,
    form_perp_of_simples,
    madd,
    reference_cartan_split,
    subspace_contains,
)
from leafatlas import (
    Infeasible,
    build_root_system,
    cg_triple,
    compute_decomposition,
    dimension_summary,
    enumerate_valid_triples,
    solve_r0,
    validate_triple,
)
from leafatlas.bdtriple import CartanTerm, tau_linear_matrix
from leafatlas.decomp import cartan_domain, simple_span
from leafatlas.linalg import Subspace, matmul, matvec, transpose


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
    split = reference_cartan_split(rs, t, solve_r0(rs, t, "canonical"))
    # h_i is the Levi-center slice of h, of dimension rank - |gamma_i|
    assert split.h1.dim == 1 and split.h2.dim == 1
    assert split.h_ort1.dim == 0 and split.h_ort2.dim == 0
    assert split.a1.dim == 1 and split.a2.dim == 1
    # theta carries a1 onto a2
    for x in split.a1.vectors():
        assert subspace_contains(split.a2, matvec(d.theta_cartan, x))


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


def test_root_space_splits():
    rs, t, d = _cg_a2()
    assert set(d.levi1_roots) == {(1, 0), (-1, 0)}
    assert set(d.levi2_roots) == {(0, 1), (0, -1)}
    assert set(d.n_plus_roots) == {(0, 1), (1, 1)}
    assert set(d.n_minus_roots) == {(-1, 0), (-1, -1)}


# hand-built terms that the solver never produces: a singular r0 with
# h_ort1 != 0, one whose f - 1 is singular, and an A2 term with the right
# symmetric part whose skew part breaks the Cremmer-Gervais slot constraint
DEGENERATE = ((F(1, 4), F(0)), (F(0), F(0)))
SINGULAR_CAYLEY = ((F(1, 2), F(0)), (F(0), F(0)))
CG_A2_SLOT_VIOLATION = ((F(1, 3), F(-1, 3)), (F(2, 3), F(1, 3)))
SYMMETRIC_PART = r"^r0 \+ r0\^T does not equal the Cartan Casimir block$"


@pytest.mark.parametrize(
    "label, term, message",
    [
        ("A1xA1", DEGENERATE, SYMMETRIC_PART),
        ("A1xA1", SINGULAR_CAYLEY, SYMMETRIC_PART),
        ("A2", CG_A2_SLOT_VIOLATION, "^r0 violates the slot constraint for alpha_1$"),
    ],
    ids=["degenerate", "singular_cayley", "cg_a2_slot"],
)
def test_compute_decomposition_refuses_an_invalid_term(label, term, message):
    rs = build_root_system(label)
    t = cg_triple(rs) if label == "A2" else validate_triple(rs, (), (), {})
    with pytest.raises(Infeasible, match=message):
        compute_decomposition(rs, t, CartanTerm(term))


def test_degenerate_term_has_nonzero_h_ort_in_the_reference_split():
    """What the gate keeps out: the subspace chain on DEGENERATE gives
    h_ort1 != 0, which the leaf frame has no branch for."""
    rs = build_root_system("A1xA1")
    split = reference_cartan_split(rs, validate_triple(rs, (), (), {}), CartanTerm(DEGENERATE))
    assert split.h1.dim == 1 and split.h_ort1.dim == 1


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


def _non_canonical_terms():
    """A given term and a match_theta term that the canonical solver does not
    give: a skew part added by hand on the standard A3 triple, and the A2
    Coxeter rotation as the target theta of the standard A2 triple."""
    rs = build_root_system("A3")
    t = validate_triple(rs, (), (), {})
    half = tuple(tuple(x / 2 for x in row) for row in rs.gram_inverse)
    skew = ((F(0), F(1), F(0)), (F(-1), F(0), F(2)), (F(0), F(-2), F(0)))
    yield rs, t, CartanTerm(madd(half, skew))
    rs = build_root_system("A2")
    t = validate_triple(rs, (), (), {})
    yield rs, t, solve_r0(rs, t, "match_theta", theta_target=cg_theta_target(rs))


def test_every_validated_cartan_term_has_full_h():
    """r0 + r0^T = omega makes r0 invertible (decomp module docstring), so the
    subspace chain gives h_i = a_i = z_i and h_ort_i = 0, theta carries a1
    onto a2, and the chain's dimension counts are the closed forms of
    dimension_summary, whichever mode built r0."""
    terms = [(rs, t, solve_r0(rs, t, "canonical")) for rs, t in _summary_inputs()]
    others = list(_non_canonical_terms())
    for rs, t, term in others:
        assert term.r0 != solve_r0(rs, t, "canonical").r0
    for rs, t, term in terms + others:
        d = compute_decomposition(rs, t, term)
        split = reference_cartan_split(rs, t, term)
        k = rs.cartan_rank
        z1 = form_perp_of_simples(rs, t.gamma1)
        z2 = form_perp_of_simples(rs, t.gamma2)
        assert split.h1 == split.a1 == z1 and split.h2 == split.a2 == z2, t
        assert split.h_ort1.dim == split.h_ort2.dim == 0, t
        assert Subspace(k, [matvec(d.theta_cartan, x) for x in split.a1.vectors()]) == split.a2
        dims = dimension_summary(rs, t, d)
        for side, levi, gamma, a in (
            (1, d.levi1_roots, t.gamma1, split.a1),
            (2, d.levi2_roots, t.gamma2, split.a2),
        ):
            dom = simple_span(rs, gamma).add(a)
            assert dom == cartan_domain(rs, t, d, side) and dom.dim == k, (t, side)
            assert dims[f"dim_lprime{side}_a{side}"] == len(levi) + dom.dim
        assert dims["dim_m_plus"] == split.h_ort1.dim + len(d.n_plus_roots)
        assert dims["dim_m_minus"] == split.h_ort2.dim + len(d.n_minus_roots)
    assert len(terms) == 3 + 101
