"""Triple validation, r0 solving, and the Cayley-transform targets.

The A2 values pinned here were worked out by hand: with gamma1 = {0},
gamma2 = {1}, tau(0) = 1 the constraint system for the skew part has a
unique solution, so the canonical matrix is forced.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from helpers import cg_theta_target, madd, msub, reference_check_cartan_term

from leafatlas import (
    build_root_system,
    cg_triple,
    enumerate_valid_triples,
    induction_chain,
    partial_order_pairs,
    solve_r0,
    tau_linear_matrix,
    validate_triple,
)
from leafatlas.bdtriple import (
    Infeasible,
    NotBijective,
    NotIsometry,
    NotNilpotent,
    TargetThetaNotIsometry,
    check_cartan_term,
)
from leafatlas.linalg import matmul, transpose


def F(p, q=1):
    return Fraction(p, q)


def test_validate_accepts_cg_and_records_order():
    rs = build_root_system("A3")
    t = cg_triple(rs)
    assert t.gamma1 == (0, 1)
    assert t.gamma2 == (1, 2)
    assert t.tau_map == {0: 1, 1: 2}
    # minimal chain length into gamma2 minus gamma1, maximized over gamma1
    assert t.ord_tau == 2


def test_validate_rejects_non_bijection():
    rs = build_root_system("A2")
    with pytest.raises(NotBijective):
        validate_triple(rs, (0, 1), (1,), {0: 1, 1: 1})


def test_validate_rejects_non_isometry():
    rs = build_root_system("B2")
    # alpha_0 is long, alpha_1 is short
    with pytest.raises(NotIsometry):
        validate_triple(rs, (0,), (1,), {0: 1})


def test_validate_rejects_non_nilpotent():
    rs = build_root_system("A2")
    with pytest.raises(NotNilpotent):
        validate_triple(rs, (0, 1), (0, 1), {0: 1, 1: 0})


VALID_TRIPLE_COUNTS = {"A1": 1, "A2": 3, "A3": 9}


@pytest.mark.parametrize("label,count", sorted(VALID_TRIPLE_COUNTS.items()))
def test_valid_triple_count(label, count):
    rs = build_root_system(label)
    triples = enumerate_valid_triples(rs)
    assert len(triples) == count
    # the empty triple is always present
    assert any(t.gamma1 == () for t in triples)


def test_partial_order_pairs_cg():
    rs3 = build_root_system("A3")
    pairs3 = partial_order_pairs(rs3, cg_triple(rs3))
    assert len(tuple(pairs3)) == 4
    rs2 = build_root_system("A2")
    pairs2 = tuple(partial_order_pairs(rs2, cg_triple(rs2)))
    assert pairs2 == (((1, 0), (0, 1)),)


def test_tau_linear_matrix_moves_simples():
    rs = build_root_system("A2")
    m = tau_linear_matrix(rs, cg_triple(rs))
    assert [row[0] for row in m] == [F(0), F(1)]


def test_canonical_r0_cg_a2_is_forced():
    rs = build_root_system("A2")
    r0 = solve_r0(rs, cg_triple(rs), "canonical")
    assert r0 == ((F(1, 3), F(1, 3)), (F(0), F(1, 3)))


# the labels of the slot-check oracle test below
CHECK_LABELS = ("A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4", "A2xA1", "A2+T1")


def test_canonical_r0_symmetric_part_is_half_omega0():
    """The canonical branch solves both constraints exactly and runs no
    check of its own; every term it gives passes check_cartan_term."""
    checked = 0
    for label in CHECK_LABELS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            m = solve_r0(rs, t, "canonical")
            assert madd(m, transpose(m)) == rs.gram_inverse, (label, t)
            check_cartan_term(rs, t, m)
            checked += 1
    assert checked == 90


def _check_outcome(check, rs, t, m):
    """None if check accepts the term, else the Infeasible message."""
    try:
        check(rs, t, m)
    except Infeasible as e:
        return str(e)
    return None


def _perturbed_terms(rs, t):
    """The canonical term, the canonical term plus a skew unit pair at each
    position i < j (which keeps r0 + r0^T = omega and can break a slot
    constraint), and the canonical term with its corner entry moved."""
    m = solve_r0(rs, t, "canonical")
    yield m
    k = len(m)
    for i, j in combinations(range(k), 2):
        yield tuple(
            tuple(x + ((p, q) == (i, j)) - ((p, q) == (j, i)) for q, x in enumerate(row))
            for p, row in enumerate(m)
        )
    yield ((m[0][0] + F(1, 5),) + m[0][1:],) + m[1:]


def test_column_slot_check_matches_the_matvec_oracle():
    """check_cartan_term reads the slot constraints off the columns of
    f = r0·G; the r0^T·G·e_tau(i) + r0·G·e_i form agrees on every term."""
    outcomes = []
    for label in CHECK_LABELS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            for m in _perturbed_terms(rs, t):
                got = _check_outcome(check_cartan_term, rs, t, m)
                assert got == _check_outcome(reference_check_cartan_term, rs, t, m), (label, t, m)
                outcomes.append(got)
    # 614 terms: 126 pass, 398 break a slot constraint, 90 the symmetric part
    kinds = [o if o is None else o.split()[1] for o in outcomes]
    assert (kinds.count(None), kinds.count("violates"), kinds.count("+")) == (126, 398, 90)


def test_from_file_mode_validates_matrix():
    """An r0 = file: term is the matrix as read; compute_decomposition,
    the one gate, validates it."""
    from leafatlas import compute_decomposition

    rs = build_root_system("A2")
    t = cg_triple(rs)
    good = solve_r0(rs, t, "canonical")
    assert compute_decomposition(rs, t, good).f_cartan == matmul(good, rs.gram)
    bad = tuple(tuple(x + F(1, 7) for x in row) for row in good)
    with pytest.raises(Infeasible):
        compute_decomposition(rs, t, bad)


@pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3), (3, 3)])
def test_cartan_term_of_the_wrong_shape_is_infeasible(rows, cols):
    rs = build_root_system("A2")
    term = tuple((F(0),) * cols for _ in range(rows))
    with pytest.raises(Infeasible, match=f"^r0 is {rows}x{cols}, A2 needs 2x2$"):
        check_cartan_term(rs, cg_triple(rs), term)


def test_match_theta_rejects_a_target_of_the_wrong_shape():
    rs = build_root_system("A2")
    target = ((F(0), F(0), F(1)), (F(1), F(0), F(0)), (F(0), F(1), F(0)))
    with pytest.raises(TargetThetaNotIsometry, match="^target is 3x3, A2 needs 2x2$"):
        solve_r0(rs, cg_triple(rs), "match_theta", theta_target=target)


def test_match_theta_reproduces_cg_target():
    rs = build_root_system("A2")
    t = cg_triple(rs)
    target = cg_theta_target(rs)
    assert target == ((F(0), F(-1)), (F(1), F(-1)))
    r0 = solve_r0(rs, t, "match_theta", theta_target=target)
    # feeding the result through the Cayley transform must return the target
    from leafatlas import compute_decomposition

    d = compute_decomposition(rs, t, r0)
    assert d.theta_cartan == target


def test_match_theta_rejects_non_isometry():
    rs = build_root_system("A2")
    t = cg_triple(rs)
    with pytest.raises(TargetThetaNotIsometry):
        solve_r0(
            rs, t, "match_theta", theta_target=((F(1), F(0)), (F(0), F(2)))
        )


def test_theta_target_is_gram_isometry():
    for n in (2, 3, 4):
        rs = build_root_system(f"A{n}")
        t = cg_theta_target(rs)
        assert matmul(matmul(transpose(t), rs.gram), t) == rs.gram


def test_induction_chain_ord_decrements_by_one():
    rs = build_root_system("A4")
    chain = induction_chain(rs, cg_triple(rs))
    orders = [t.ord_tau for _, t in chain]
    assert orders[0] == 3
    for a, b in zip(orders, orders[1:]):
        assert a - b == 1
    last_support, last_triple = chain[-1]
    assert last_triple.gamma1 == ()
