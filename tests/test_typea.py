"""Matrix realization in sl(n+1): tensors, Bruhat patterns, twists.

The Bruhat oracle used here is independent of the elimination code: the
permutation of the cell through g is recovered from the ranks of the
lower-left corner submatrices, r(a, b) = rank(rows >= a, cols <= b), via
the unit second difference criterion.
"""

import hashlib
import random
import re
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from helpers import cg_orbit_correspondence, legs_traceless
from leafatlas import (
    build_root_system,
    cg_triple,
    compute_decomposition,
    enumerate_valid_triples,
    reduced_word,
    solve_r0,
    validate_triple,
)
from leafatlas.linalg import det, identity, mat, matmul, rank
from leafatlas.typea import (
    MatrixElement,
    NotInLevi,
    ParabolicBlocks,
    SubalgebraNotPreserved,
    TensorElement,
    block_labels,
    bruhat_decompose,
    casimir_tensor,
    cg_sigma,
    check_cybe,
    check_symmetric_part,
    identity_twist,
    matrix_rows,
    matrix_to_text,
    normalize_coset,
    perm_to_weyl,
    realize_r,
    root_to_interval,
    tc_orbit_dim,
    wdot_matrix,
    weyl_to_perm,
)
from leafatlas.leafclass import NotMinimalRep
from leafatlas.weyl import (
    ParabolicSubgroup,
    decompose_min,
    enumerate_weyl,
    minimal_coset_reps,
    simple_reflection,
    weyl_identity,
)

DATA = Path(__file__).parent / "data"


def F(p, q=1):
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# elements and tensors


def test_matrix_element_enforces_kind():
    MatrixElement([[2, 0], [0, F(1, 2)]], "group")
    with pytest.raises(ValueError):
        MatrixElement([[2, 0], [0, 1]], "group")
    MatrixElement([[1, 3], [0, -1]], "algebra")
    with pytest.raises(ValueError):
        MatrixElement([[1, 0], [0, 1]], "algebra")
    with pytest.raises(ValueError):
        MatrixElement([[1]], "weird")


def test_matrix_element_is_nonempty_and_square():
    # the empty matrix has determinant 1 and trace 0, so the kind checks
    # alone would pass it
    for kind in ("group", "algebra"):
        with pytest.raises(ValueError, match="non-empty and square"):
            MatrixElement(matrix_rows("# nothing\n"), kind)
    with pytest.raises(ValueError, match="non-empty and square"):
        MatrixElement([[0, 1]], "algebra")


def test_matrix_text_round_trip():
    m = MatrixElement([[F(1, 3), F(-2)], [F(0), F(3)]], "group")
    text = matrix_to_text(m)
    assert text == "1/3 -2\n0 3"
    back = MatrixElement(matrix_rows("# comment\n" + text + "\n"), "group")
    assert back.entries == m.entries


def test_tensor_element_basics():
    t = TensorElement(2, 2)
    t.add_term(((0, 1), (1, 0)), F(1))
    t.add_term(((0, 1), (1, 0)), F(-1))
    assert t.is_zero()
    t.add_term(((0, 0), (1, 1)), F(2))
    s = t.swap_legs()
    assert s.coefficients == {((1, 1), (0, 0)): F(2)}


def test_root_to_interval_both_signs():
    assert root_to_interval((1, 0)) == (0, 1)
    assert root_to_interval((1, 1)) == (0, 2)
    assert root_to_interval((0, -1)) == (2, 1)
    assert root_to_interval((-1, -1)) == (2, 0)


# ---------------------------------------------------------------------------
# the r matrix in sl(2) and the exactness checks


def test_sl2_trivial_triple_r_matrix_terms():
    rs = build_root_system("A1")
    t = validate_triple(rs, (), (), {})
    r = realize_r(1, t, solve_r0(rs, t, "canonical"))
    expected = TensorElement(2, 2)
    # (1/4) h (x) h
    for a, ca in (((0, 0), 1), ((1, 1), -1)):
        for b, cb in (((0, 0), 1), ((1, 1), -1)):
            expected.add_term((a, b), F(ca * cb, 4))
    # f (x) e
    expected.add_term(((1, 0), (0, 1)), F(1))
    assert r == expected


def test_cybe_and_symmetric_part_all_valid_a2_triples():
    rs = build_root_system("A2")
    for t in enumerate_valid_triples(rs):
        r = realize_r(2, t, solve_r0(rs, t, "canonical"))
        assert check_symmetric_part(r)
        assert check_cybe(r).is_zero()


def test_realize_r_rejects_a_cartan_term_of_another_rank():
    rs3, rs4 = build_root_system("A3"), build_root_system("A4")
    t4 = cg_triple(rs4)
    with pytest.raises(ValueError, match="A3 needs 3x3"):
        realize_r(3, cg_triple(rs3), solve_r0(rs4, t4, "canonical"))


def test_cybe_detects_a_perturbed_tensor():
    rs = build_root_system("A2")
    t = cg_triple(rs)
    r = realize_r(2, t, solve_r0(rs, t, "canonical"))
    broken = TensorElement(r.size, 2)
    for key, c in r.coefficients.items():
        broken.add_term(key, c)
    # flip the sign of one mixed wedge term
    key = ((1, 0), (1, 2))
    assert key in broken.coefficients
    broken.add_term(key, F(-2) * broken.coefficients[key])
    assert not check_cybe(broken).is_zero()


def test_casimir_is_swap_invariant_and_traceless_legs():
    c = casimir_tensor(2)
    assert c.swap_legs() == c
    assert legs_traceless(c)


# ---------------------------------------------------------------------------
# permutations and Bruhat patterns


def test_weyl_perm_round_trip_a3():
    rs = build_root_system("A3")
    for w in enumerate_weyl(rs):
        p = weyl_to_perm(w)
        assert sorted(p) == [0, 1, 2, 3]
        assert perm_to_weyl(rs, p).matrix == w.matrix
        assert det(wdot_matrix(w)) == 1


def test_perm_to_weyl_rejects_non_permutations():
    rs = build_root_system("A3")
    # a repeated, an out-of-range and a short entry list
    for bad in ([0, 0, 1, 2], [0, 1, 2, 5], [0, 1]):
        with pytest.raises(ValueError, match="not a permutation of 0..3"):
            perm_to_weyl(rs, bad)


def test_perm_to_weyl_rejects_systems_other_than_a_n():
    # B3 would give a matrix outside W(B3); A2+T1 one of the wrong size
    for label, perm in (("B3", (0, 1, 3, 2)), ("A2+T1", (0, 2, 1))):
        with pytest.raises(ValueError, match=re.escape(f"not of {label}")):
            perm_to_weyl(build_root_system(label), perm)
    a3 = build_root_system("A3")
    assert perm_to_weyl(a3, (0, 1, 3, 2)) == simple_reflection(a3, 2)


def _ref_weyl_to_perm(w):
    """The ε-vector decoding weyl_to_perm used before root_to_interval."""
    n = len(w.matrix)
    cols = [tuple(w.matrix[r][i] for r in range(n)) for i in range(n)]

    def eps_vector(c):
        u = [c[0]]
        for t in range(1, n):
            u.append(c[t] - c[t - 1])
        u.append(-c[n - 1])
        return u

    perm = [None] * (n + 1)
    partial = [0] * n
    for i in range(n):
        partial = [x + y for x, y in zip(partial, cols[i])]
        u = eps_vector(partial)
        if i == 0:
            perm[0] = u.index(1)
        perm[i + 1] = u.index(-1)
    return tuple(perm)


def _ref_wdot_matrix(w):
    """wdot_matrix with the permutation sign from a cycle walk."""
    perm = _ref_weyl_to_perm(w)
    size = len(perm)
    sign = 1
    seen = [False] * size
    for i in range(size):
        if not seen[i]:
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    rows = [[Fraction(0)] * size for _ in range(size)]
    flip = next((i for i in range(size) if perm[i] != i), None)
    for i in range(size):
        val = Fraction(-1) if (sign < 0 and i == flip) else Fraction(1)
        rows[perm[i]][i] = val
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_perm_and_wdot_match_reference(n):
    for w in enumerate_weyl(build_root_system(f"A{n}")):
        assert weyl_to_perm(w) == _ref_weyl_to_perm(w)
        assert wdot_matrix(w) == _ref_wdot_matrix(w)


def _oracle_perm(g):
    """Bruhat cell of g through lower-left corner ranks."""
    n = len(g.entries)

    def r(a, b):
        rows = [row[: b + 1] for row in g.entries[a:]]
        return rank(mat(rows)) if rows and rows[0] else 0

    perm = []
    for c in range(n):
        for p in range(n):
            jump = (
                r(p, c)
                - r(p + 1, c)
                - (r(p, c - 1) if c else 0)
                + (r(p + 1, c - 1) if c else 0)
            )
            if jump == 1:
                perm.append(p)
                break
    return tuple(perm)


def _random_sl(size, rng):
    while True:
        rows = [
            [F(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)
        ]
        d = det(mat(rows))
        if d != 0:
            rows[0] = [x / d for x in rows[0]]
            return MatrixElement(rows, "group")


def test_bruhat_borel_matches_rank_oracle():
    rng = random.Random(3)
    rs3 = build_root_system("A2")
    rs4 = build_root_system("A3")
    for size, rs in ((3, rs3), (4, rs4)):
        borel = ParabolicBlocks.upper(())
        for _ in range(20):
            g = _random_sl(size, rng)
            p1, wd, p2 = bruhat_decompose(g, borel, borel)
            assert matmul(matmul(p1.entries, wd.entries), p2.entries) == g.entries
            # triangular factors
            for r_i in range(size):
                for c_i in range(r_i):
                    assert p1.entries[r_i][c_i] == 0
                    assert p2.entries[r_i][c_i] == 0
            perm = tuple(
                next(r for r in range(size) if wd.entries[r][c] != 0)
                for c in range(size)
            )
            assert perm == _oracle_perm(g)


def test_bruhat_parabolic_refinement_matches_decompose_min():
    rng = random.Random(5)
    rs = build_root_system("A3")
    pairs = [((0,), (2,)), ((0, 1), (1, 2)), ((1,), ()), ((0, 2), (0, 2))]
    for left_idx, right_idx in pairs:
        left = ParabolicBlocks.upper(left_idx)
        right = ParabolicBlocks.upper(right_idx)
        for _ in range(10):
            g = _random_sl(4, rng)
            p1, wd, p2 = bruhat_decompose(g, left, right)
            assert matmul(matmul(p1.entries, wd.entries), p2.entries) == g.entries
            w_borel = perm_to_weyl(rs, _oracle_perm(g))
            expected = decompose_min(
                rs,
                w_borel,
                ParabolicSubgroup.of(left_idx),
                ParabolicSubgroup.of(right_idx),
            )[1]
            assert wd.entries == mat(wdot_matrix(expected))
            # p1 lives in the upper parabolic of the left index set
            from leafatlas.typea import block_labels

            labels = block_labels(frozenset(left_idx), 4)
            for r_i in range(4):
                for c_i in range(4):
                    if labels[r_i] > labels[c_i]:
                        assert p1.entries[r_i][c_i] == 0


def test_bruhat_lower_pair_and_mixed_rejection():
    rng = random.Random(9)
    low = ParabolicBlocks.lower_of((0,))
    for _ in range(10):
        g = _random_sl(3, rng)
        p1, wd, p2 = bruhat_decompose(g, low, low)
        assert matmul(matmul(p1.entries, wd.entries), p2.entries) == g.entries
        assert det(wd.entries) == 1
        from leafatlas.typea import block_labels

        labels = block_labels(frozenset({0}), 3)
        for r_i in range(3):
            for c_i in range(3):
                if labels[r_i] < labels[c_i]:
                    assert p1.entries[r_i][c_i] == 0
                    assert p2.entries[r_i][c_i] == 0
    with pytest.raises(ValueError):
        bruhat_decompose(
            _random_sl(3, rng), ParabolicBlocks.upper(()), ParabolicBlocks.lower_of(())
        )


def test_bruhat_rejects_block_indices_outside_the_simple_roots():
    g = _random_sl(3, random.Random(4))
    for blocks in (ParabolicBlocks.upper, ParabolicBlocks.lower_of):
        for bad in ((2,), (-1,)):
            with pytest.raises(ValueError, match="not a simple root of A2"):
                bruhat_decompose(g, blocks(bad), blocks(()))
            with pytest.raises(ValueError, match="not a simple root of A2"):
                bruhat_decompose(g, blocks(()), blocks(bad))


def _unitriangular(size, rng):
    return mat([
        [F(int(r == c) or (rng.randint(-2, 2) if r < c else 0)) for c in range(size)]
        for r in range(size)
    ])


def _bruhat_outcomes():
    """One line per (rank, draw, orientation) on A2-A5: the blocks and the
    factors (p1, wdot, p2) of bruhat_decompose on a seeded det-one matrix,
    dense or u1·wdot·u2 with unitriangular u1, u2 (so every cell is met)."""
    rng = random.Random(20)
    lines = []
    for n in range(2, 6):
        rs = build_root_system(f"A{n}")
        for draw in range(12):
            if draw % 2:
                g = _random_sl(n + 1, rng)
            else:
                perm = rng.sample(range(n + 1), n + 1)
                wd = wdot_matrix(perm_to_weyl(rs, perm))
                u1, u2 = _unitriangular(n + 1, rng), _unitriangular(n + 1, rng)
                g = MatrixElement(matmul(matmul(u1, wd), u2), "group")
            left = [i for i in range(n) if rng.random() < 0.35]
            right = [i for i in range(n) if rng.random() < 0.35]
            for blocks in (ParabolicBlocks.upper, ParabolicBlocks.lower_of):
                factors = bruhat_decompose(g, blocks(left), blocks(right))
                text = " | ".join(matrix_to_text(m).replace("\n", "; ") for m in factors)
                lines.append(f"A{n} {draw} {blocks.__name__} {left} {right}: {text}")
    return lines


def test_bruhat_outputs_match_their_pinned_digest():
    # the pin reads as sha256sum -c input
    lines = _bruhat_outcomes()
    assert len(lines) == 96
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (DATA / "bruhat_decompose.sha256").read_text().split()[0]


# ---------------------------------------------------------------------------
# twisted conjugation


def test_plain_conjugation_orbit_dims_sl2():
    roots = [(1,), (-1,)]
    reg = MatrixElement([[2, 0], [0, F(1, 2)]], "group")
    assert tc_orbit_dim(reg, identity_twist(), roots) == 2
    one = MatrixElement(identity(2), "group")
    assert tc_orbit_dim(one, identity_twist(), roots) == 0
    unip = MatrixElement([[1, 1], [0, 1]], "group")
    assert tc_orbit_dim(unip, identity_twist(), roots) == 2


def test_orbit_dim_constant_along_the_orbit():
    rng = random.Random(21)
    roots = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
    f = MatrixElement([[2, 1, 0], [0, 1, 3], [0, 0, F(1, 2)]], "group")
    base = tc_orbit_dim(f, identity_twist(), roots)
    # a repeated root adds nothing to the span
    assert tc_orbit_dim(f, identity_twist(), roots + roots[:3]) == base
    for _ in range(5):
        t = _random_sl(3, rng)
        moved = MatrixElement(
            matmul(matmul(t.entries, f.entries), _inv(t.entries)), "group"
        )
        assert tc_orbit_dim(moved, identity_twist(), roots) == base


def _inv(m):
    from leafatlas.linalg import inverse

    return inverse(m)


def test_orbit_dim_rejects_unstable_subalgebra():
    # conjugation by this cycle moves the first block span away from itself,
    # whether it comes from f or from the twist (with f = 1)
    rs = build_root_system("A2")
    w = perm_to_weyl(rs, (1, 2, 0))
    f = MatrixElement(wdot_matrix(w), "group")
    with pytest.raises(SubalgebraNotPreserved):
        tc_orbit_dim(f, identity_twist(), [(1, 0), (-1, 0)])
    one = MatrixElement(identity(3), "group")
    cycle = wdot_matrix(w)
    # repeated roots must not inflate the span rank the check compares against
    for roots in ([(1, 0), (-1, 0)], [(1, 0), (-1, 0)] * 2):
        with pytest.raises(SubalgebraNotPreserved):
            tc_orbit_dim(one, cycle, roots)


def test_cg_orbit_correspondence_fixed_points():
    assert cg_orbit_correspondence(3, 0, None) == (3, 0)
    assert cg_orbit_correspondence(3, 1, [[3]]) == (2, 0)
    assert cg_orbit_correspondence(3, 3, [[1, 0, 0], [0, 2, 0], [0, 0, 5]]) == (6, 6)


# ---------------------------------------------------------------------------
# coset normalization


def _cg_setup(label):
    rs = build_root_system(label)
    t = cg_triple(rs)
    d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
    return rs, t, d


def test_normalize_rejects_bad_inputs():
    rs, t, d = _cg_setup("A2")
    off_block = MatrixElement(
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]], "group"
    )
    with pytest.raises(NotInLevi):
        normalize_coset(off_block, weyl_identity(rs), t, d)
    l = MatrixElement(identity(3), "group")
    with pytest.raises(NotMinimalRep):
        normalize_coset(l, simple_reflection(rs, 0), t, d)


def test_normalize_rejects_a_weyl_element_of_another_rank():
    rs, t, d = _cg_setup("A3")
    l = MatrixElement(identity(4), "group")
    with pytest.raises(ValueError, match="not in W\\(A3\\)"):
        normalize_coset(l, weyl_identity(build_root_system("A4")), t, d)


def test_normalize_rejects_a_triple_of_another_rank():
    # cg_triple(A4) has gamma2 = {1, 2, 3}; alpha_4 (index 3) is not a root of A3
    _, t, d = _cg_setup("A4")
    l = MatrixElement(identity(4), "group")
    with pytest.raises(ValueError, match="needs A4 or more, the l is A3"):
        normalize_coset(l, weyl_identity(build_root_system("A3")), t, d)


def test_normalize_sl3_strata():
    rs, t, d = _cg_setup("A2")
    s1 = simple_reflection(rs, 1)
    generic = MatrixElement([[1, 2, 0], [1, 3, 0], [0, 0, 1]], "group")
    v, gk = normalize_coset(generic, s1, t, d)
    assert reduced_word(rs, v) == (0, 1)
    diag = MatrixElement([[2, 0, 0], [0, 3, 0], [0, 0, F(1, 6)]], "group")
    v, gk = normalize_coset(diag, s1, t, d)
    assert reduced_word(rs, v) == (1,)
    # identity coset rep returns the input unchanged
    l = MatrixElement([[2, 1, 0], [0, F(1, 2), 0], [0, 0, 1]], "group")
    v, gk = normalize_coset(l, weyl_identity(rs), t, d)
    assert v.length == 0
    assert gk.entries == l.entries


def test_normalize_idempotent_on_outputs():
    rng = random.Random(13)
    rs, t, d = _cg_setup("A2")
    s1 = simple_reflection(rs, 1)
    for _ in range(6):
        block = [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        dd = det(mat(block))
        if dd == 0:
            continue
        l = MatrixElement(
            [
                [block[0][0] / dd, block[0][1] / dd, 0],
                [block[1][0], block[1][1], 0],
                [0, 0, 1],
            ],
            "group",
        )
        v, gk = normalize_coset(l, s1, t, d)
        assert reduced_word(rs, v) in {(0, 1), (1,), ()}
        v2, gk2 = normalize_coset(gk, v, t, d)
        assert v2.matrix == v.matrix


def _levi_draw(rng, gamma1, size):
    """A determinant-one element of the Levi of gamma1: a unit lower times a
    unit upper triangular block on each block of the pattern, times a
    diagonal of small rationals."""
    labels = block_labels(gamma1, size)
    lower = [[F(int(r == c)) for c in range(size)] for r in range(size)]
    upper = [row[:] for row in lower]
    for r in range(size):
        for c in range(r):
            if labels[r] == labels[c]:
                lower[r][c] = F(rng.randint(-2, 2))
                upper[c][r] = F(rng.randint(-2, 2))
    diag = [F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3])) for _ in range(size - 1)]
    last = 1 / prod(diag)
    scale = [[F(0)] * size for _ in range(size)]
    for i, x in enumerate(diag + [last]):
        scale[i][i] = x
    return MatrixElement(matmul(matmul(mat(lower), mat(upper)), mat(scale)), "group")


def _normalize_outcomes():
    """One line per (triple, w in W^Gamma1, draw) over the CG triples of
    A2-A5 and every valid triple of A3: the output (v, gK), or the error."""
    cases = [(n, cg_triple(build_root_system(f"A{n}"))) for n in range(2, 6)]
    cases += [(3, t) for t in enumerate_valid_triples(build_root_system("A3"))]
    rng = random.Random(19)
    lines = []
    for n, t in cases:
        rs = build_root_system(f"A{n}")
        d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
        reps = minimal_coset_reps(
            rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(t.gamma1)
        )
        for w in reps:
            for draw in range(2):
                l = _levi_draw(rng, t.gamma1, n + 1)
                try:
                    v, gk = normalize_coset(l, w, t, d)
                    out = f"{v.matrix} {matrix_to_text(gk).replace(chr(10), '; ')}"
                except (ValueError, AssertionError) as e:
                    out = f"{type(e).__name__}: {e}"
                lines.append(f"A{n} {t.tau} {reduced_word(rs, w)} {draw}: {out}")
    return lines


def test_normalize_outputs_match_their_pinned_digest():
    # the pin reads as sha256sum -c input
    lines = _normalize_outcomes()
    raised = [x for x in lines if "Error: " in x]
    assert len(lines) == 244 and 0 < len(raised) < len(lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (DATA / "normalize_coset.sha256").read_text().split()[0]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: right-coset-minimal w that is not double-coset "
    "minimal leaves a non-minimal representative",
)
def test_normalize_accepts_every_right_coset_minimal_rep():
    rs, t, d = _cg_setup("A3")
    w = perm_to_weyl(rs, [0, 2, 3, 1])  # s2·s3, minimal in w·W_{Γ1}
    l = MatrixElement(
        [[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]], "group"
    )
    v, _ = normalize_coset(l, w, t, d)
    assert v.matrix in {cg_sigma(rs, j).matrix for j in range(4)}


def test_cg_sigma_words():
    rs = build_root_system("A3")
    words = [reduced_word(rs, cg_sigma(rs, j)) for j in range(4)]
    assert words == [(0, 1, 2), (1, 2), (2,), ()]
