"""Leaf and coset dimension records plus the discrete group Sigma.

Dimension oracles used below:
  - one-sided, trivial triple: leaf = l(w) + rank(Ad_w - 1) on h, and the
    coset adds dim b_+;
  - two-sided, trivial triple: leaf = l(v1) + l(v2) + rank(v1 v2 - 1) on h;
  - the one-sided Cremmer-Gervais family has its own closed form, exercised
    in the acceptance suite.
Both trivial-triple forms are recomputed here from the Weyl matrices, so
the classification code is checked against independent arithmetic.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from helpers import msub, parabolic_elements, reference_sigma, solve
from leafatlas import (
    AffineDim,
    FiniteAbelianGroup,
    build_root_system,
    cg_triple,
    classify_g,
    classify_gminus,
    compute_decomposition,
    enumerate_valid_triples,
    exp_kernel_lattice,
    reduced_word,
    sigma_group,
    solve_r0,
    stable_subalgebra_pair,
    stable_subalgebra_v,
    validate_triple,
)
from leafatlas import leafclass
from leafatlas.cli import JobConfig, run_job
from leafatlas.leafclass import (
    NonCommensurableLattices,
    NotMinimalRep,
    ThetaMinusOneSingular,
)
from leafatlas.linalg import (
    Lattice,
    identity,
    mat,
    quotient_invariants,
    rank,
)
from leafatlas.weyl import ParabolicSubgroup, enumerate_weyl, simple_reflection


def _setup(label, kind):
    rs = build_root_system(label)
    t = cg_triple(rs) if kind == "cg" else validate_triple(rs, (), (), {})
    d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
    return rs, t, d


def _ad_rank(w):
    k = len(w.matrix)
    return rank(msub(mat([list(r) for r in w.matrix]), identity(k)))


def test_affine_dim_formatting_and_eval():
    assert str(AffineDim(4)) == "d_orb + 4"
    assert str(AffineDim(0)) == "d_orb"
    assert AffineDim(4).at(2) == 6


def test_finite_abelian_group_validation():
    g = FiniteAbelianGroup((2, 6), 0)
    assert g.order == 12
    assert str(g) == "Z/2 x Z/6"
    assert str(FiniteAbelianGroup((), 1)) == "Z"
    assert str(FiniteAbelianGroup((), 0)) == "1"
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 2), 0)
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2), 0)


def test_gminus_trivial_triple_matches_ad_formula():
    for label in ("A2", "B2"):
        rs, t, d = _setup(label, "std")
        dim_b = len(rs.positive_roots) + rs.cartan_rank
        recs = classify_gminus(rs, t, d)
        assert len(recs) == {"A2": 6, "B2": 8}[label]
        for r in recs:
            expected_leaf = r.v.length + _ad_rank(r.v)
            assert r.orbit_range == (0, 0)
            assert r.leaf_dim.at(0) == expected_leaf
            assert r.coset_dim.at(0) == expected_leaf + dim_b


def test_gminus_cg_a2_records():
    rs, t, d = _setup("A2", "cg")
    recs = classify_gminus(rs, t, d)
    table = {
        reduced_word(rs, r.v): (
            str(r.leaf_dim),
            str(r.coset_dim),
            r.orbit_range,
            len(r.stable.root_set),
        )
        for r in recs
    }
    assert table == {
        (): ("d_orb", "d_orb + 6", (0, 2), 2),
        (1,): ("d_orb + 4", "d_orb + 10", (0, 0), 0),
        (0, 1): ("d_orb + 6", "d_orb + 12", (0, 0), 0),
    }


def test_gminus_gap_is_dim_g_plus():
    for label, kind in (("A2", "cg"), ("A3", "cg"), ("A2", "std")):
        rs, t, d = _setup(label, kind)
        from leafatlas import dimension_summary

        gap = dimension_summary(rs, d)["dim_g_plus"]
        for r in classify_gminus(rs, t, d):
            assert r.coset_dim.constant - r.leaf_dim.constant == gap


def test_simplified_path_agrees_when_available():
    # the records pass the frame's simplified-dimension check, and the
    # report writes the agreed dimension and the orbit parameter per record
    report = run_job(JobConfig("A3", (0, 1), (1, 2), ((0, 1), (1, 2))))
    assert report.errors == []
    assert {rec["kind"] for rec in report.records} == {"gminus", "full"}
    for rec in report.records:
        assert rec["simplified_leaf_dim"] == rec["leaf_dim"]
        assert rec["orbit_dim"] == "d_orb"


def test_simplified_check_fires_when_the_dimension_summary_is_off(monkeypatch):
    """dim l1 one too large: every record's simplified leaf dimension is off
    by one, so both classifiers raise, and run_job reports it as internal."""
    rs, t, d = _setup("A3", "cg")
    summary = leafclass.dimension_summary

    def shifted(*args):
        dims = summary(*args)
        return {**dims, "dim_l1": dims["dim_l1"] + 1}

    monkeypatch.setattr(leafclass, "dimension_summary", shifted)
    for classify in (classify_gminus, classify_g):
        with pytest.raises(AssertionError, match="simplified leaf dimension disagrees"):
            classify(rs, t, d)
    cg = {"gamma1": (0, 1), "gamma2": (1, 2), "tau": ((0, 1), (1, 2))}
    for mode in ("gminus", "full"):
        report = run_job(JobConfig(root_system="A3", mode=mode, **cg))
        assert [(e["stage"], e["error"], e["detail"], e["severity"]) for e in report.errors] == [
            ("classification", "AssertionError", "simplified leaf dimension disagrees", "internal")
        ], mode
        assert not report.records, mode


def test_full_trivial_triple_sl2_table():
    rs, t, d = _setup("A1", "std")
    recs = classify_g(rs, t, d)
    table = {
        (reduced_word(rs, r.v1), reduced_word(rs, r.v2)): (
            r.leaf_dim.at(0),
            r.coset_dim.at(0),
            r.stable.moduli_dim,
        )
        for r in recs
    }
    assert table == {
        ((), ()): (0, 3, 1),
        ((), (0,)): (2, 5, 0),
        ((0,), ()): (2, 5, 0),
        ((0,), (0,)): (2, 5, 1),
    }


def test_full_trivial_triple_matches_product_rank_formula():
    rs, t, d = _setup("A2", "std")
    for r in classify_g(rs, t, d):
        prod = mat(
            [
                [
                    sum(r.v1.matrix[i][k] * r.v2.matrix[k][j] for k in range(2))
                    for j in range(2)
                ]
                for i in range(2)
            ]
        )
        expected = r.v1.length + r.v2.length + rank(msub(prod, identity(2)))
        assert r.leaf_dim.at(0) == expected


def test_full_cg_a2_big_cell_coset_dim():
    rs, t, d = _setup("A2", "cg")
    recs = classify_g(rs, t, d)
    assert len(recs) == 9
    by_pair = {
        (reduced_word(rs, r.v1), reduced_word(rs, r.v2)): r for r in recs
    }
    top = by_pair[((), ())]
    assert str(top.leaf_dim) == "d_orb"
    assert str(top.coset_dim) == "d_orb + 10"
    assert top.orbit_range == (0, 2)
    assert len(top.stable.root_set) == 2
    assert len(top.stable.partner_root_set) == 2


def test_stable_subalgebra_rejects_non_minimal_v():
    rs, t, d = _setup("A2", "cg")
    s0 = simple_reflection(rs, 0)
    with pytest.raises(NotMinimalRep):
        stable_subalgebra_v(rs, t, d, s0)


@pytest.mark.parametrize(
    "v1_gen, v2_gen, label",
    [(0, None, "v1"), (None, 1, "v2"), (0, 1, "v1")],
    ids=["v1", "v2", "both"],
)
def test_stable_subalgebra_pair_rejects_non_minimal_v1_before_v2(v1_gen, v2_gen, label):
    # A2 CG: Gamma1 = {alpha_1}, Gamma2 = {alpha_2}, so s_i with i in Gamma_j
    # is not minimal in its coset of W_Gamma_j, and e always is
    rs, t, d = _setup("A2", "cg")
    from leafatlas.weyl import weyl_identity

    def rep(i):
        return weyl_identity(rs) if i is None else simple_reflection(rs, i)

    with pytest.raises(NotMinimalRep, match=f"^{label} is not the minimal"):
        stable_subalgebra_pair(rs, t, d, rep(v1_gen), rep(v2_gen))


def test_stable_subalgebra_center_data_cg_a2():
    rs, t, d = _setup("A2", "cg")
    from leafatlas.weyl import weyl_identity

    s = stable_subalgebra_v(rs, t, d, weyl_identity(rs))
    assert set(s.root_set) == {(1, 0), (-1, 0)}
    assert s.derived_dim == 3
    assert s.center_dim == 1
    assert s.cong_dim == 0
    assert s.moduli_dim == 1


def test_sigma_standard_and_cg():
    rs, t, d = _setup("A2", "std")
    assert sigma_group(d, exp_kernel_lattice(rs)).invariant_factors == (2, 2)
    rs, t, d = _setup("A3", "cg")
    assert sigma_group(d, exp_kernel_lattice(rs)).invariant_factors == (4,)


def test_sigma_rejects_fixed_vectors_of_theta():
    rs, t, d = _setup("A2", "std")
    broken = dataclasses.replace(d, theta_cartan=identity(2))
    with pytest.raises(ThetaMinusOneSingular):
        sigma_group(broken, exp_kernel_lattice(rs))


def test_sigma_rejects_lattice_outside_kernel_span():
    rs, t, d = _setup("A2", "std")
    ker = Lattice(2, [[1, 0]])
    with pytest.raises(NonCommensurableLattices):
        sigma_group(d, ker, lambda2=Lattice(2, [[0, 1]]))


def _relation_matrix(sup, sub):
    """Columns of sub written in the basis of sup (integer entries)."""
    cols = []
    for c in sub.columns():
        coords = solve(sup.basis, c)
        assert coords is not None and all(x.denominator == 1 for x in coords)
        cols.append([int(x) for x in coords])
    k = sup.rank
    return mat([[Fraction(cols[j][i]) for j in range(len(cols))] for i in range(k)])


def _enumerate_classes(rel):
    """Residue class reps of Z^k modulo the integer column span of rel."""
    from leafatlas.linalg import det

    k = len(rel)
    size = abs(int(det(rel)))
    assert size > 0
    reps, keys = [], set()
    for point in itertools.product(range(size), repeat=k):
        coords = solve(rel, point)
        key = tuple(x % 1 for x in coords)
        if key not in keys:
            keys.add(key)
            reps.append(point)
        if len(reps) == size:
            break
    assert len(reps) == size
    return reps


def test_quotient_invariants_against_torsion_counting():
    """#{x in L/L' : m x = 0} must equal prod gcd(d_i, m) for every m."""
    from math import gcd

    from leafatlas.linalg import quotient_invariants

    random.seed(7)
    trials = 0
    while trials < 6:
        k = random.choice((2, 3))
        sup = Lattice(k, identity(k))
        cols = [[random.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        sub = Lattice(k, cols)
        if sub.rank < k:
            continue
        rel = _relation_matrix(sup, sub)
        from leafatlas.linalg import det

        if abs(int(det(rel))) > 60:
            continue
        trials += 1
        inv, free = quotient_invariants(sup, sub.columns())
        assert free == 0
        reps = _enumerate_classes(rel)
        for m in (1, 2, 3, 4, 6, 12):
            expected = 1
            for x in inv:
                expected *= gcd(x, m)
            scaled = [
                all(x.denominator == 1 for x in solve(rel, [m * c for c in r]))
                for r in reps
            ]
            assert sum(scaled) == expected


# symplectic leaves have even dimension, so every leaf constant is even
# (coset constants need not be); two-sided records on the larger systems
# are restricted to triples with few pairs to keep the test short
_EVEN_LEAF_SYSTEMS = ["A1", "A2", "A1xA1", "B2", "G2", "A2xA1", "A3", "B3", "C3"]


@pytest.mark.parametrize("label", _EVEN_LEAF_SYSTEMS)
def test_leaf_dimension_constants_are_even(label):
    rs = build_root_system(label)
    checked = 0
    for t in enumerate_valid_triples(rs):
        d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
        records = classify_gminus(rs, t, d)
        if rs.rank <= 2 or len(t.gamma1) >= rs.rank - 1:
            records += classify_g(rs, t, d)
        for rec in records:
            assert rec.leaf_dim.constant % 2 == 0, (t, rec.v, rec.v1, rec.v2)
        checked += len(records)
    assert checked > 0


def _coset_count(rs, gamma):
    # |W^Γ| = |W|/|W_Γ|, counted without the coset walk
    sub = parabolic_elements(rs, ParabolicSubgroup.of(gamma))
    return len(enumerate_weyl(rs)) // len(sub)


def _check_pair_count(rs, t):
    d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
    want = _coset_count(rs, t.gamma1) * _coset_count(rs, t.gamma2)
    assert len(classify_g(rs, t, d)) == want, t
    return want


def test_two_sided_record_count_d4():
    # Bourbaki gamma1 = {1}, gamma2 = {3}: |W^{Γi}| = 192/2 on each side
    rs = build_root_system("D4")
    assert _check_pair_count(rs, validate_triple(rs, (0,), (2,), {0: 2})) == 96 * 96


def test_two_sided_record_count_on_sampled_triples():
    rng = random.Random("record-count")
    for label in ("A2", "A3", "B3", "C3", "G2", "A2xA1", "A2+T1"):
        rs = build_root_system(label)
        triples = enumerate_valid_triples(rs)
        for t in rng.sample(triples, min(2, len(triples))):
            _check_pair_count(rs, t)


def _reference_sigma(d, kernel, lambda2=None):
    """sigma_group as it was before it took a lattice sum: ker' / (ker' cap
    (1 - theta) ker) through a lattice intersection (helpers.reference_sigma)."""
    return reference_sigma(d.theta_cartan, kernel, lambda2)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "A2xA1"])
def test_sigma_matches_the_intersection_oracle_on_every_valid_triple(label):
    rs = build_root_system(label)
    kernel = exp_kernel_lattice(rs)
    for t in enumerate_valid_triples(rs):
        d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
        assert sigma_group(d, kernel) == _reference_sigma(d, kernel)


def test_sigma_of_a_superlattice_matches_the_intersection_oracle():
    # ker = 2 Z^2 and ker' = ker + Z·(1, 1), of index 2 in Z^2.  std: theta = -1,
    # so (1 - theta) ker = 4 Z^2 lies in ker' and Sigma = ker' / 4 Z^2, of
    # order 16 / 2 = 8, with relations 2·(2, 0) and 4·(1, 1) - 2·(2, 0)
    kernel, lambda2 = Lattice(2, [[2, 0], [0, 2]]), Lattice(2, [[1, 1]])
    for kind, expected in (("std", FiniteAbelianGroup((2, 4), 0)), ("cg", FiniteAbelianGroup((6,), 0))):
        rs, t, d = _setup("A2", kind)
        got = sigma_group(d, kernel, lambda2)
        assert got == _reference_sigma(d, kernel, lambda2) == expected


def test_sigma_of_a_rank_deficient_kernel():
    # ker = Z·(1, 0) on A2.  std: theta = -1 keeps the line, so Sigma = Z/2.
    # cg: (1 - theta)·(1, 0) = (1, -1) leaves it, so ker' meets the image in
    # 0 and Sigma = Z is free
    kernel = Lattice(2, [[1, 0]])
    for kind, expected in (("std", FiniteAbelianGroup((2,), 0)), ("cg", FiniteAbelianGroup((), 1))):
        rs, t, d = _setup("A2", kind)
        got = sigma_group(d, kernel)
        assert got == _reference_sigma(d, kernel) == expected
