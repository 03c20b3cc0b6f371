"""The per-triple frame of ``leafclass`` against the code it replaced.

``reference_pair`` and ``reference_single`` are the bodies of
``stable_subalgebra_pair`` and ``stable_subalgebra_v`` from before the
classifiers shared one frame per triple: they rebuild the Cartan domain,
theta^{-1} and the moved spans for every record and intersect the two
centre graphs in h x h.  They are kept here only as oracles.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F
from math import lcm

import pytest

from leafatlas import (
    build_root_system,
    classify_g,
    classify_gminus,
    compute_decomposition,
    enumerate_valid_triples,
    solve_r0,
    stable_subalgebra_pair,
    validate_triple,
)
from leafatlas.bdtriple import CartanTerm, tau_linear_matrix
from leafatlas.decomp import cartan_domain, simple_span
from leafatlas.leafclass import (
    PairStableSubalgebra,
    StableSubalgebra,
    _assert_simple_generated,
    _require_coset_minimal,
    stable_roots,
)
from leafatlas.linalg import (
    Subspace,
    frac,
    identity,
    inverse,
    mat,
    matmul,
    matvec,
    msub,
    rank,
)
from leafatlas.weyl import ParabolicSubgroup, enumerate_weyl, parabolic_elements


# ---------------------------------------------------------------------------
# reference implementation, copied from the replaced code


def _weyl_frac(w):
    return mat(w.matrix)


def _root_span(rs, roots):
    return Subspace(rs.cartan_rank, [tuple(map(frac, a)) for a in roots])


def _cong_data(rs, d, twist, lv_center, center_dim, v1):
    k = rs.cartan_rank
    delta = msub(twist, identity(k))
    cong_dim = 0 if lv_center.dim == 0 else rank(matmul(delta, lv_center.basis))
    image = Subspace(k, [matvec(delta, x) for x in lv_center.vectors()])
    moved_ort = Subspace(
        k, [matvec(_weyl_frac(v1), x) for x in d.h_ort1.vectors()]
    )
    product = image.add(d.h_ort1).add(moved_ort)
    return cong_dim, center_dim - product.dim


def reference_single(rs, triple, d, v):
    _require_coset_minimal(rs, v, triple.gamma1, "v")
    k = rs.cartan_rank
    root_set = stable_roots(d.levi1_roots, v)
    _assert_simple_generated(rs, root_set)

    span = _root_span(rs, root_set)
    derived_dim = len(root_set) + span.dim
    center_dim = k - span.dim
    dom1 = cartan_domain(rs, triple, d, 1)
    lv_center = dom1.intersect(span.perp(rs.gram))
    cong_dim, moduli_dim = _cong_data(
        rs, d, _weyl_frac(v), lv_center, center_dim, v
    )
    return StableSubalgebra(
        root_set=root_set,
        derived_dim=derived_dim,
        center_dim=center_dim,
        lv_center=lv_center,
        cong_dim=cong_dim,
        moduli_dim=moduli_dim,
    )


def _stack(upper, lower):
    return tuple(upper) + tuple(lower)


def reference_pair(rs, triple, d, v1, v2):
    _require_coset_minimal(rs, v1, triple.gamma1, "v1")
    _require_coset_minimal(rs, v2, triple.gamma2, "v2")
    k = rs.cartan_rank
    tlin = tau_linear_matrix(rs, triple)
    tau = {a: matvec(tlin, a) for a in d.levi1_roots}
    tau_inv = {b: a for a, b in tau.items()}

    def phi(a):
        e = tau_inv.get(v2(tau[a]))
        return None if e is None else v1(e)

    root_set = stable_roots(d.levi1_roots, phi)
    _assert_simple_generated(rs, root_set)
    partner = tuple(sorted(v2(tau[a]) for a in root_set))

    span = _root_span(rs, root_set)
    derived_dim = len(root_set) + span.dim
    center_dim = k - span.dim
    dom1 = cartan_domain(rs, triple, d, 1)
    lv_center = dom1.intersect(span.perp(rs.gram))

    theta = d.theta_cartan
    theta_inv = inverse(theta)
    m1 = _weyl_frac(v1)
    m2 = _weyl_frac(v2)
    psi = matmul(m1, matmul(theta_inv, matmul(m2, theta)))
    cong_dim, moduli_dim = _cong_data(rs, d, psi, lv_center, center_dim, v1)

    v2theta = matmul(m2, theta)
    u1 = Subspace(
        2 * k, [_stack(x, matvec(v2theta, x)) for x in lv_center.vectors()]
    )
    moved_dom = Subspace(k, [matvec(m1, x) for x in dom1.vectors()])
    center2 = moved_dom.intersect(span.perp(rs.gram))
    theta_v1inv = matmul(theta, inverse(m1))
    u2 = Subspace(
        2 * k, [_stack(x, matvec(theta_v1inv, x)) for x in center2.vectors()]
    )
    ort_left = d.h_ort1.add(
        Subspace(k, [matvec(m1, x) for x in d.h_ort1.vectors()])
    )
    ort_right = d.h_ort2.add(
        Subspace(k, [matvec(m2, x) for x in d.h_ort2.vectors()])
    )
    zero = tuple(frac(0) for _ in range(k))
    u3 = Subspace(
        2 * k,
        [_stack(x, zero) for x in ort_left.vectors()]
        + [_stack(zero, x) for x in ort_right.vectors()],
    )
    z_pair_dim = u1.intersect(u2).add(u3).dim

    return PairStableSubalgebra(
        root_set=root_set,
        derived_dim=derived_dim,
        center_dim=center_dim,
        lv_center=lv_center,
        cong_dim=cong_dim,
        moduli_dim=moduli_dim,
        partner_root_set=partner,
        z_pair_dim=z_pair_dim,
    )


# ---------------------------------------------------------------------------
# agreement


def _assert_same(got, want, where):
    assert type(got) is type(want), where
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), (where, f.name)


def _coset_count(rs, gamma) -> int:
    """|W^Gamma| = |W| / |W_Gamma|, from the two group orders."""
    sub = parabolic_elements(rs, ParabolicSubgroup.of(gamma))
    return len(enumerate_weyl(rs)) // len(sub)


def _check_pairs(rs, t, d) -> int:
    records = classify_g(rs, t, d)
    pairs = {(r.v1, r.v2) for r in records}
    assert len(pairs) == len(records)
    assert len(records) == _coset_count(rs, t.gamma1) * _coset_count(rs, t.gamma2)
    for r in records:
        _assert_same(r.stable, reference_pair(rs, t, d, r.v1, r.v2), (t, r.v1, r.v2))
    return len(records)


def _decomposition(rs, t):
    return compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))


_SYSTEMS = ["A2", "B2", "G2", "A1xA1", "A2xA1", "A2+T1"]


def test_pair_frame_matches_reference_on_every_small_triple():
    checked = 0
    for label in _SYSTEMS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            checked += _check_pairs(rs, t, _decomposition(rs, t))
    assert checked == 718


def test_pair_frame_matches_reference_on_a3_benchmark_triples():
    rs = build_root_system("A3")
    checked = 0
    for g1, g2 in (((0,), (1,)), ((0,), (2,)), ((1,), (2,))):
        t = validate_triple(rs, g1, g2, {g1[0]: g2[0]})
        checked += _check_pairs(rs, t, _decomposition(rs, t))
    assert checked == 432


# A4 triples (0-based tau) whose theta has the largest denominators c; the
# frame scales theta by c, while the small systems above only reach c <= 3
A4_SCALED = [({1: 2, 2: 3}, 8), ({0: 2, 1: 3}, 12), ({0: 3, 2: 1}, 21)]


@pytest.mark.parametrize("tau,c", A4_SCALED, ids=[str(c) for _, c in A4_SCALED])
def test_pair_frame_matches_reference_on_a4_samples(tau, c):
    rs = build_root_system("A4")
    t = validate_triple(rs, tau.keys(), tau.values(), tau)
    d = _decomposition(rs, t)
    assert lcm(*(x.denominator for row in d.theta_cartan for x in row)) == c
    records = classify_g(rs, t, d)
    assert len(records) == _coset_count(rs, t.gamma1) * _coset_count(rs, t.gamma2)
    for r in random.Random(c).sample(records, 120):
        _assert_same(r.stable, reference_pair(rs, t, d, r.v1, r.v2), (t, r.v1, r.v2))


def test_single_frame_matches_reference_on_every_small_triple():
    for label in _SYSTEMS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            d = _decomposition(rs, t)
            records = classify_gminus(rs, t, d)
            assert len(records) == _coset_count(rs, t.gamma1)
            for r in records:
                _assert_same(r.stable, reference_single(rs, t, d, r.v), (t, r.v))


# the solver never produces this Cartan term (see test_decomp.py); it is the
# one reachable input with h_ort != 0, and theta is singular on it
DEGENERATE = ((F(1, 4), F(0)), (F(0), F(0)))


def _degenerate():
    rs = build_root_system("A1xA1")
    t = validate_triple(rs, (), (), {})
    return rs, t, compute_decomposition(rs, t, CartanTerm(DEGENERATE))


def test_singular_theta_fails_as_before():
    rs, t, d = _degenerate()
    assert d.h_ort1.dim > 0
    with pytest.raises(ValueError, match="^singular matrix$"):
        classify_g(rs, t, d)
    v = classify_gminus(rs, t, d)[0].v
    with pytest.raises(ValueError, match="^singular matrix$"):
        reference_pair(rs, t, d, v, v)
    with pytest.raises(ValueError, match="^singular matrix$"):
        stable_subalgebra_pair(rs, t, d, v, v)


def test_single_frame_matches_reference_with_nonzero_h_ort():
    rs, t, d = _degenerate()
    for r in classify_gminus(rs, t, d):
        _assert_same(r.stable, reference_single(rs, t, d, r.v), r.v)


@pytest.mark.parametrize("label", ["A2", "B2", "A2xA1"])
def test_pair_frame_matches_reference_on_hand_built_complements(label):
    """On every solver-built term with invertible theta, u3 is empty and the
    Cartan domain is all of h, so center2 contains lv_center.  Both codes
    read only d's fields, and the z_pair argument holds for any subspaces,
    so smaller complements and nonzero orthogonal blocks are put in by hand."""
    rs = build_root_system(label)
    for t in enumerate_valid_triples(rs):
        d = dataclasses.replace(
            _decomposition(rs, t),
            a1=simple_span(rs, (rs.rank - 1,)),
            h_ort1=simple_span(rs, (0,)),
            h_ort2=simple_span(rs, (rs.rank - 1,)),
        )
        _check_pairs(rs, t, d)
        for r in classify_gminus(rs, t, d):
            _assert_same(r.stable, reference_single(rs, t, d, r.v), (t, r.v))
