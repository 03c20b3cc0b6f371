"""The per-triple frame of ``leafclass`` against the code it replaced.

``reference_pair`` and ``reference_single`` are the bodies of
``stable_subalgebra_pair`` and ``stable_subalgebra_v`` from before the
classifiers shared one frame per triple: they rebuild the Cartan domain,
theta^{-1} and the moved spans for every record and intersect the two
centre graphs in h x h.  They read h_ort and a from the subspace chain
``helpers.reference_cartan_split``, not from the closed forms of the
decomposition, and are kept here only as oracles.  They still build
lv_center: the frame's center_dim k - |S| must be its dimension, and the
frame's cycle-count cong_dim must be the rank of psi - 1 on its basis
(``helpers.shifted_rank``).
"""

from __future__ import annotations

import dataclasses
import functools
import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_simple_generated,
    cg_theta_target,
    intersect,
    madd,
    msub,
    parabolic_elements,
    reference_cartan_split,
    shifted_rank,
    stable_roots,
)
from leafatlas import (
    build_root_system,
    classify_g,
    classify_gminus,
    compute_decomposition,
    enumerate_valid_triples,
    solve_r0,
    stable_subalgebra_pair,
    stable_subalgebra_v,
    validate_triple,
)
from leafatlas.bdtriple import tau_linear_matrix
from leafatlas.decomp import simple_span
from leafatlas.leafclass import StableSubalgebra
from leafatlas.linalg import (
    Subspace,
    _kernel,
    frac,
    identity,
    inverse,
    mat,
    matmul,
    matvec,
)
from leafatlas.weyl import (
    NotMinimalRep,
    ParabolicSubgroup,
    enumerate_weyl,
    minimal_coset_reps,
    right_descent,
)


# ---------------------------------------------------------------------------
# reference implementation, copied from the replaced code


def _weyl_frac(w):
    return mat(w.matrix)


def _root_span(rs, roots):
    return Subspace(rs.cartan_rank, [tuple(map(frac, a)) for a in roots])


def _cong_data(rs, split, twist, lv_center, center_dim, v1):
    k = rs.cartan_rank
    delta = msub(twist, identity(k))
    # the frame reports center_dim = k - |S| and no lv_center basis
    assert center_dim == lv_center.dim
    cong_dim = shifted_rank(twist, 1, lv_center.basis)
    image = Subspace(k, [matvec(delta, x) for x in lv_center.vectors()])
    moved_ort = Subspace(
        k, [matvec(_weyl_frac(v1), x) for x in split.h_ort1.vectors()]
    )
    product = image.add(split.h_ort1).add(moved_ort)
    return cong_dim, center_dim - product.dim


def _domain1(rs, triple, split):
    """The Cartan part of l'_1 plus a1."""
    return simple_span(rs, triple.gamma1).add(split.a1)


def _require_minimal(rs, v, gamma, label):
    """The references' coset-minimality check, through right_descent."""
    if right_descent(rs, v, gamma) is not None:
        raise NotMinimalRep(f"{label} is not the minimal element of its coset")


def reference_single(rs, triple, d, split, v):
    _require_minimal(rs, v, triple.gamma1, "v")
    k = rs.cartan_rank
    root_set = stable_roots(d.levi1_roots, v)
    assert_simple_generated(rs, root_set)
    # the partner roots of the pair (v, e): tau of the stable roots
    tlin = tau_linear_matrix(rs, triple)
    partner = tuple(sorted(tuple(matvec(tlin, a)) for a in root_set))

    span = _root_span(rs, root_set)
    derived_dim = len(root_set) + span.dim
    center_dim = k - span.dim
    lv_center = intersect(_domain1(rs, triple, split), span.perp(rs.gram))
    cong_dim, moduli_dim = _cong_data(
        rs, split, _weyl_frac(v), lv_center, center_dim, v
    )
    return StableSubalgebra(
        root_set=root_set,
        partner_root_set=partner,
        derived_dim=derived_dim,
        center_dim=center_dim,
        cong_dim=cong_dim,
        moduli_dim=moduli_dim,
    )


def _stack(upper, lower):
    return tuple(upper) + tuple(lower)


def reference_pair(rs, triple, d, split, v1, v2):
    _require_minimal(rs, v1, triple.gamma1, "v1")
    _require_minimal(rs, v2, triple.gamma2, "v2")
    k = rs.cartan_rank
    tlin = tau_linear_matrix(rs, triple)
    tau = {a: matvec(tlin, a) for a in d.levi1_roots}
    tau_inv = {b: a for a, b in tau.items()}

    def phi(a):
        e = tau_inv.get(v2(tau[a]))
        return None if e is None else v1(e)

    root_set = stable_roots(d.levi1_roots, phi)
    assert_simple_generated(rs, root_set)
    partner = tuple(sorted(v2(tau[a]) for a in root_set))

    span = _root_span(rs, root_set)
    derived_dim = len(root_set) + span.dim
    center_dim = k - span.dim
    dom1 = _domain1(rs, triple, split)
    lv_center = intersect(dom1, span.perp(rs.gram))

    theta = d.theta_cartan
    theta_inv = inverse(theta)
    m1 = _weyl_frac(v1)
    m2 = _weyl_frac(v2)
    psi = matmul(m1, matmul(theta_inv, matmul(m2, theta)))
    cong_dim, moduli_dim = _cong_data(rs, split, psi, lv_center, center_dim, v1)

    v2theta = matmul(m2, theta)
    u1 = Subspace(
        2 * k, [_stack(x, matvec(v2theta, x)) for x in lv_center.vectors()]
    )
    moved_dom = Subspace(k, [matvec(m1, x) for x in dom1.vectors()])
    center2 = intersect(moved_dom, span.perp(rs.gram))
    theta_v1inv = matmul(theta, inverse(m1))
    u2 = Subspace(
        2 * k, [_stack(x, matvec(theta_v1inv, x)) for x in center2.vectors()]
    )
    ort_left = split.h_ort1.add(
        Subspace(k, [matvec(m1, x) for x in split.h_ort1.vectors()])
    )
    ort_right = split.h_ort2.add(
        Subspace(k, [matvec(m2, x) for x in split.h_ort2.vectors()])
    )
    zero = tuple(frac(0) for _ in range(k))
    u3 = Subspace(
        2 * k,
        [_stack(x, zero) for x in ort_left.vectors()]
        + [_stack(zero, x) for x in ort_right.vectors()],
    )
    # the pair-centre solution space has the dimension of the moduli
    z_pair_dim = intersect(u1, u2).add(u3).dim
    assert z_pair_dim == moduli_dim, (v1, v2, z_pair_dim, moduli_dim)

    return StableSubalgebra(
        root_set=root_set,
        partner_root_set=partner,
        derived_dim=derived_dim,
        center_dim=center_dim,
        cong_dim=cong_dim,
        moduli_dim=moduli_dim,
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


def _check_pairs(rs, t) -> int:
    d, split = _decomposition(rs, t)
    records = classify_g(rs, t, d)
    pairs = {(r.v1, r.v2) for r in records}
    assert len(pairs) == len(records)
    assert len(records) == _coset_count(rs, t.gamma1) * _coset_count(rs, t.gamma2)
    for r in records:
        _assert_same(r.stable, reference_pair(rs, t, d, split, r.v1, r.v2), (t, r.v1, r.v2))
    return len(records)


def _decomposition(rs, t):
    """The decomposition of the canonical term and its reference split."""
    r0 = solve_r0(rs, t, "canonical")
    return compute_decomposition(rs, t, r0), reference_cartan_split(rs, t, r0)


_SYSTEMS = ["A2", "B2", "G2", "A1xA1", "A2xA1", "A2+T1"]


def test_pair_frame_matches_reference_on_every_small_triple():
    checked = 0
    for label in _SYSTEMS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            checked += _check_pairs(rs, t)
    assert checked == 718


def test_pair_frame_matches_reference_on_a3_benchmark_triples():
    rs = build_root_system("A3")
    checked = 0
    for g1, g2 in (((0,), (1,)), ((0,), (2,)), ((1,), (2,))):
        t = validate_triple(rs, g1, g2, {g1[0]: g2[0]})
        checked += _check_pairs(rs, t)
    assert checked == 432


# A4 triples (0-based tau) whose theta has the largest denominators c; the
# frame scales theta by c, while the small systems above only reach c <= 3
A4_SCALED = [({1: 2, 2: 3}, 8), ({0: 2, 1: 3}, 12), ({0: 3, 2: 1}, 21)]


@pytest.mark.parametrize("tau,c", A4_SCALED, ids=[str(c) for _, c in A4_SCALED])
def test_pair_frame_matches_reference_on_a4_samples(tau, c):
    rs = build_root_system("A4")
    t = validate_triple(rs, tau.keys(), tau.values(), tau)
    d, split = _decomposition(rs, t)
    assert lcm(*(x.denominator for row in d.theta_cartan for x in row)) == c
    records = classify_g(rs, t, d)
    assert len(records) == _coset_count(rs, t.gamma1) * _coset_count(rs, t.gamma2)
    for r in random.Random(c).sample(records, 120):
        _assert_same(r.stable, reference_pair(rs, t, d, split, r.v1, r.v2), (t, r.v1, r.v2))


def test_single_frame_matches_reference_on_every_small_triple():
    for label in _SYSTEMS:
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            d, split = _decomposition(rs, t)
            records = classify_gminus(rs, t, d)
            assert len(records) == _coset_count(rs, t.gamma1)
            for r in records:
                _assert_same(r.stable, reference_single(rs, t, d, split, r.v), (t, r.v))


def _skew_directions(rs, t):
    """An integer basis of the skew k x k matrices X with X·G·(e_a - e_tau(a))
    = 0 for every pair of tau: a canonical term plus any such X keeps
    r0 + r0^T = omega and every slot constraint (see bdtriple.solve_r0)."""
    k = rs.cartan_rank
    slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rows = []
    for a, b in t.tau:
        d = [x - y for x, y in zip(rs.gram_int[a], rs.gram_int[b])]
        rows += [[d[j] * (i == r) - d[i] * (j == r) for i, j in slots] for r in range(k)]
    out = []
    for x in _kernel(rows):
        m = [[0] * k for _ in range(k)]
        for (i, j), y in zip(slots, x):
            m[i][j], m[j][i] = y, -y
        out.append(m)
    return out


# A4 triples (0-based tau) with two tau pairs and pair records whose twist
# permutes S nontrivially, each with one skew direction
A4_MOVING = [
    {0: 3, 2: 0}, {0: 1, 2: 3}, {0: 3, 2: 1}, {0: 2, 3: 0},
    {0: 3, 3: 1}, {1: 0, 3: 2}, {1: 2, 3: 0}, {1: 3, 3: 0},
]


def _non_canonical_jobs():
    """(rs, t, term, pairs to check) for Cartan terms the canonical solver
    does not give: the A2 Coxeter rotation as the match_theta target of the
    standard triple (the term of test_decomp's _non_canonical_terms), then
    canonical terms plus one seeded skew part on every A3 triple with
    tau != {} that leaves a skew direction and on each A4 triple of
    A4_MOVING.  Every A2 and A3 pair is checked; on A4, every pair whose
    twist moves a simple root of S and a seeded sample."""
    rs = build_root_system("A2")
    t = validate_triple(rs, (), (), {})
    yield rs, t, solve_r0(rs, t, "match_theta", theta_target=cg_theta_target(rs)), None
    rng = random.Random(33)
    a3, a4 = build_root_system("A3"), build_root_system("A4")
    jobs = [(a3, t, None) for t in enumerate_valid_triples(a3) if t.tau]
    jobs += [(a4, validate_triple(a4, tau.keys(), tau.values(), tau), 20) for tau in A4_MOVING]
    for rs, t, sample in jobs:
        if not (directions := _skew_directions(rs, t)):
            continue
        skew = [[0] * rs.cartan_rank for _ in range(rs.cartan_rank)]
        for m in directions:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            skew = madd(skew, [[c * x for x in row] for row in m])
        yield rs, t, madd(solve_r0(rs, t, "canonical"), skew), sample


def _moves_s(r, theta, theta_inv):
    """Whether the twist v1·theta^-1·v2·theta of a pair record moves a simple
    root e_i in its stable root set."""
    k = len(theta)
    for e in (tuple(int(i == j) for j in range(k)) for i in range(k)):
        if e in r.stable.root_set:
            x = matvec(theta_inv, matvec(r.v2.matrix, matvec(theta, e)))
            if matvec(r.v1.matrix, x) != e:
                return True
    return False


def test_records_match_reference_under_non_canonical_terms():
    """cong_dim and center_dim (with every other stable field) of both
    classifiers against the lv_center references when theta is not the
    canonical one: the cycle count needs psi = v1·theta^-1·v2·theta to keep
    (span Phi_S)^perp, which holds because theta is an isometry."""
    jobs = singles = pairs = moved = 0
    for rs, t, term, sample in _non_canonical_jobs():
        assert term != solve_r0(rs, t, "canonical"), t
        d = compute_decomposition(rs, t, term)
        split = reference_cartan_split(rs, t, term)
        jobs += 1
        for r in classify_gminus(rs, t, d):
            _assert_same(r.stable, reference_single(rs, t, d, split, r.v), (t, r.v))
            singles += 1
        records = classify_g(rs, t, d)
        theta, theta_inv = d.theta_cartan, inverse(d.theta_cartan)
        flags = [_moves_s(r, theta, theta_inv) for r in records]
        chosen = [r for r, f in zip(records, flags) if f or sample is None]
        if sample is not None:
            rest = [r for r, f in zip(records, flags) if not f]
            chosen += random.Random(jobs).sample(rest, sample)
        for r in chosen:
            want = reference_pair(rs, t, d, split, r.v1, r.v2)
            _assert_same(r.stable, want, (t, r.v1, r.v2))
        pairs += len(chosen)
        moved += sum(flags)
    assert (jobs, singles, pairs, moved) == (15, 318, 1076, 16)


# labels of rank 4 or less: every simple type, products, and a central torus
_RANK_4 = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    "A1xA1", "A2xA1", "A3xA1", "A2+T1",
]


@functools.cache
def _triples(label):
    rs = build_root_system(label)
    return rs, enumerate_valid_triples(rs)


@functools.cache
def _triple_data(label, t):
    """The decomposition, its reference split and both coset spaces."""
    rs, _ = _triples(label)
    reps = [
        minimal_coset_reps(rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(g))
        for g in (t.gamma1, t.gamma2)
    ]
    return (*_decomposition(rs, t), *reps)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_frame_matches_reference_on_random_triples_of_rank_at_most_4(data):
    label = data.draw(st.sampled_from(_RANK_4), label="label")
    rs, triples = _triples(label)
    t = data.draw(st.sampled_from(triples), label="triple")
    d, split, reps1, reps2 = _triple_data(label, t)
    v1 = data.draw(st.sampled_from(reps1), label="v1")
    v2 = data.draw(st.sampled_from(reps2), label="v2")
    where = (label, t, v1, v2)
    _assert_same(stable_subalgebra_v(rs, t, d, v1), reference_single(rs, t, d, split, v1), where)
    _assert_same(
        stable_subalgebra_pair(rs, t, d, v1, v2),
        reference_pair(rs, t, d, split, v1, v2),
        where,
    )
