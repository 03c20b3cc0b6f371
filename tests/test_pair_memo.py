"""The pair memos of ``leafclass._Frame``: work once per distinct key.

A pair's record depends on (v1, v2) only through its stable set S, the
partner set and the twist psi = v1·theta^-1·v2·theta.  The frame walks S
and the partner set once per pair of simple-root maps, packs
det(Theta)·psi (Theta = c·theta, integral) into one integer, and ranks
once per (S, packed psi).  These tests count that work, drive one shared
frame over many pairs, so that the memos hit, and check every
record against a fresh frame and against the rank of
D = v2·theta - theta·v1^-1 on (span Phi_S)^perp, which is the rank of
psi - 1 there (theta·v1^-1 is invertible), and of psi - 1 on a basis of
it (``helpers.shifted_rank``).  Everything on the reference
side is Fraction arithmetic on roots and matrices, without the frame's
packing or index walk.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy

from helpers import msub, shifted_rank, stable_roots
from leafatlas import (
    build_root_system,
    cg_triple,
    classify_g,
    classify_gminus,
    compute_decomposition,
    solve_r0,
    stable_subalgebra_pair,
    validate_triple,
)
from leafatlas.bdtriple import tau_linear_matrix
from leafatlas import leafclass
from leafatlas.leafclass import _Frame, _simple_map, _unpack
from leafatlas.linalg import Subspace, inverse, matmul, matvec, rank
from leafatlas.weyl import ParabolicSubgroup, minimal_coset_reps

# (label, gamma1, gamma2, tau), 0-based: the CI digest triples of B4, D4 and
# F4, and a shift on C4 whose stable sets reach two simple roots
RANK_4 = [
    ("B4", (0,), (1,), {0: 1}),
    ("C4", (0, 1), (1, 2), {0: 1, 1: 2}),
    ("D4", (0,), (2,), {0: 2}),
    ("F4", (0,), (1,), {0: 1}),
]


def _setup(label, g1, g2, tau):
    rs = build_root_system(label)
    t = validate_triple(rs, g1, g2, tau) if tau is not None else cg_triple(rs)
    d = compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))
    reps = [
        sorted(
            minimal_coset_reps(rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(g)),
            key=lambda w: w.matrix,
        )
        for g in (t.gamma1, t.gamma2)
    ]
    return rs, t, d, reps


def _grid(reps, seed, rows=15, cols=20):
    """Every pair of a seeded rows x cols sub-grid of W^Gamma1 x W^Gamma2:
    300 pairs that share their v1 and v2, so that keys repeat."""
    rng = random.Random(seed)
    left = rng.sample(reps[0], min(rows, len(reps[0])))
    right = rng.sample(reps[1], min(cols, len(reps[1])))
    return [(v1, v2) for v1 in left for v2 in right]


def _psi(d, v1, v2):
    theta = d.theta_cartan
    return matmul(v1.matrix, matmul(inverse(theta), matmul(v2.matrix, theta)))


def _reference(rs, t, d, v1, v2):
    """Phi_S, the partner roots, lv_center and cong_dim from roots and
    Fraction matrices: the twist walked on roots, and the rank of
    D = v2·theta - theta·v1^-1 on (span Phi_S)^perp."""
    tlin = tau_linear_matrix(rs, t)
    tau = {a: matvec(tlin, a) for a in d.levi1_roots}
    tau_inv = {b: a for a, b in tau.items()}

    def phi(a):
        e = tau_inv.get(v2(tau[a]))
        return None if e is None else v1(e)

    root_set = stable_roots(d.levi1_roots, phi)
    partner = tuple(sorted(v2(tau[a]) for a in root_set))
    k = rs.cartan_rank
    span = Subspace(k, [tuple(map(Fraction, a)) for a in root_set])
    lv = span.perp(rs.gram)
    theta = d.theta_cartan
    dmat = msub(matmul(v2.matrix, theta), matmul(theta, inverse(v1.matrix)))
    return root_set, partner, lv, rank(matmul(dmat, lv.basis))


def _check_shared_frame(rs, t, d, pairs) -> int:
    """Every record of one shared frame against a fresh frame and the
    reference; returns the number of pairs that reused a rank."""
    frame = _Frame(rs, t, d)
    lefts = {v1: frame.left(v1) for v1, _ in pairs}
    rights = {v2: frame.right(v2) for _, v2 in pairs}
    for v1, v2 in pairs:
        got = frame.pair(lefts[v1], rights[v2])
        where = (t, v1, v2)
        assert got == stable_subalgebra_pair(rs, t, d, v1, v2), where
        root_set, partner, lv, cong_dim = _reference(rs, t, d, v1, v2)
        assert got.root_set == root_set, where
        assert got.partner_root_set == partner, where
        assert got.center_dim == lv.dim, where
        assert got.cong_dim == cong_dim == shifted_rank(_psi(d, v1, v2), 1, lv.basis), where
        assert got.moduli_dim == lv.dim - cong_dim, where
    return len(pairs) - len(frame._ranks)


@pytest.mark.parametrize("label,g1,g2,tau", RANK_4, ids=[r[0] for r in RANK_4])
def test_shared_frame_matches_fresh_frames_and_direct_rank(label, g1, g2, tau):
    rs, t, d, reps = _setup(label, g1, g2, tau)
    pairs = _grid(reps, seed=sum(map(ord, label)))
    assert len(pairs) == 300
    assert _check_shared_frame(rs, t, d, pairs) > 0


def test_shared_frame_on_every_pair_of_the_a3_cg_triple():
    rs, t, d, reps = _setup("A3", None, None, None)
    pairs = [(v1, v2) for v1 in reps[0] for v2 in reps[1]]
    assert len(pairs) == 16
    assert _check_shared_frame(rs, t, d, pairs) > 0


@pytest.mark.parametrize("label,g1,g2,tau", RANK_4, ids=[r[0] for r in RANK_4])
def test_packed_key_decodes_to_det_theta_times_psi(label, g1, g2, tau):
    rs, t, d, reps = _setup(label, g1, g2, tau)
    k = rs.cartan_rank
    c = lcm(*(x.denominator for row in d.theta_cartan for x in row))
    det_theta = int(sympy.Matrix(d.theta_cartan).det() * c**k)
    frame = _Frame(rs, t, d)
    _, _, scale, base, _ = frame.packing
    assert scale == det_theta != 0
    longest = tuple(max(r, key=lambda w: w.length) for r in reps)
    pairs = _grid(reps, seed=k, rows=5, cols=6) + [longest]
    for v1, v2 in pairs:
        packed = frame.key(frame.left(v1), frame.right(v2))[2]
        want = tuple(tuple(det_theta * x for x in row) for row in _psi(d, v1, v2))
        assert _unpack(packed, base, k) == want, (v1, v2)
        assert all(2 * abs(x) < base for row in want for x in row)


def _key_classes(rs, t, d, pairs):
    """The frame's keys and the reference (Phi_S, partner roots, psi) of
    each pair."""
    frame = _Frame(rs, t, d)
    keys, refs = [], []
    for v1, v2 in pairs:
        keys.append(frame.key(frame.left(v1), frame.right(v2)))
        root_set, partner, _, _ = _reference(rs, t, d, v1, v2)
        refs.append((root_set, partner, _psi(d, v1, v2)))
    return keys, refs


def test_pairs_share_a_key_exactly_when_psi_and_both_sets_agree():
    cases = [("A3", None, None, None)]
    cases += [("A3", (a,), (b,), {a: b}) for a, b in ((0, 1), (0, 2), (1, 2))]
    cases += [RANK_4[0], RANK_4[1]]
    for label, g1, g2, tau in cases:
        rs, t, d, reps = _setup(label, g1, g2, tau)
        pairs = [(v1, v2) for v1 in reps[0] for v2 in reps[1]]
        if len(pairs) > 300:
            pairs = _grid(reps, seed=7)
        keys, refs = _key_classes(rs, t, d, pairs)
        classes = len(set(keys))
        # equal keys <=> equal references: both partitions are the same
        assert classes == len(set(refs)) == len(set(zip(keys, refs))), (label, t)
        assert classes < len(pairs), (label, t)


# the three A3 triples of the benchmark's pairs workload, and the CG triple
A3_JOBS = [("A3", (a,), (b,), {a: b}) for a, b in ((0, 1), (0, 2), (1, 2))]
A3_JOBS.append(("A3", None, None, None))


@pytest.mark.parametrize("label,g1,g2,tau", A3_JOBS, ids=["01", "02", "12", "cg"])
def test_classify_g_walks_once_per_map_pair_and_ranks_once_per_key(
    monkeypatch, label, g1, g2, tau
):
    rs, t, d, reps = _setup(label, g1, g2, tau)
    pairs = [(v1, v2) for v1 in reps[0] for v2 in reps[1]]
    frame = _Frame(rs, t, d)
    map_pairs = {
        (tuple(_simple_map(v1, t.gamma1).items()), tuple(_simple_map(v2, t.gamma2).items()))
        for v1, v2 in pairs
    }
    keys = {key[0::2] for key in (frame.key(frame.left(v1), frame.right(v2)) for v1, v2 in pairs)}
    calls = {"walk": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(leafclass, "_stable_indices", counted("walk", leafclass._stable_indices))
    monkeypatch.setattr(leafclass, "rank", counted("rank", leafclass.rank))
    records = classify_g(rs, t, d)
    monkeypatch.undo()
    assert len(records) == len(pairs)
    assert calls["walk"] <= len(map_pairs)
    assert calls["rank"] == len(keys) < len(pairs)
    for r in records:
        assert r.stable == stable_subalgebra_pair(rs, t, d, r.v1, r.v2), (r.v1, r.v2)


def test_a_singular_theta_stops_the_pairs_but_not_the_one_sided_records():
    rs, t, d, reps = _setup(*RANK_4[0])
    # theta keeps its rows but loses its rank: a hand-built decomposition
    # that compute_decomposition would never return
    theta = d.theta_cartan
    bad = dataclasses.replace(d, theta_cartan=(theta[0],) + theta[:-1])
    assert len(classify_gminus(rs, t, bad)) == len(reps[0])
    with pytest.raises(ValueError, match="singular matrix"):
        stable_subalgebra_pair(rs, t, bad, reps[0][0], reps[1][0])
