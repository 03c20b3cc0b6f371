"""The root walk against the three walks it replaced, and the stable sets
from simple-root indices against the walk.

The three reference walks below are the orbit walks that lived in
``stable_subalgebra_v``, ``stable_subalgebra_pair`` and
``typea._stable_simple_set`` before they were merged into one root walk,
``helpers.stable_roots``.  No code in the package walks roots any more:
the classifiers and ``typea.normalize_coset`` read which simple roots an
element sends to simple roots (``weyl._simple_map``) and shrink an
index set to the largest one the map permutes
(``weyl._stable_indices``).  The walks are kept here only as oracles
for that index walk.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from helpers import stable_roots
from leafatlas import (
    build_root_system,
    classify_g,
    classify_gminus,
    compute_decomposition,
    enumerate_valid_triples,
    solve_r0,
    validate_triple,
)
from leafatlas.bdtriple import tau_linear_matrix
from leafatlas.linalg import matvec, transpose
from leafatlas.rootsys import levi_roots
from leafatlas.weyl import (
    ParabolicSubgroup,
    _simple_map,
    _stable_indices,
    enumerate_weyl,
    minimal_coset_reps,
)


# ---------------------------------------------------------------------------
# reference walks, copied from the replaced code


def reference_walk_v(levi1_roots, v):
    """Former walk of stable_subalgebra_v."""
    l1roots = set(levi1_roots)
    root_set = []
    for a in levi1_roots:
        cur = a
        ok = True
        while True:
            cur = v(cur)
            if cur == a:
                break
            if cur not in l1roots:
                ok = False
                break
        if ok:
            root_set.append(a)
    root_set.sort()
    return root_set


def reference_walk_pair(rs, levi1_roots, phi):
    """Former walk of stable_subalgebra_pair."""
    l1roots = set(levi1_roots)
    root_set = []
    guard = 4 * len(rs.positive_roots) + 4
    for a in levi1_roots:
        cur = a
        ok = True
        for _ in range(guard):
            nxt = phi(cur)
            if nxt is None or nxt not in l1roots:
                ok = False
                break
            if nxt == a:
                break
            cur = nxt
        else:
            raise AssertionError("twist orbit failed to close")
        if ok:
            root_set.append(a)
    root_set.sort()
    return root_set


def _signed_root_set(rs, indices) -> set:
    s = set(indices)
    out = set()
    for a in rs.positive_roots:
        if all(x == 0 for t, x in enumerate(a) if t not in s):
            out.add(a)
            out.add(tuple(-x for x in a))
    return out


def reference_walk_block(rs, c, s_cur):
    """Former walk of typea._stable_simple_set (the stable root set only)."""
    delta = _signed_root_set(rs, s_cur)
    guard = 4 * len(rs.positive_roots) + 4
    stable = set()
    for a in delta:
        seen = {a}
        cur = a
        ok = True
        for _ in range(guard):
            cur = c(cur)
            if cur not in delta:
                ok = False
                break
            if cur in seen:
                break
            seen.add(cur)
        else:
            raise AssertionError("orbit walk did not close")
        if ok:
            stable.add(a)
    return stable


# ---------------------------------------------------------------------------
# agreement


def _coset_reps(rs, indices):
    return minimal_coset_reps(
        rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(indices)
    )


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_one_sided_walk_matches_references(label):
    rs = build_root_system(label)
    checked = 0
    for triple in enumerate_valid_triples(rs):
        l1 = levi_roots(rs, triple.gamma1)
        for v in _coset_reps(rs, triple.gamma1):
            got = stable_roots(l1, v)
            assert list(got) == reference_walk_v(l1, v)
            assert set(got) == reference_walk_block(rs, v, triple.gamma1)
            checked += 1
    assert checked > 0


def test_pair_walk_matches_reference_on_d4():
    rs = build_root_system("D4")
    triple = validate_triple(rs, (0,), (2,), {0: 2})
    l1 = levi_roots(rs, triple.gamma1)
    l2 = levi_roots(rs, triple.gamma2)
    # phi only ever sees roots of l1, and tau^{-1} only roots of l2
    tlin = tau_linear_matrix(rs, triple)
    tau = {a: tuple(int(x) for x in matvec(tlin, a)) for a in l1}
    tau_inv = {c: tuple(int(x) for x in matvec(transpose(tlin), c)) for c in l2}
    reps1 = _coset_reps(rs, triple.gamma1)
    reps2 = _coset_reps(rs, triple.gamma2)
    assert len(reps1) * len(reps2) == 9216
    stable_counts = set()
    for v1 in reps1:
        for v2 in reps2:

            def phi(a):
                c = v2(tau[a])
                return v1(tau_inv[c]) if c in tau_inv else None

            got = stable_roots(l1, phi)
            assert list(got) == reference_walk_pair(rs, l1, phi)
            stable_counts.add(len(got))
    # both outcomes occur, so the comparison is not vacuous
    assert stable_counts == {0, 2}


def test_undefined_step_drops_the_root_and_its_preimages():
    a, b, c, d = (1, 0), (0, 1), (1, 1), (2, 1)
    step = {a: b, b: a, c: d}.get  # d has no image
    assert stable_roots([a, b, c, d], step) == (b, a)


def test_non_injective_step_trips_the_guard():
    a, b, c = (1, 0), (0, 1), (1, 1)
    step = {a: b, b: c, c: b}.get  # a's orbit cycles through b, c forever
    with pytest.raises(AssertionError, match="failed to close"):
        stable_roots([a, b, c], step)


# ---------------------------------------------------------------------------
# stable sets from simple roots


def _decomposition(rs, t):
    return compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))


def _shrinking_rounds(rs, gamma, w) -> int:
    """Rounds of S <- {i in S : w(alpha_i) = alpha_j, j in S} from S = gamma
    that drop an index, with the images read by applying w to each root."""
    simple = rs.simple_roots
    step = {i: next((j for j in gamma if w(simple[i]) == simple[j]), None) for i in gamma}
    s, rounds = set(gamma), 0
    while (kept := {i for i in s if step[i] in s}) != s:
        s, rounds = kept, rounds + 1
    return rounds


def test_one_sided_simple_root_sets_match_the_walk():
    rounds = {}
    for label in ("A3", "A4", "B3", "C3"):
        rs = build_root_system(label)
        for t in enumerate_valid_triples(rs):
            d = _decomposition(rs, t)
            for r in classify_gminus(rs, t, d):
                assert r.stable.root_set == stable_roots(d.levi1_roots, r.v), (t, r.v)
                if label in ("A3", "A4"):
                    n = _shrinking_rounds(rs, t.gamma1, r.v)
                    rounds[n] = rounds.get(n, 0) + 1
    # the index walk must shrink S more than once somewhere, or it is untested
    assert max(rounds) >= 2, rounds


def test_two_sided_simple_root_sets_match_the_walk_on_d4():
    rs = build_root_system("D4")
    t = validate_triple(rs, (0,), (2,), {0: 2})
    d = _decomposition(rs, t)
    tlin = tau_linear_matrix(rs, t)
    tau = {a: matvec(tlin, a) for a in d.levi1_roots}
    tau_inv = {b: a for a, b in tau.items()}
    records = classify_g(rs, t, d)
    assert len(records) == 9216
    sizes = set()
    for r in records:

        def phi(a, v1=r.v1, v2=r.v2):
            e = tau_inv.get(v2(tau[a]))
            return None if e is None else v1(e)

        root_set = r.stable.root_set
        assert root_set == stable_roots(d.levi1_roots, phi), (r.v1, r.v2)
        assert r.stable.partner_root_set == tuple(sorted(r.v2(tau[a]) for a in root_set))
        sizes.add(len(root_set))
    assert sizes == {0, 2}


def test_index_walk_is_the_root_walk_where_the_block_stays_positive():
    """For every c in W and every s whose simple roots c sends to positive
    roots (the invariant normalize_coset keeps), shrinking s on indices gives
    the simple roots of the root walk on Phi_s, and Phi_S is that walk."""
    cases = 0
    for label in ("A1", "A2", "A3", "A4", "A5", "B3", "C3", "D4"):
        rs = build_root_system(label)
        for c in enumerate_weyl(rs):
            ascents = [i for i, col in enumerate(zip(*c.matrix)) if min(col) >= 0]
            for size in range(len(ascents) + 1):
                for s in combinations(ascents, size):
                    got = _stable_indices(_simple_map(c, s, "c"))
                    want = stable_roots(levi_roots(rs, s), c)
                    assert got == {i for i in s if rs.simple_roots[i] in want}, (label, c, s)
                    assert levi_roots(rs, got) == want, (label, c, s)
                    cases += 1
    assert cases == 6474
