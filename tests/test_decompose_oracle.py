"""`decompose_min` against the three-loop factorization it replaced.

The oracle is the earlier body of the library code: a greedy two-sided
descent to the double-minimal w, a left split u = a·x with x minimal in
W_L·u, and a transfer of right descents of a in the absorbing parabolic
W_L ∩ w·W_R·w^{-1} (`cross_parabolic`) across w into the right factor.
The library now gets the same triple from two descent strips.  The
transfer is what makes w1 minimal modulo the absorbing parabolic; no
product, membership or length check sees it, so it is tested on its own.
"""

import itertools
import random

import pytest

from helpers import element_length, in_parabolic, inverse_element
from leafatlas import ParabolicSubgroup, build_root_system, decompose_min, enumerate_weyl
from leafatlas.linalg import matvec
from leafatlas.weyl import (
    compose,
    left_descent,
    right_descent,
    simple_reflection,
    weyl_identity,
)


def cross_parabolic(rs, w, left, right):
    """The absorbing parabolic W_L ∩ w·W_R·w^{-1} of a double-minimal w.

    Generated by the simple roots alpha of the left subsystem whose image
    w^{-1}(alpha) is a root of the right subsystem.
    """
    winv_m = inverse_element(rs, w).matrix
    gens = set()
    for i in left.generators:
        img = matvec(winv_m, rs.simple_roots[i])
        support = {t for t, x in enumerate(img) if x != 0}
        if support <= right.generators:
            gens.add(i)
    return ParabolicSubgroup.of(gens)


def oracle_decompose_min(rs, u, left, right):
    ident = weyl_identity(rs)

    # minimal double-coset representative by greedy descent on both sides
    w = u
    while True:
        i = left_descent(rs, w, left.generators)
        if i is not None:
            w = compose(rs, simple_reflection(rs, i), w)
            continue
        j = right_descent(rs, w, right.generators)
        if j is not None:
            w = compose(rs, w, simple_reflection(rs, j))
            continue
        break

    # split u = a·x with x minimal in W_L·u
    a = ident
    x = u
    while True:
        i = left_descent(rs, x, left.generators)
        if i is None:
            break
        s = simple_reflection(rs, i)
        x = compose(rs, s, x)
        a = compose(rs, a, s)
    # x lies in w·W_R with additive lengths
    w_inv = inverse_element(rs, w)
    b = compose(rs, w_inv, x)
    assert in_parabolic(rs, b, right)
    assert x.length == w.length + b.length

    # push a to the minimal representative of a·W^w, transferring across w
    j_par = cross_parabolic(rs, w, left, right)
    while True:
        j = right_descent(rs, a, j_par.generators)
        if j is None:
            break
        s = simple_reflection(rs, j)
        a = compose(rs, a, s)
        # s transfers across w as the reflection through w^{-1}(alpha_j)
        t = compose(rs, compose(rs, w_inv, s), w)
        b = compose(rs, t, b)

    assert u.length == a.length + w.length + b.length
    assert compose(rs, compose(rs, a, w), b).matrix == u.matrix
    return a, w, b


def _subsets(rank):
    return [
        frozenset(s) for r in range(rank + 1) for s in itertools.combinations(range(rank), r)
    ]


def _check_pair(rs, elems, left, right):
    pl, pr = ParabolicSubgroup.of(left), ParabolicSubgroup.of(right)
    for u in elems:
        got = decompose_min(rs, u, pl, pr)
        want = oracle_decompose_min(rs, u, pl, pr)
        assert [(g.matrix, g.length) for g in got] == [(e.matrix, e.length) for e in want]
        w1, w, _ = got
        assert right_descent(rs, w1, cross_parabolic(rs, w, pl, pr).generators) is None
        for g in got:
            assert g.length == element_length(rs, g.matrix)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2", "A1xA1", "A2xA1", "A2+T1"])
def test_decompose_min_matches_oracle_on_every_parabolic_pair(label):
    rs = build_root_system(label)
    elems = enumerate_weyl(rs)
    for left in _subsets(rs.rank):
        for right in _subsets(rs.rank):
            _check_pair(rs, elems, left, right)


# (label, number of sampled (L, R) pairs, elements per pair; None is all of W)
SAMPLED = [("C3", 24, None), ("D4", 16, 96), ("F4", 10, 64)]


@pytest.mark.parametrize("label,pairs,per_pair", SAMPLED)
def test_decompose_min_matches_oracle_on_sampled_pairs(label, pairs, per_pair):
    rs = build_root_system(label)
    elems = enumerate_weyl(rs)
    subsets = _subsets(rs.rank)
    rng = random.Random(f"decompose-{label}")
    for _ in range(pairs):
        left, right = rng.choice(subsets), rng.choice(subsets)
        sample = elems if per_pair is None else rng.sample(elems, per_pair)
        _check_pair(rs, sample, left, right)


def test_cross_parabolic_absorbing_generators():
    rs = build_root_system("A3")
    e = weyl_identity(rs)
    got = cross_parabolic(
        rs, e, ParabolicSubgroup.of((0, 1)), ParabolicSubgroup.of((1, 2))
    )
    assert got.generators == frozenset({1})
    # the rotation carries the last block back onto the first
    w = compose(
        rs,
        compose(rs, simple_reflection(rs, 0), simple_reflection(rs, 1)),
        simple_reflection(rs, 2),
    )
    got = cross_parabolic(
        rs, w, ParabolicSubgroup.of((1, 2)), ParabolicSubgroup.of((0, 1))
    )
    assert got.generators == frozenset({1, 2})
