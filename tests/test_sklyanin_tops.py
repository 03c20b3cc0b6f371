"""Ranks of the Poisson bivector at random points against the leaf
dimensions the records allow, on every valid triple of A1-A3.

The rank of the bivector at g (``bivector_rank`` of the Sklyanin oracle) is
the dimension of the symplectic leaf through g.  The records of
``classify_g`` allow the values leaf_dim.at(d) for d in orbit_range, so
every rank seen at a point must be one of them (the allowed-set check), and
the largest allowed value is the generic leaf dimension, which random points
reach (the top check).  The points are 20 seeded integer matrices of
determinant 1 with entries in [-3, 3], the same 20 for every triple of A_n.

Both checks fail on the Cremmer-Gervais triples of A2 and A3 and on A3 with
gamma1 = {1}, gamma2 = {3}, in both orientations: random points reach a
rank above every record's top.  Those six are strict xfails that name both
tops until the records account for the extra rank.
"""

from __future__ import annotations

import functools
import random

import pytest

from leafatlas import (
    build_root_system,
    classify_g,
    compute_decomposition,
    enumerate_valid_triples,
    solve_r0,
)
from test_sklyanin_oracle import _dm, bivector_rank, r_matrix

# (n, tau) of every valid triple of A_n, n <= 3, 0-based
TRIPLES = [
    (1, ()),
    (2, ()), (2, ((0, 1),)), (2, ((1, 0),)),
    (3, ()), (3, ((0, 1),)), (3, ((0, 2),)), (3, ((1, 0),)), (3, ((1, 2),)),
    (3, ((2, 0),)), (3, ((2, 1),)), (3, ((0, 1), (1, 2))), (3, ((1, 0), (2, 1))),
]

# (n, tau) -> (largest rank seen, largest value the records allow)
GAPS = {
    (2, ((0, 1),)): (8, 6),
    (2, ((1, 0),)): (8, 6),
    (3, ((0, 2),)): (14, 12),
    (3, ((2, 0),)): (14, 12),
    (3, ((0, 1), (1, 2))): (14, 12),
    (3, ((1, 0), (2, 1))): (14, 12),
}


@functools.cache
def _triples(n: int):
    rs = build_root_system(f"A{n}")
    return rs, {t.tau: t for t in enumerate_valid_triples(rs)}


@functools.cache
def _points(n: int, count: int = 20):
    """count seeded integer points of SL(n + 1), entries in [-3, 3]."""
    rng, points = random.Random(n), []
    while len(points) < count:
        g = _dm([[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(n + 1)])
        if g.det() == 1:
            points.append(g)
    return points


@functools.cache
def ranks(n: int, tau) -> tuple[set[int], set[int]]:
    """The bivector ranks seen at the points, and the leaf dimensions the
    classify_g records allow."""
    rs, triples = _triples(n)
    t = triples[tau]
    r0 = solve_r0(rs, t, "canonical")
    r = r_matrix(n, t, r0)
    seen = {bivector_rank(r, g) for g in _points(n)}
    allowed = {
        rec.leaf_dim.at(d)
        for rec in classify_g(rs, t, compute_decomposition(rs, t, r0))
        for d in range(rec.orbit_range[0], rec.orbit_range[1] + 1)
    }
    return seen, allowed


def _cases():
    for n, tau in TRIPLES:
        marks = ()
        if (n, tau) in GAPS:
            seen, top = GAPS[n, tau]
            marks = pytest.mark.xfail(
                strict=True, reason=f"a point reaches rank {seen}; the records' top is {top}"
            )
        yield pytest.param(n, tau, marks=marks, id=f"A{n}-{tau}")


def test_the_cases_are_every_valid_triple_of_a1_to_a3():
    assert sorted(TRIPLES) == sorted((n, tau) for n in (1, 2, 3) for tau in _triples(n)[1])


@pytest.mark.parametrize("n,tau", _cases())
def test_every_rank_seen_is_allowed_by_a_record(n, tau):
    seen, allowed = ranks(n, tau)
    assert seen <= allowed, sorted(seen - allowed)


@pytest.mark.parametrize("n,tau", _cases())
def test_the_largest_rank_seen_is_the_records_top(n, tau):
    seen, allowed = ranks(n, tau)
    assert max(seen) == max(allowed)


def test_the_gap_tops_are_the_ones_the_xfails_name():
    for (n, tau), tops in GAPS.items():
        seen, allowed = ranks(n, tau)
        assert (max(seen), max(allowed)) == tops, (n, tau)
