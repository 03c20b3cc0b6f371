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

Both checks also run at skewed Cartan terms r0 = canonical + c·X, for X a
skew direction that keeps every slot constraint: the one direction
``_skew_directions`` gives on each one-pair A3 triple, at c = 1 and 2, and
on the standard triples of A2 and A3 (where τ sets no constraint, so the
direction is chosen by hand) at c = 1 and 1/3.  The Cremmer-Gervais triples
have no skew direction: their r0 is unique.  At c = 1 every record of the
standard A2 triple and every 12th of A3 is also checked at a point of its
cell, as the Sklyanin oracle does at the canonical term.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from helpers import madd
from leafatlas import (
    build_root_system,
    classify_g,
    compute_decomposition,
    enumerate_valid_triples,
    reduced_word,
    solve_r0,
)
from test_pair_frame import _skew_directions
from test_sklyanin_oracle import _cell_point, _dm, bivector_rank, r_matrix

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


def _term(n: int, tau, skew=None):
    """The triple and r0 = canonical + skew (the canonical term for None)."""
    rs, triples = _triples(n)
    t = triples[tau]
    r0 = solve_r0(rs, t, "canonical")
    return t, r0 if skew is None else madd(r0, skew)


@functools.cache
def ranks(n: int, tau, skew=None) -> tuple[set[int], set[int]]:
    """The bivector ranks seen at the points, and the leaf dimensions the
    classify_g records allow, at r0 = canonical + skew."""
    rs = _triples(n)[0]
    t, r0 = _term(n, tau, skew)
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


# hand-chosen skew directions for the standard triples: E12 - E21 on A2, and
# on A3 that plus E23 - E32, which couples all three coordinates
STANDARD_DIRECTIONS = {
    2: ((0, 1), (-1, 0)),
    3: ((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
}


def _scaled(x, c):
    return tuple(tuple(c * y for y in row) for row in x)


def _skewed_cases():
    """(n, tau, c·X) for every skewed term the module checks (docstring)."""
    for n, tau in TRIPLES:
        if n == 3 and len(tau) == 1:
            rs, triples = _triples(n)
            (x,) = _skew_directions(rs, triples[tau])
            for c in (1, 2):
                yield pytest.param(n, tau, _scaled(x, c), id=f"A{n}-{tau}-c={c}")
    for n, x in STANDARD_DIRECTIONS.items():
        for c in (Fraction(1), Fraction(1, 3)):
            yield pytest.param(n, (), _scaled(x, c), id=f"A{n}-()-c={c}")


def test_only_the_one_pair_a3_triples_have_a_skew_direction():
    """_skew_directions gives one direction on each one-pair A3 triple and
    none on the other triples, the standard ones for want of constraint rows."""
    counts = {}
    for n, tau in TRIPLES:
        rs, triples = _triples(n)
        counts[n, tau] = len(_skew_directions(rs, triples[tau]))
    assert counts == {(n, tau): int(n == 3 and len(tau) == 1) for n, tau in TRIPLES}
    assert len(list(_skewed_cases())) == 16


@pytest.mark.parametrize("n,tau,skew", _skewed_cases())
def test_every_rank_seen_is_allowed_at_a_skewed_term(n, tau, skew):
    seen, allowed = ranks(n, tau, skew)
    assert seen <= allowed, sorted(seen - allowed)


@pytest.mark.parametrize("n,tau,skew", _skewed_cases())
def test_the_largest_rank_seen_is_the_records_top_at_a_skewed_term(n, tau, skew):
    seen, allowed = ranks(n, tau, skew)
    assert max(seen) == max(allowed)


@pytest.mark.parametrize("n, step, count", [(2, 1, 36), (3, 12, 48)])
def test_standard_records_match_the_bivector_rank_at_a_skewed_term(n, step, count):
    """Every step-th record of the standard triple of A_n at r0 = canonical +
    X, X the hand-chosen direction, against the bivector rank at one point
    of its cell."""
    rs = _triples(n)[0]
    t, r0 = _term(n, (), STANDARD_DIRECTIONS[n])
    records = classify_g(rs, t, compute_decomposition(rs, t, r0))[::step]
    r, rng = r_matrix(n, t, r0), random.Random(0)
    got = [
        bivector_rank(r, _cell_point(n, reduced_word(rs, rec.v1), reduced_word(rs, rec.v2), rng))
        for rec in records
    ]
    assert len(records) == count
    assert got == [rec.leaf_dim.at(0) for rec in records]
