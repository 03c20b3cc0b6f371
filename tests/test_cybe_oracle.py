"""The classical Yang-Baxter residual against the double loop it replaced.

`check_cybe` now joins each term of r only with the terms whose matrix
units share an end with it, and sums integer-scaled coefficients.  The
oracle is the earlier body: every ordered pair of terms, with the bracket
of two matrix units expanded by `_bracket_units`.  Residuals are compared
in full, keys and exact values, not only for being zero.
"""

import random
from fractions import Fraction

import pytest

from leafatlas import (
    build_root_system,
    cg_triple,
    enumerate_valid_triples,
    solve_r0,
    validate_triple,
)
from leafatlas.typea import TensorElement, casimir_tensor, check_cybe, realize_r


def _bracket_units(a, b):
    """[E_a, E_b] expanded in matrix units: delta terms with signs."""
    out = []
    if a[1] == b[0]:
        out.append(((a[0], b[1]), 1))
    if b[1] == a[0]:
        out.append(((b[0], a[1]), -1))
    return out


def ref_check_cybe(r):
    res = TensorElement(r.size, 3)
    items = list(r.coefficients.items())
    for (a, b), x in items:
        for (c, d), y in items:
            coeff = x * y
            # [r_12, r_13]: bracket in leg 1
            for (u, s) in _bracket_units(a, c):
                res.add_term((u, b, d), coeff * s)
            # [r_12, r_23]: bracket in leg 2
            for (u, s) in _bracket_units(b, c):
                res.add_term((a, u, d), coeff * s)
            # [r_13, r_23]: bracket in leg 3
            for (u, s) in _bracket_units(b, d):
                res.add_term((a, c, u), coeff * s)
    return res


def _assert_same_residual(r):
    got, want = check_cybe(r), ref_check_cybe(r)
    assert (got.size, got.arity) == (want.size, want.arity)
    assert got.coefficients == want.coefficients
    assert all(type(v) is Fraction for v in got.coefficients.values())
    return got


def _r(n, triple):
    rs = build_root_system(f"A{n}")
    return realize_r(n, triple, solve_r0(rs, triple, "canonical"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_valid_triple_matches_the_oracle(n):
    rs = build_root_system(f"A{n}")
    triples = list(enumerate_valid_triples(rs))
    assert len(triples) == {1: 1, 2: 3, 3: 9, 4: 33, 5: 115}[n]
    # every valid triple solves the CYBE, including those where tau
    # reverses a component and the root vectors of its images carry signs
    for t in triples:
        assert _assert_same_residual(_r(n, t)).is_zero(), t


@pytest.mark.parametrize("n", [5, 6, 7])
def test_cg_and_standard_triples_match_the_oracle(n):
    rs = build_root_system(f"A{n}")
    for triple in (cg_triple(rs), validate_triple(rs, (), (), {})):
        assert _assert_same_residual(_r(n, triple)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_casimir_residual_matches_the_oracle(n):
    # the Casimir is invariant, but it does not solve the CYBE
    assert not _assert_same_residual(casimir_tensor(n)).is_zero()


def test_randomly_perturbed_r_matrices_match_the_oracle():
    rng = random.Random(11)
    nonzero = 0
    for n in (2, 3, 4):
        rs = build_root_system(f"A{n}")
        triples = list(enumerate_valid_triples(rs))
        size = n + 1
        units = [(i, j) for i in range(size) for j in range(size)]
        for _ in range(4):
            r = _r(n, rng.choice(triples))
            perturbed = TensorElement(size, 2, r.coefficients)
            for _ in range(rng.randint(1, 4)):
                key = (rng.choice(units), rng.choice(units))
                perturbed.add_term(key, Fraction(rng.randint(-7, 7), rng.randint(1, 9)))
            # rescale an existing term, sometimes cancelling it outright
            key = rng.choice(sorted(perturbed.coefficients))
            perturbed.add_term(key, rng.choice([-1, Fraction(-1, 3), Fraction(5, 2)])
                               * perturbed.coefficients[key])
            nonzero += not _assert_same_residual(perturbed).is_zero()
    assert nonzero > 0


def test_empty_tensor_has_empty_residual():
    assert _assert_same_residual(TensorElement(3, 2)).is_zero()
