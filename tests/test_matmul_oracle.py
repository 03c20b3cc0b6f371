"""`linalg.matmul` against the dense product it replaced.

`matmul` now indexes the nonzero entries of each row of its right factor
and multiplies only nonzero pairs.  The oracle is the earlier body, a sum
over every row-column pair.  Entry types are part of the contract: two
int factors give ints, and a ``Fraction`` entry in either factor makes
every entry of the product a ``Fraction``, zeros included.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from leafatlas.linalg import matmul, shape, transpose


def ref_matmul(a, b):
    if shape(a)[1] != shape(b)[0]:
        raise ValueError("shape mismatch in matmul")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _types(m):
    return {type(x) for row in m for x in row}


def _check(a, b):
    got = matmul(a, b)
    assert got == ref_matmul(a, b)
    assert shape(got) == (len(a), shape(b)[1]) or not a
    fractional = any(type(x) is Fraction for m in (a, b) for row in m for x in row)
    if got and got[0]:
        assert _types(got) == ({Fraction} if fractional else {int})
    return got


small_int = st.integers(-4, 4)
small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def factor_pairs(draw):
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    kinds = draw(st.sampled_from(("int", "frac", "mixed")))

    def entry():
        if kinds == "int":
            return draw(small_int)
        if kinds == "frac":
            return draw(small_frac)
        return draw(st.one_of(small_int, small_frac))

    a = tuple(tuple(entry() for _ in range(k)) for _ in range(m))
    b = tuple(tuple(entry() for _ in range(n)) for _ in range(k))
    return a, b


@settings(max_examples=200, deadline=None)
@given(factor_pairs())
def test_random_dense_products_match_the_dense_oracle(pair):
    _check(*pair)


def _signed_permutation(size, rng, one):
    perm = list(range(size))
    rng.shuffle(perm)
    return tuple(
        tuple(rng.choice([one, -one]) if perm[r] == c else one * 0 for c in range(size))
        for r in range(size)
    )


def _diagonal(size, rng, one):
    return tuple(
        tuple(one * rng.randint(-5, 5) if r == c else one * 0 for c in range(size))
        for r in range(size)
    )


def _dense(size, rng, one):
    def entry():
        # with one = Fraction(1) some entries are proper fractions
        x = one * rng.randint(-5, 5)
        return x / rng.choice([1, 2, 3]) if type(one) is Fraction else x

    return tuple(tuple(entry() for _ in range(size)) for _ in range(size))


@pytest.mark.parametrize("one", [1, Fraction(1)], ids=["int", "fraction"])
def test_sparse_factors_match_the_dense_oracle(one):
    rng = random.Random(5)
    makers = (_signed_permutation, _diagonal, _dense)
    for size in range(1, 7):
        for left in makers:
            for right in makers:
                _check(left(size, rng, one), right(size, rng, one))


def test_every_signed_permutation_product_of_size_3():
    one = Fraction(1)
    mats = [
        tuple(tuple(s if p[r] == c else 0 for c in range(3)) for r in range(3))
        for p in permutations(range(3))
        for s in (1, -1)
    ]
    for a in mats:
        for b in mats:
            got = _check(a, b)
            assert sorted(abs(x) for row in got for x in row) == [0] * 6 + [1] * 3
            _check(tuple(tuple(one * x for x in row) for row in a), b)


def test_all_zero_factors_keep_their_entry_types():
    zi = ((0, 0, 0), (0, 0, 0))
    zf = tuple(tuple(Fraction(0) for _ in row) for row in zi)
    b = ((1, 2), (3, 4), (5, 6))
    assert _check(zi, b) == ((0, 0), (0, 0))
    assert _types(matmul(zi, b)) == {int}
    # a Fraction factor gives Fraction zeros, even when nothing is multiplied
    assert _types(_check(zf, b)) == {Fraction}
    assert _types(_check(zi, tuple(tuple(Fraction(x) for x in row) for row in b))) == {
        Fraction
    }


def test_empty_shapes_match_the_dense_oracle():
    assert _check((), ()) == ()
    no_cols = ((), (), ())
    assert _check(no_cols, ()) == ((), (), ())
    assert _check(((1, 2),), ((), ())) == ((),)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(((1, 2),), ((1, 2),))
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(((1,),), ())
