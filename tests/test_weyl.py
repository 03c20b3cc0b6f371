import itertools
import os
import re

import pytest

from helpers import in_parabolic, longest_element, parabolic_elements
from leafatlas import (
    ParabolicSubgroup,
    build_root_system,
    decompose_min,
    enumerate_weyl,
    minimal_coset_reps,
    reduced_word,
    weyl,
)
from leafatlas.weyl import (
    WeylElement,
    _heights,
    _inverse_heights,
    _orbit,
    _orbit_size,
    compose,
    inverse_element,
    left_descent,
    right_descent,
    simple_reflection,
    weyl_identity,
)

GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12, "A1xA1": 4,
    "C3": 48, "D4": 192, "F4": 1152, "A2+T1": 6,
}


@pytest.mark.parametrize("label,order", sorted(GROUP_ORDERS.items()))
def test_group_order(label, order):
    rs = build_root_system(label)
    assert len(enumerate_weyl(rs)) == order


def test_enumeration_is_lexicographically_sorted():
    rs = build_root_system("A2")
    mats = [w.matrix for w in enumerate_weyl(rs)]
    assert mats == sorted(mats)


def test_enumeration_bound_env(monkeypatch):
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", "10")
    rs = build_root_system("B3")
    with pytest.raises(ValueError):
        enumerate_weyl(rs)
    # the bound caps the set being built: |W^J| = 48/|W(A2)| = 8 fits
    reps = minimal_coset_reps(rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of((0, 1)))
    assert len(reps) == 8


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_enumeration_bound_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", raw)
    with pytest.raises(ValueError) as err:
        enumerate_weyl(build_root_system("A1"))
    assert str(err.value) == f"LEAFATLAS_WEYL_BOUND must be a positive integer, got {raw!r}"


ORBIT_SIZE_SYSTEMS = (
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4",
    "A1xA1", "A2xA1", "A2+T1", "B2xG2+T1",
)


@pytest.mark.parametrize("label", ORBIT_SIZE_SYSTEMS)
def test_orbit_size_closed_form_matches_the_walk(label):
    # every W_I-orbit of a weight with zeros exactly on F, for F within I
    rs = build_root_system(label)
    for indices in itertools.chain.from_iterable(
        itertools.combinations(range(rs.rank), k) for k in range(rs.rank + 1)
    ):
        for k in range(len(indices) + 1):
            for fixed in itertools.combinations(indices, k):
                lam = tuple(int(i not in fixed) for i in range(rs.rank))
                assert _orbit_size(rs, indices, fixed) == len(_orbit(rs, indices, lam))


@pytest.mark.parametrize(
    "label,order", [("E6", 51840), ("E7", 2903040), ("E8", 696729600), ("A9", 3628800)]
)
def test_orbit_size_closed_form_gives_the_group_order(label, order):
    rs = build_root_system(label)
    assert _orbit_size(rs, range(rs.rank), ()) == order


def test_orbit_over_the_bound_raises_before_the_walk(monkeypatch):
    # |W(A9)| = 10! is over the default bound; the walk would build 10^6
    # elements before it got there.  The walk starts from weyl_identity, so
    # with that gone a walk fails with TypeError instead
    monkeypatch.delenv("LEAFATLAS_WEYL_BOUND", raising=False)
    monkeypatch.setattr(weyl, "weyl_identity", None)
    rs = build_root_system("A9")
    with pytest.raises(ValueError, match="exceeded bound 1000000"):
        minimal_coset_reps(rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(()))


def test_e7_coset_space_under_the_default_bound(monkeypatch):
    # |W(E7)| = 2903040 exceeds the default bound; J = Bourbaki {1,3,4,5,6}
    # is of type A5, so |W^J| = 2903040/720
    monkeypatch.delenv("LEAFATLAS_WEYL_BOUND", raising=False)
    rs = build_root_system("E7")
    reps = minimal_coset_reps(rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of((0, 2, 3, 4, 5)))
    assert len(reps) == 4032
    assert max(w.length for w in reps) == len(rs.positive_roots) - 15


def test_longest_element_properties():
    for label in ("A3", "B3", "G2"):
        rs = build_root_system(label)
        w0 = longest_element(rs, ParabolicSubgroup.of(range(rs.rank)))
        assert w0.length == len(rs.positive_roots)
        assert compose(rs, w0, w0).length == 0
        for a in rs.positive_roots:
            assert not all(x >= 0 for x in w0(a)) or all(x == 0 for x in w0(a))


def test_reduced_word_reassembles():
    rs = build_root_system("B2")
    for w in enumerate_weyl(rs):
        word = reduced_word(rs, w)
        assert len(word) == w.length
        acc = weyl_identity(rs)
        for i in word:
            acc = compose(rs, acc, simple_reflection(rs, i))
        assert acc.matrix == w.matrix


@pytest.mark.parametrize(
    "label, right",
    [("F4", ()), ("D5", ()), ("E7", (0, 2, 3, 4, 5))],
    ids=["W(F4)", "W(D5)", "E7 one-sided coset space"],
)
def test_reduced_words_sharing_prefixes_match_single_calls(label, right):
    # one memo per system, as run_job keeps one per job; the E7 coset space
    # is that of the pinned E7 CLI job, whose strip prefixes leave W^J
    rs = build_root_system(label)
    elements = minimal_coset_reps(rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(right))
    memo = {}
    for w in elements:
        assert reduced_word(rs, w, memo) == reduced_word(rs, w), w
    # the memo keys the height rows 1·w of the strip prefixes; each keeps
    # its element's word (every 20th): the word multiplies out to an element
    # with that height row and as long as the word
    for h, word in list(memo.items())[::20]:
        w = weyl_identity(rs)
        for i in word:
            w = compose(rs, w, simple_reflection(rs, i))
        assert (_heights(w.matrix), w.length) == (h, len(word))
    longest = max(elements, key=lambda w: w.length)
    for shared in (None, memo):
        with pytest.raises(AssertionError, match="not as long"):
            reduced_word(rs, WeylElement(longest.matrix, longest.length + 1), shared)


def test_descents_match_definition():
    for label in ("A3", "G2", "C3", "A2xA1", "A2+T1"):
        rs = build_root_system(label)
        for w in enumerate_weyl(rs):
            for i in range(rs.rank):
                alpha = rs.simple_roots[i]
                right_negative = not all(x >= 0 for x in w(alpha))
                assert (right_descent(rs, w, (i,)) == i) == right_negative
                winv = inverse_element(rs, w)
                left_negative = not all(x >= 0 for x in winv(alpha))
                assert (left_descent(rs, w, (i,)) == i) == left_negative


@pytest.mark.parametrize(
    "label, step", [(x, 1) for x in ("A3", "B3", "C3", "D4", "G2", "A2+T1")] + [("F4", 10)]
)
def test_height_rows_read_the_inverse_and_determine_the_element(label, step):
    # 1·w^{-1} from the forms is the height row of the inverse matrix, and
    # the height row 1·w tells elements apart (the reduced-word memo key)
    rs = build_root_system(label)
    elements = enumerate_weyl(rs)
    for w in elements[::step]:
        assert _inverse_heights(rs, w.matrix) == _heights(inverse_element(rs, w).matrix), w
    assert len({_heights(w.matrix) for w in elements}) == len(elements)


@pytest.mark.parametrize("label, bad", [("A3", -1), ("A3", 3), ("A2+T1", 2), ("A2+T1", 5)])
def test_parabolic_index_outside_the_simple_roots_is_rejected(label, bad):
    # -1 is no alias of the last simple root, and a torus index of A2+T1
    # names no simple root
    rs = build_root_system(label)
    w0 = max(enumerate_weyl(rs), key=lambda w: w.length)
    none, j = ParabolicSubgroup.of(()), ParabolicSubgroup.of((0, bad))
    calls = [
        lambda: decompose_min(rs, w0, none, j),
        lambda: decompose_min(rs, w0, j, none),
        lambda: minimal_coset_reps(rs, none, j),
        lambda: minimal_coset_reps(rs, j, none),
        lambda: right_descent(rs, w0, (bad,)),
        lambda: left_descent(rs, w0, (bad,)),
    ]
    message = rf"{re.escape(label)} has no simple root {bad}, only 0\.\.{rs.rank - 1}$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_parabolic_elements_are_the_subgroup():
    rs = build_root_system("A3")
    p = ParabolicSubgroup.of((0, 1))
    elems = parabolic_elements(rs, p)
    assert len(elems) == 6
    for w in elems:
        assert in_parabolic(rs, w, p)
        assert all(i in (0, 1) for i in reduced_word(rs, w))


def test_one_sided_coset_rep_counts():
    rs = build_root_system("A3")
    trivial = ParabolicSubgroup.of(())
    p = ParabolicSubgroup.of((0, 1))
    assert len(minimal_coset_reps(rs, trivial, p)) == 4
    assert len(minimal_coset_reps(rs, p, trivial)) == 4
    assert len(minimal_coset_reps(rs, p, p)) == 2


def _brute_double_coset(rs, w, left_elems, right_elems):
    seen = {}
    for a in left_elems:
        aw = compose(rs, a, w)
        for b in right_elems:
            u = compose(rs, aw, b)
            seen[u.matrix] = u
    return list(seen.values())


DECOMPOSE_CASES = [
    ("A3", (0,), (2,)),
    ("A3", (0, 1), (0, 1)),
    ("A3", (), (1,)),
    ("G2", (0,), (1,)),
    ("C3", (0, 1), (1, 2)),
    ("C3", (2,), (0,)),
    ("A2xA1", (0,), (1, 2)),
    ("A2+T1", (1,), (0, 1)),
]


@pytest.mark.parametrize(
    "label,left,right",
    DECOMPOSE_CASES,
    # the ids the A3 cases had before the label parameter was added
    ids=[f"left{k}-right{k}" for k in range(len(DECOMPOSE_CASES))],
)
def test_decompose_min_against_brute_force(label, left, right):
    rs = build_root_system(label)
    pl, pr = ParabolicSubgroup.of(left), ParabolicSubgroup.of(right)
    left_elems = parabolic_elements(rs, pl)
    right_elems = parabolic_elements(rs, pr)
    for w in enumerate_weyl(rs):
        w1, wmin, w2 = decompose_min(rs, w, pl, pr)
        assert w1.length + wmin.length + w2.length == w.length
        reassembled = compose(rs, compose(rs, w1, wmin), w2)
        assert reassembled.matrix == w.matrix
        assert in_parabolic(rs, w1, pl) and in_parabolic(rs, w2, pr)
        coset = _brute_double_coset(rs, w, left_elems, right_elems)
        shortest = min(u.length for u in coset)
        ties = [u for u in coset if u.length == shortest]
        assert len(ties) == 1
        assert wmin.matrix == ties[0].matrix


def test_minimal_reps_partition_the_group():
    rs = build_root_system("B2")
    p = ParabolicSubgroup.of((0,))
    reps = minimal_coset_reps(rs, p, ParabolicSubgroup.of(()))
    covered = set()
    for r in reps:
        for a in parabolic_elements(rs, p):
            covered.add(compose(rs, a, r).matrix)
    assert len(covered) == len(enumerate_weyl(rs))


# every irreducible type of rank <= 4, a product and a torus
COSET_LABELS = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    "A2xA1", "A2+T1",
]


@pytest.mark.parametrize("label", COSET_LABELS)
def test_coset_space_times_parabolic_is_the_group(label):
    # |W^J|·|W_J| = |W|: each element factors uniquely as w^J·w_J
    rs = build_root_system(label)
    order = len(enumerate_weyl(rs))
    trivial = ParabolicSubgroup.of(())
    for k in range(rs.rank + 1):
        for j in itertools.combinations(range(rs.rank), k):
            p = ParabolicSubgroup.of(j)
            reps = minimal_coset_reps(rs, trivial, p)
            assert len(reps) * len(parabolic_elements(rs, p)) == order, j
