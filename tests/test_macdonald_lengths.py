"""Macdonald's length polynomial on every coset space W^J.

Every w in W is w^J·w_J with w^J minimal in w·W_J, w_J in W_J and the
lengths adding, so the length polynomial of the minimal coset
representatives is P_J(q) = W(q)/W_J(q).  W_I(q), the sum of q^l(w) over
W_I, is Macdonald's product over the positive roots a of I,
prod (1 - q^(ht a + 1))/(1 - q^(ht a)) (Macdonald, "The Poincaré series of
a Coxeter group", Math. Ann. 199 (1972)).  The check multiplies out, with no
division: P_J·N_J·D = N·D_J, for N and D the numerator and denominator
products of W, and N_J and D_J those of W_J.  Polynomials are coefficient
lists multiplied here; the coset spaces come from minimal_coset_reps, and
the lengths from its walk.

Tier-1 checks every J of A1-A5, B2-B5, C3-C5, D4, D5, G2, F4, A1xA1, A2xA1
and A2+T1 (262 subsets).  On the three golden pairs jobs it checks that
each report word has as many letters as its record's length says, and that
the joint (l(v1), l(v2)) distribution is P_Gamma1(q1)·P_Gamma2(q2).  As a
script it checks every J of A6, D6 and E6 and the coset spaces of the E7
and E8 one-sided CI jobs (4032 and 138,240 elements), and exits 1 on a
mismatch:

    python tests/test_macdonald_lengths.py
"""

import json
import sys
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

from leafatlas import build_root_system, cli, minimal_coset_reps
from leafatlas.rootsys import levi_roots
from leafatlas.weyl import ParabolicSubgroup

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

TIER1_SYSTEMS = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
    "D4", "D5", "G2", "F4", "A1xA1", "A2xA1", "A2+T1",
)


def _times(*polys) -> list[int]:
    """The product of coefficient lists (entry i is the coefficient of q^i)."""
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(p):
                prod[i + j] += x * y
        out = prod
    return out


def _geometric(h: int) -> list[int]:
    """(1 - q^h)/(1 - q) = 1 + q + ... + q^(h-1)."""
    return [1] * h


def macdonald(rs, indices) -> tuple[list[int], list[int]]:
    """(N, D) with W_I(q) = N/D for I = indices: the products of
    [ht a + 1]_q and [ht a]_q over the positive roots a of I, the factors
    1 - q of Macdonald's product cancelled pairwise."""
    heights = [sum(a) for a in levi_roots(rs, indices) if sum(a) > 0]
    return (
        _times(*(_geometric(h + 1) for h in heights)),
        _times(*(_geometric(h) for h in heights)),
    )


def length_polynomial(reps) -> list[int]:
    """Coefficient i: the number of elements of length i."""
    counts = Counter(w.length for w in reps)
    return [counts[i] for i in range(max(counts) + 1)]


def coset_polynomial(rs, indices) -> list[int]:
    """The length polynomial of W^J for J = indices."""
    reps = minimal_coset_reps(rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(indices))
    return length_polynomial(reps)


def mismatch(rs, indices) -> bool:
    """Whether P_J·N_J·D differs from N·D_J (module docstring)."""
    n, d = macdonald(rs, range(rs.rank))
    nj, dj = macdonald(rs, indices)
    return _times(coset_polynomial(rs, indices), nj, d) != _times(n, dj)


def _subsets(rank: int):
    return chain.from_iterable(combinations(range(rank), k) for k in range(rank + 1))


def failures(labels) -> tuple[int, list]:
    """The number of (system, J) checked and the ones that fail."""
    cases = [(label, j) for label in labels for j in _subsets(build_root_system(label).rank)]
    return len(cases), [(label, j) for label, j in cases if mismatch(build_root_system(label), j)]


def test_coset_length_polynomial_is_macdonalds_quotient_on_every_subset():
    assert failures(TIER1_SYSTEMS) == (262, [])


def _letters(word: str) -> int:
    return 0 if word == "e" else len(word.split())


def test_golden_pairs_lengths_are_the_product_of_the_one_sided_polynomials():
    """The report's words against the record lengths, and the joint length
    distribution of the pairs against P_Gamma1(q1)·P_Gamma2(q2)."""
    jobs = json.loads(GOLDEN.read_text())["pairs"]
    assert len(jobs) == 3
    for job in jobs:
        rs = build_root_system(job["root_system"])
        report = cli.run_job(
            cli.JobConfig(
                root_system=job["root_system"],
                gamma1=tuple(job["gamma1"]),
                gamma2=tuple(job["gamma2"]),
                tau=tuple(tuple(p) for p in job["tau"]),
                mode="full",
            )
        )
        assert report.errors == []
        pairs = [(_letters(r["v1"]), _letters(r["v2"])) for r in report.records]
        assert [a + b for a, b in pairs] == [r["length"] for r in report.records], job
        p1 = coset_polynomial(rs, job["gamma1"])
        p2 = coset_polynomial(rs, job["gamma2"])
        want = {(i, j): x * y for i, x in enumerate(p1) for j, y in enumerate(p2) if x * y}
        assert Counter(pairs) == want, job


if __name__ == "__main__":
    checked, bad = failures(("A6", "D6", "E6"))
    # the coset spaces of the E7 and E8 one-sided CI jobs, 0-based Gamma1
    for label, gamma1, size in (("E7", (0, 2, 3, 4, 5), 4032), ("E8", (0, 2, 3, 4, 5, 6), 138240)):
        rs = build_root_system(label)
        checked += 1
        if sum(coset_polynomial(rs, gamma1)) != size or mismatch(rs, gamma1):
            bad.append((label, gamma1))
    for label, j in bad:
        print(f"{label} J={j}: the coset length polynomial is not W(q)/W_J(q)")
    print(f"{checked - len(bad)}/{checked} coset spaces match Macdonald's quotient")
    sys.exit(1 if bad else 0)
