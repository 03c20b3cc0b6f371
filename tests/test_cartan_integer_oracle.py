"""The integer Cartan stage against a Fraction reference.

`solve_r0`, `check_cartan_term`, `compute_decomposition` and `sigma_group`
carry the Cartan term as an integer matrix over one denominator and build
the public Fraction matrices (r0, `f_cartan`, `theta_cartan`)
once at the end.  The reference in ``helpers`` stays over Q throughout: r0
by Gaussian elimination of the slot rows, f = r0·G, theta in the product
form f·(f - 1)^-1, and Sigma through four lattices (ker', the image
(1 - theta)·ker, their meet and the quotient).

Tier-1 compares r0, f, theta, the scaled Theta and Sigma on all 808 valid
triples of the systems in COUNTS; A2+T1 has no exponential kernel, so its
Sigma stage raises by design and only its decomposition is compared.  A
Hypothesis test feeds the one gate random terms, and every Weyl isometry
goes through match_theta.  As a script it runs every valid triple of A6, D6
and E7 (2391 triples) and exits 1 on a mismatch:

    python tests/test_cartan_integer_oracle.py
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    gauss_inverse,
    msub,
    reference_check_cartan_term,
    reference_r0,
    reference_sigma,
    reference_theta,
)
from leafatlas import (
    build_root_system,
    compute_decomposition,
    enumerate_valid_triples,
    enumerate_weyl,
    exp_kernel_lattice,
    sigma_group,
    solve_r0,
    validate_triple,
)
from leafatlas.bdtriple import Infeasible, TargetThetaNotIsometry
from leafatlas.cli import _parse_matrix_file
from leafatlas.linalg import identity, mat, matmul, transpose

DATA = Path(__file__).resolve().parent / "data"

# valid triples per system: 808 in all
COUNTS = {
    "A1": 1, "A2": 3, "A3": 9, "A4": 33, "A5": 115, "B2": 1, "B3": 3, "B4": 9, "B5": 33,
    "C3": 3, "C4": 9, "C5": 33, "D4": 25, "D5": 101, "G2": 1, "F4": 7, "E6": 407,
    "A1xA1": 3, "A2xA1": 9, "A2+T1": 3,
}
SCRIPT_SYSTEMS = ("A6", "D6", "E7")


def _fractions_only(m) -> bool:
    return all(type(x) is Fraction for row in m for x in row)


def _scaled(theta):
    """(c·theta, c) for the lcm c of theta's denominators."""
    c = lcm(*(x.denominator for row in theta for x in row))
    return tuple(tuple(int(x * c) for x in row) for row in theta), c


def mismatches(rs, t) -> list[str]:
    """The Cartan-stage outputs of the package that differ from the reference
    (every valid triple has a canonical term, so neither side raises)."""
    ref = reference_r0(rs, t)
    term = solve_r0(rs, t, "canonical")
    d = compute_decomposition(rs, t, term)
    f = matmul(ref, rs.gram)
    theta = reference_theta(f)
    bad = [
        name
        for name, got, want in (
            ("r0", term, ref), ("f", d.f_cartan, f), ("theta", d.theta_cartan, theta)
        )
        if got != want or not _fractions_only(got)
    ]
    if d.theta_scaled != _scaled(theta):
        bad.append("theta_scaled")
    if rs.torus_rank == 0:
        kernel = exp_kernel_lattice(rs)
        if sigma_group(d, kernel) != reference_sigma(theta, kernel):
            bad.append("sigma")
    return bad


@pytest.mark.parametrize("label", COUNTS)
def test_cartan_stage_matches_the_fraction_reference(label):
    rs = build_root_system(label)
    triples = enumerate_valid_triples(rs)
    assert len(triples) == COUNTS[label]
    bad = [(t, m) for t in triples if (m := mismatches(rs, t))]
    assert bad == []


# ---------------------------------------------------------------------------
# the one gate: random terms accepted or rejected as the reference check does

GATE_SYSTEMS = ("A2", "B2", "G2", "A3", "B3")
entries = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=12))


@cache
def _triples(label):
    return enumerate_valid_triples(build_root_system(label))


@st.composite
def gate_terms(draw):
    """A system, a valid triple and a k×k term: random entries, or the
    canonical term plus a random skew part (which keeps r0 + r0^T = omega)."""
    label = draw(st.sampled_from(GATE_SYSTEMS))
    rs = build_root_system(label)
    t = draw(st.sampled_from(_triples(label)))
    k = rs.cartan_rank
    if draw(st.booleans()):
        return rs, t, mat([[draw(entries) for _ in range(k)] for _ in range(k)])
    m = [list(row) for row in solve_r0(rs, t, "canonical")]
    for i, j in combinations(range(k), 2):
        x = draw(entries)
        m[i][j] += x
        m[j][i] -= x
    return rs, t, mat(m)


def _outcome(fn, *args):
    """(value, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except Exception as e:  # the type is part of what is compared
        return None, (type(e), str(e))


@settings(max_examples=200, deadline=None)
@given(gate_terms())
def test_the_gate_accepts_and_rejects_as_the_reference_check(case):
    rs, t, m = case
    term = m
    _, want = _outcome(reference_check_cartan_term, rs, t, term)
    d, got = _outcome(compute_decomposition, rs, t, term)
    assert got == want
    if d is not None:
        f = matmul(m, rs.gram)
        assert d.f_cartan == f and d.theta_cartan == reference_theta(f)
        assert d.theta_scaled == _scaled(d.theta_cartan)


def reference_match_theta(rs, t, target):
    """The match_theta term theta·(theta - 1)^-1·G^-1 over Q, with the
    errors solve_r0 raises."""
    k = rs.cartan_rank
    if matmul(matmul(transpose(target), rs.gram), target) != rs.gram:
        raise TargetThetaNotIsometry("target does not preserve the form")
    inv = gauss_inverse(msub(target, identity(k)))
    if inv is None:
        raise TargetThetaNotIsometry("target has fixed vectors; the Cayley transform is undefined")
    r0 = matmul(matmul(target, inv), gauss_inverse(rs.gram))
    try:
        reference_check_cartan_term(rs, t, r0)
    except Infeasible as e:
        raise Infeasible(f"target theta incompatible with the triple: {e}") from None
    return r0


@pytest.mark.parametrize("label", GATE_SYSTEMS)
def test_match_theta_on_every_weyl_isometry(label):
    """Every ±w for w in W is an isometry of the form and 2·w is not; an
    isometry with a fixed vector has no Cayley transform, and the others give
    a term that each triple accepts or rejects as the reference does."""
    rs = build_root_system(label)
    seen = set()
    for w in enumerate_weyl(rs):
        for scale in (1, -1, 2):
            target = mat([[scale * x for x in row] for row in w.matrix])
            for t in _triples(label):
                want, want_err = _outcome(reference_match_theta, rs, t, target)
                got, got_err = _outcome(
                    lambda: solve_r0(rs, t, "match_theta", theta_target=target)
                )
                assert got_err == want_err, (w.matrix, scale, t)
                if got is not None:
                    assert got == want
                    assert compute_decomposition(rs, t, got).theta_cartan == target
                seen.add(want_err and want_err[1].split(";")[0].split(":")[0])
    assert {None, "target has fixed vectors", "target does not preserve the form"} <= seen


def test_match_theta_on_the_a5_coxeter_rotation():
    rs = build_root_system("A5")
    t = validate_triple(rs, (), (), {})
    target = _parse_matrix_file(str(DATA / "a5_coxeter.mat"))
    term = solve_r0(rs, t, "match_theta", theta_target=target)
    assert term == reference_match_theta(rs, t, target)
    d = compute_decomposition(rs, t, term)
    assert d.theta_cartan == target and d.f_cartan == matmul(term, rs.gram)
    kernel = exp_kernel_lattice(rs)
    assert sigma_group(d, kernel) == reference_sigma(target, kernel)


if __name__ == "__main__":
    failed = False
    for label in SCRIPT_SYSTEMS:
        start = time.perf_counter()
        rs = build_root_system(label)
        triples = enumerate_valid_triples(rs)
        bad = [(t, m) for t in triples if (m := mismatches(rs, t))]
        for t, m in bad:
            print(f"{label} {t}: {', '.join(m)} differ")
        took = time.perf_counter() - start
        print(f"{label}: {len(triples) - len(bad)}/{len(triples)} triples match ({took:.1f} s)")
        failed = failed or bool(bad)
    sys.exit(1 if failed else 0)
