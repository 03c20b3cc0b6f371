import hashlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import assert_simple_generated, coroot, form_pairing, reflect
from leafatlas import build_root_system, exp_kernel_lattice, rootsys
from leafatlas.cli import JobConfig, run_job
from leafatlas.rootsys import levi_roots
from leafatlas.linalg import det, mat

DATA = Path(__file__).parent / "data"

# positive root counts from the closed forms per family:
# A_n n(n+1)/2, B_n/C_n n^2, D_n n(n-1), G2 6, F4 24, E6/7/8 36/63/120
POSITIVE_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "A4": 10,
    "A5": 15,
    "B2": 4,
    "B3": 9,
    "B4": 16,
    "C3": 9,
    "C4": 16,
    "D4": 12,
    "D5": 20,
    "G2": 6,
    "F4": 24,
    "E6": 36,
    "E7": 63,
    "E8": 120,
}


@pytest.mark.parametrize("label,count", sorted(POSITIVE_COUNTS.items()))
def test_positive_root_count(label, count):
    rs = build_root_system(label)
    assert len(rs.positive_roots) == count


def test_gram_is_symmetric_and_long_roots_have_norm_two():
    for label in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build_root_system(label)
        g = rs.gram
        assert g == tuple(tuple(r) for r in zip(*g))
        norms = {form_pairing(rs, a, a) for a in rs.positive_roots}
        assert max(norms) == 2


def _norms(label):
    rs = build_root_system(label)
    return {form_pairing(rs, a, a) for a in rs.positive_roots}


def test_short_root_norms_per_family():
    assert _norms("B3") == {Fraction(1), Fraction(2)}
    assert _norms("G2") == {Fraction(2, 3), Fraction(2)}
    assert _norms("A4") == {Fraction(2)}


def test_product_label_concatenates_blocks():
    rs = build_root_system("A1xA1")
    assert rs.rank == 2
    assert len(rs.positive_roots) == 2
    # no cross terms in the form
    assert form_pairing(rs, (1, 0), (0, 1)) == 0
    rs2 = build_root_system("A2 + B2")
    assert rs2.rank == 4
    assert len(rs2.positive_roots) == 3 + 4


def test_torus_extends_cartan_rank_only():
    rs = build_root_system("A2xT2")
    assert rs.rank == 2
    assert rs.cartan_rank == 4
    assert rs.torus_rank == 2
    # gram is block diagonal with an identity torus block
    assert rs.gram[2][2] == 1 and rs.gram[3][3] == 1
    assert rs.gram[0][2] == 0


def test_label_rejects_garbage():
    for bad in ("", "H3", "A0", "Q5", "A2xZ1"):
        with pytest.raises(ValueError):
            build_root_system(bad)


def test_one_root_system_per_label_string():
    assert build_root_system("B3") is build_root_system("B3")
    # keyed on the raw label, so each spelling keeps its own type_label
    lower, upper = build_root_system("a3"), build_root_system("A3")
    assert (lower.type_label, upper.type_label) == ("a3", "A3")
    assert lower.positive_roots == upper.positive_roots
    with pytest.raises(ValueError):
        build_root_system("Q5")
    assert "Q5" not in rootsys._BUILT


def test_jobs_on_one_label_build_its_root_system_once(monkeypatch):
    calls = []
    real = rootsys._simple_reflections
    monkeypatch.setattr(rootsys, "_BUILT", {})
    monkeypatch.setattr(
        rootsys, "_simple_reflections", lambda *args: calls.append(args) or real(*args)
    )
    cfg = JobConfig(root_system="B3", gamma1=(0,), gamma2=(1,), tau=((0, 1),))
    for _ in range(2):
        assert not run_job(cfg).errors
    assert len(calls) == 1


def test_reflection_is_involution_preserving_roots():
    rs = build_root_system("G2")
    for i in range(rs.rank):
        for a in rs.all_roots:
            b = reflect(rs, i, a)
            assert b in rs.all_roots
            assert reflect(rs, i, b) == a


def test_form_pairing_is_bilinear_symmetric():
    rs = build_root_system("B3")
    x, y, z = (1, 0, 0), (0, 1, 1), (1, 1, 0)
    assert form_pairing(rs, x, y) == form_pairing(rs, y, x)
    xz = tuple(a + b for a, b in zip(x, z))
    assert form_pairing(rs, xz, y) == form_pairing(rs, x, y) + form_pairing(rs, z, y)


def test_coroot_of_long_root_equals_root():
    rs = build_root_system("A3")
    for a in rs.positive_roots:
        assert coroot(rs, a) == tuple(Fraction(x) for x in a)


def test_exp_kernel_is_the_coroot_lattice():
    rs = build_root_system("A2")
    lat = exp_kernel_lattice(rs)
    assert lat.ambient == 2
    assert lat.contains([1, 0]) and lat.contains([0, 1])
    assert abs(det(mat([list(c) for c in zip(*lat.columns())]))) == 1
    # B2: the short coroot is twice as long in root coordinates
    rsb = build_root_system("B2")
    latb = exp_kernel_lattice(rsb)
    cols = {tuple(int(x) for x in c) for c in latb.columns()}
    assert len(cols) == 2


def test_exp_kernel_requires_explicit_lattice_for_torus():
    # a job with a central torus passes its own kernel to sigma_group
    rs = build_root_system("A1xT1")
    with pytest.raises(ValueError, match="central torus present: exp kernel must be supplied"):
        exp_kernel_lattice(rs)


@pytest.mark.parametrize("label", ["A4", "B3", "C3", "D4", "G2", "F4", "E6", "A2xA1+T1"])
def test_levi_roots_are_generated_by_their_simple_roots(label):
    # every simple root in the support of a root of Phi_S lies in Phi_S,
    # which is why the stable root sets of leafclass need no such check
    rs = build_root_system(label)
    for size in range(rs.rank + 1):
        for s in itertools.combinations(range(rs.rank), size):
            assert_simple_generated(rs, levi_roots(rs, s))
    # the check is not vacuous: alpha_1 + alpha_2 without alpha_1 fails it
    a2 = build_root_system("A2")
    with pytest.raises(AssertionError, match="not generated by its simple roots"):
        assert_simple_generated(a2, ((1, 1), (0, 1), (0, -1), (-1, -1)))


# every valid (letter, n) with n <= 8, and one product with a torus
GRAM_LABELS = [
    *(f"{letter}{n}" for letter in "ABC" for n in range(1, 9)),
    *(f"D{n}" for n in range(2, 9)),
    "E6", "E7", "E8", "F4", "G2", "B2xG2+T1",
]


def _gram_text(labels):
    return "".join(
        f"{label}: " + "; ".join(" ".join(map(str, row)) for row in build_root_system(label).gram) + "\n"
        for label in labels
    )


def test_gram_blocks_match_their_pinned_digest():
    # the pin reads as sha256sum -c input; it was written by the per-family
    # hand-written Gram blocks that the Dynkin-edge rule replaced
    assert len(GRAM_LABELS) == 37
    digest = hashlib.sha256(_gram_text(GRAM_LABELS).encode()).hexdigest()
    assert digest == (DATA / "gram_blocks.sha256").read_text().split()[0]
    assert _gram_text(["G2"]) == "G2: 2/3 -1; -1 2\n"
