"""The one-sided records are the v2 = e slice of the pair records.

For every record v of ``classify_gminus`` the ``classify_g`` record (v, e)
has the same stable object, the same leaf dimension and orbit range, and a
coset dimension that differs by one constant per job.  Tier-1 runs every
valid triple of the systems of rank 3 or less below against the whole pair
table, and samples of rank 4 through one ``_Frame``: the pair (v, e) is
built from ``left(v)`` and ``right(e)`` only, and must be the very object
that ``single(v)`` returns.  As a script it runs every record of every
valid triple of A4, B4 and D4 that way and exits 1 on a mismatch:

    python tests/test_one_sided_slice.py
"""

from __future__ import annotations

import random
import sys

import pytest

from leafatlas import (
    build_root_system,
    classify_g,
    classify_gminus,
    compute_decomposition,
    enumerate_valid_triples,
    solve_r0,
    validate_triple,
)
from leafatlas.leafclass import _Frame
from leafatlas.weyl import weyl_identity

SMALL = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xA1", "A2+T1"]


def _decomposition(rs, t):
    return compute_decomposition(rs, t, solve_r0(rs, t, "canonical"))


def table_mismatches(rs, t) -> tuple[int, list]:
    """Each one-sided record against the pair record (v, e) of the whole
    pair table: the number checked and the (v, field) of each difference."""
    d = _decomposition(rs, t)
    e = weyl_identity(rs)
    pairs = {r.v1: r for r in classify_g(rs, t, d) if r.v2 == e}
    records = classify_gminus(rs, t, d)
    bad, gaps = [], set()
    for r in records:
        p = pairs[r.v]
        bad += [(r.v, name) for name in ("stable", "leaf_dim", "orbit_range")
                if getattr(r, name) != getattr(p, name)]
        gaps.add(r.coset_dim.constant - p.coset_dim.constant)
    if len(gaps) > 1:
        bad.append((None, f"coset gaps {sorted(gaps)}"))
    return len(records), bad


def frame_mismatches(rs, t, sample: int | None = None, seed: int = 0) -> tuple[int, list]:
    """Each one-sided record (or a seeded sample of them) against the pair
    (v, e) built through one frame: the number checked and the (v, field) of
    each difference.  The shared frame must return single(v)'s own object."""
    d = _decomposition(rs, t)
    e = weyl_identity(rs)
    records = classify_gminus(rs, t, d)
    if sample is not None and sample < len(records):
        records = random.Random(seed).sample(records, sample)
    frame = _Frame(rs, t, d)
    right = frame.right(e)
    bad = []
    for r in records:
        st = frame.pair(frame.left(r.v), right)
        p = frame.record(st, 0, v1=r.v, v2=e)
        bad += [(r.v, name) for name in ("stable", "leaf_dim", "orbit_range")
                if getattr(r, name) != getattr(p, name)]
        if frame.single(r.v) is not st:
            bad.append((r.v, "memo"))
    return len(records), bad


@pytest.mark.parametrize("label", SMALL)
def test_one_sided_records_are_the_v2_e_pair_records(label):
    rs = build_root_system(label)
    checked = 0
    for t in enumerate_valid_triples(rs):
        count, bad = table_mismatches(rs, t)
        assert bad == [], (label, t)
        checked += count
    assert checked > 0


def test_the_small_systems_cover_36_triples_and_404_records():
    systems = map(build_root_system, SMALL)
    triples = [(rs, t) for rs in systems for t in enumerate_valid_triples(rs)]
    assert len(triples) == 36
    assert sum(len(classify_gminus(rs, t, _decomposition(rs, t))) for rs, t in triples) == 404


# (label, gamma1, gamma2, tau), 0-based: the CI digest triples of B4, D4 and
# F4, a shift on C4 and the A4 Cremmer-Gervais triple
RANK_4 = [
    ("A4", (0, 1, 2), (1, 2, 3), {0: 1, 1: 2, 2: 3}),
    ("B4", (0,), (1,), {0: 1}),
    ("C4", (0, 1), (1, 2), {0: 1, 1: 2}),
    ("D4", (0,), (2,), {0: 2}),
    ("F4", (0,), (1,), {0: 1}),
]


@pytest.mark.parametrize("label,g1,g2,tau", RANK_4, ids=[r[0] for r in RANK_4])
def test_rank_4_samples_share_the_pair_frames_stable_objects(label, g1, g2, tau):
    rs = build_root_system(label)
    t = validate_triple(rs, g1, g2, tau)
    checked, bad = frame_mismatches(rs, t, sample=40, seed=len(g1))
    assert bad == [], (label, t)
    assert checked == (5 if label == "A4" else 40)  # |W^Gamma1| = 5 on A4


if __name__ == "__main__":
    failed = False
    for label in ("A4", "B4", "D4"):
        rs = build_root_system(label)
        triples = enumerate_valid_triples(rs)
        checked, bad = 0, []
        for t in triples:
            count, found = frame_mismatches(rs, t)
            checked += count
            bad += [(t, v, name) for v, name in found]
        for t, v, name in bad:
            print(f"{label} {t}: v={v}: {name} differs")
        print(f"{label}: {len(triples)} triples, {checked - len(bad)}/{checked} records match")
        failed = failed or bool(bad)
    sys.exit(1 if failed else 0)
