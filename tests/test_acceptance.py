"""Acceptance gate: nine end-to-end checks with hard runtime budgets.

conftest.py turns the outcome of each ``test_primary_*`` function into a
single ``[PRIMARY k] PASS/FAIL`` line in the terminal summary.  Oracles
here are deliberately independent of the code under test: brute-force
coset searches, centralizer nullities, and residue-class enumeration of
lattice quotients.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from helpers import cg_orbit_correspondence, in_parabolic, lattice_intersection, solve
from leafatlas import (
    build_root_system,
    cg_triple,
    compute_decomposition,
    enumerate_valid_triples,
    solve_r0,
    validate_triple,
)
from leafatlas.bdtriple import induction_chain
from leafatlas.leafclass import (
    FiniteAbelianGroup,
    classify_g,
    classify_gminus,
    sigma_group,
)
from leafatlas.linalg import (
    Lattice,
    det,
    mat,
    quotient_invariants,
    rank,
)
from leafatlas.rootsys import exp_kernel_lattice
from leafatlas.typea import (
    MatrixElement,
    block_labels,
    cg_sigma,
    check_cybe,
    check_symmetric_part,
    identity_twist,
    normalize_coset,
    realize_r,
    root_to_interval,
    tc_orbit_dim,
)
from leafatlas.weyl import (
    ParabolicSubgroup,
    compose,
    decompose_min,
    enumerate_weyl,
    minimal_coset_reps,
    simple_reflection,
)


def _cg_setup(n):
    rs = build_root_system(f"A{n}")
    triple = cg_triple(rs)
    d = compute_decomposition(rs, triple, solve_r0(rs, triple, "canonical"))
    return rs, triple, d


def _std_setup(label):
    rs = build_root_system(label)
    triple = validate_triple(rs, (), (), {})
    d = compute_decomposition(rs, triple, solve_r0(rs, triple, "canonical"))
    return rs, triple, d


def _ad_rank(w):
    m = mat(w.matrix)
    k = len(m)
    shifted = [
        [m[i][j] - (1 if i == j else 0) for j in range(k)] for i in range(k)
    ]
    return rank(mat(shifted))


def _within(start, budget):
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s > {budget}s"


# ---------------------------------------------------------------------------
# 1. exact Yang-Baxter residual for every valid triple of rank <= 3


def test_primary_1_cybe_exactness():
    start = time.monotonic()
    checked = 0
    for label in ("A1", "A2", "A3"):
        rs = build_root_system(label)
        for triple in enumerate_valid_triples(rs):
            r = realize_r(rs.rank, triple, solve_r0(rs, triple, "canonical"))
            assert check_symmetric_part(r)
            assert check_cybe(r).is_zero()
            checked += 1
    assert checked == 1 + 3 + 9
    _within(start, 30.0)


# ---------------------------------------------------------------------------
# 2. cyclic-shift dressing-orbit tables, n = 1..4


def test_primary_2_shift_gminus_tables():
    start = time.monotonic()
    for n in range(1, 5):
        rs, triple, d = _cg_setup(n)
        records = classify_gminus(rs, triple, d)
        assert len(records) == n + 1
        by_v = {rec.v.matrix: rec for rec in records}
        for j in range(n + 1):
            rec = by_v[cg_sigma(rs, j).matrix]
            st = rec.stable
            # the stable subalgebra is the Cartan plus a gl(j) root block
            assert len(st.root_set) == j * (j - 1)
            assert st.derived_dim == max(j * j - 1, 0)
            assert st.derived_dim + st.center_dim == n + j * (j - 1)
            assert rec.coset_dim.constant == n * (n + 1) + (n - j) * (n + j + 1)
    _within(start, 5.0)


# ---------------------------------------------------------------------------
# 3. cyclic-shift double-coset tables, n = 2, 3


def test_primary_3_shift_full_tables():
    start = time.monotonic()
    for n in (2, 3):
        rs, triple, d = _cg_setup(n)
        records = classify_g(rs, triple, d)
        assert len(records) == (n + 1) ** 2
        seen = set()
        for rec in records:
            j = n - rec.v1.length
            k = n - rec.v2.length
            seen.add((j, k))
            s = j + k
            if s >= n:
                expected = (2 * n - s) * (s + 1)
                m = s - n
            else:
                expected = (2 * n - s - 2) * (s + 1) + 2 * n
                m = n - s - 1
            assert rec.leaf_dim.constant == expected
            assert len(rec.stable.root_set) == m * (m - 1)
            assert len(rec.stable.partner_root_set) == m * (m - 1)
            assert rec.stable.derived_dim == max(m * m - 1, 0)
        assert seen == {(j, k) for j in range(n + 1) for k in range(n + 1)}
    _within(start, 10.0)


# ---------------------------------------------------------------------------
# 4. discrete intersection group, with brute-force quotient cross-check


def _relation_matrix(sup, sub):
    cols = []
    for c in sub.columns():
        coords = solve(sup.basis, c)
        assert coords is not None and all(x.denominator == 1 for x in coords)
        cols.append([int(x) for x in coords])
    k = sup.rank
    return mat([[Fraction(cols[j][i]) for j in range(len(cols))] for i in range(k)])


def _enumerate_classes(rel):
    k = len(rel)
    size = abs(int(det(rel)))
    assert size > 0
    reps, keys = [], set()
    for point in itertools.product(range(size), repeat=k):
        coords = solve(rel, point)
        key = tuple(x % 1 for x in coords)
        if key not in keys:
            keys.add(key)
            reps.append(point)
        if len(reps) == size:
            break
    assert len(reps) == size
    return reps


def _sigma_lattices(rs, d):
    """The same sup/sub pair the invariant-factor path reduces."""
    kernel = exp_kernel_lattice(rs)
    theta = d.theta_cartan
    k = len(theta)
    one_minus = [
        [(1 if i == j else 0) - theta[i][j] for j in range(k)] for i in range(k)
    ]
    image_cols = [
        tuple(sum(one_minus[i][t] * c[t] for t in range(k)) for i in range(k))
        for c in kernel.columns()
    ]
    denom = 1
    for c in image_cols:
        for x in c:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    sup = Lattice(k, [tuple(x * denom for x in c) for c in kernel.columns()])
    image = Lattice(k, [tuple(x * denom for x in c) for c in image_cols])
    return sup, lattice_intersection(sup, image)


def test_primary_4_sigma_groups():
    start = time.monotonic()
    for n in range(1, 5):
        rs, _, d = _std_setup(f"A{n}")
        assert sigma_group(d, exp_kernel_lattice(rs)) == FiniteAbelianGroup(
            (2,) * n, 0
        )
        rs, _, d = _cg_setup(n)
        assert sigma_group(d, exp_kernel_lattice(rs)) == FiniteAbelianGroup(
            (n + 1,), 0
        )
    # brute-force residue enumeration on the ranks that stay small
    for n in (1, 2, 3):
        for rs, _, d in (_std_setup(f"A{n}"), _cg_setup(n)):
            g = sigma_group(d, exp_kernel_lattice(rs))
            sup, sub = _sigma_lattices(rs, d)
            inv, free = quotient_invariants(sup, sub.columns())
            assert (inv, free) == (g.invariant_factors, g.free_rank)
            assert free == 0
            rel = _relation_matrix(sup, sub)
            reps = _enumerate_classes(rel)
            assert len(reps) == g.order
            for m in (1, 2, 3, 4, 6, 12):
                expected = 1
                for x in inv:
                    expected *= gcd(x, m)
                count = 0
                for p in reps:
                    coords = solve(rel, [m * x for x in p])
                    if all(x.denominator == 1 for x in coords):
                        count += 1
                assert count == expected
    _within(start, 5.0)


# ---------------------------------------------------------------------------
# 5. trivial-triple dimension formulas from the adjoint action


def test_primary_5_standard_dimensions():
    start = time.monotonic()
    for label in ("A1", "A2"):
        rs, triple, d = _std_setup(label)
        dim_b = len(rs.positive_roots) + rs.rank
        records = classify_gminus(rs, triple, d)
        assert len(records) == len(enumerate_weyl(rs))
        for rec in records:
            lo, hi = rec.orbit_range
            assert lo == hi
            expected = dim_b + rec.v.length + _ad_rank(rec.v)
            assert rec.coset_dim.at(lo) == expected
        for rec in classify_g(rs, triple, d):
            lo, hi = rec.orbit_range
            assert lo == hi
            prod = compose(rs, rec.v1, rec.v2)
            expected = rec.v1.length + rec.v2.length + _ad_rank(prod)
            assert rec.leaf_dim.at(lo) == expected
    _within(start, 5.0)


# ---------------------------------------------------------------------------
# 6. minimal double-coset representatives vs exhaustive search


def _double_cosets(rs, elems, left_idx, right_idx):
    """Partition of the Weyl group into P_left \\ W / P_right classes."""
    index = {w.matrix: w for w in elems}
    seen = set()
    cosets = []
    for w in elems:
        if w.matrix in seen:
            continue
        comp = {w.matrix}
        frontier = [w]
        while frontier:
            x = frontier.pop()
            for i in left_idx:
                y = compose(rs, simple_reflection(rs, i), x)
                if y.matrix not in comp:
                    comp.add(y.matrix)
                    frontier.append(y)
            for i in right_idx:
                y = compose(rs, x, simple_reflection(rs, i))
                if y.matrix not in comp:
                    comp.add(y.matrix)
                    frontier.append(y)
        seen |= comp
        cosets.append([index[m] for m in comp])
    return cosets


def test_primary_6_minimal_representatives():
    start = time.monotonic()
    for label in ("A3", "B3"):
        rs = build_root_system(label)
        elems = enumerate_weyl(rs)
        subsets = [
            tuple(s)
            for r in range(rs.rank + 1)
            for s in itertools.combinations(range(rs.rank), r)
        ]
        for left_idx in subsets:
            p_left = ParabolicSubgroup.of(left_idx)
            for right_idx in subsets:
                p_right = ParabolicSubgroup.of(right_idx)
                mins = []
                for coset in _double_cosets(rs, elems, left_idx, right_idx):
                    shortest = min(c.length for c in coset)
                    least = [c for c in coset if c.length == shortest]
                    assert len(least) == 1
                    mins.append(least[0])
                    for w in coset:
                        w1, wm, w2 = decompose_min(rs, w, p_left, p_right)
                        assert wm.matrix == least[0].matrix
                        assert in_parabolic(rs, w1, p_left)
                        assert in_parabolic(rs, w2, p_right)
                        assert w1.length + wm.length + w2.length == w.length
                        both = compose(rs, compose(rs, w1, wm), w2)
                        assert both.matrix == w.matrix
                got = {
                    u.matrix for u in minimal_coset_reps(rs, p_left, p_right)
                }
                assert got == {u.matrix for u in mins}
    _within(start, 60.0)


# ---------------------------------------------------------------------------
# 7. orbit dimensions from centralizers


def _random_invertible(m, rng):
    while True:
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(m)]
        if det(mat(rows)) != 0:
            return rows


def _gl_centralizer_dim(b):
    """Nullity of X -> bX - Xb on the full matrix block."""
    m = len(b)
    cols = []
    for k in range(m):
        for l in range(m):
            e = [[Fraction(0)] * m for _ in range(m)]
            e[k][l] = Fraction(1)
            be = [
                [sum(b[i][t] * e[t][j] for t in range(m)) for j in range(m)]
                for i in range(m)
            ]
            eb = [
                [sum(e[i][t] * b[t][j] for t in range(m)) for j in range(m)]
                for i in range(m)
            ]
            cols.append([be[i][j] - eb[i][j] for i in range(m) for j in range(m)])
    comm = mat([[cols[j][i] for j in range(m * m)] for i in range(m * m)])
    return m * m - rank(comm)


def _embed_block(b):
    m = len(b)
    d = det(mat(b))
    out = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(m):
            out[i][j] = Fraction(b[i][j])
    out[m][m] = 1 / d
    return MatrixElement(out, "group")


def test_primary_7_orbit_dimension_oracle():
    start = time.monotonic()
    rng = random.Random(23)
    for m, count in ((2, 50), (3, 50)):
        rs = build_root_system(f"A{m}")
        block_roots = [a for a in rs.all_roots if a[rs.rank - 1] == 0]
        for _ in range(count):
            b = _random_invertible(m, rng)
            expected = m * m - _gl_centralizer_dim(b)
            got = tc_orbit_dim(_embed_block(b), identity_twist(), block_roots)
            assert got == expected
    for n in range(1, 5):
        for j in range(n + 1):
            if j == 0:
                tc, gl = cg_orbit_correspondence(n, 0, None)
                assert tc - gl == n
                continue
            for _ in range(3):
                b = _random_invertible(j, rng)
                tc, gl = cg_orbit_correspondence(n, j, b)
                assert tc - gl == n - j
    _within(start, 30.0)


# ---------------------------------------------------------------------------
# 8. induction chains decrement the order by exactly one


def test_primary_8_induction_chains():
    start = time.monotonic()
    for n in range(2, 6):
        rs = build_root_system(f"A{n}")
        chain = induction_chain(rs, cg_triple(rs))
        orders = [t.ord_tau for _, t in chain]
        assert orders[0] == n - 1
        assert all(a - b == 1 for a, b in zip(orders, orders[1:]))
        assert orders[-1] == 0
        assert chain[-1][1].gamma1 == ()
    rs4 = build_root_system("A4")
    rng = random.Random(17)
    found = 0
    attempts = 0
    while found < 20:
        attempts += 1
        assert attempts < 5000
        s = rng.randint(0, 3)
        g1 = rng.sample(range(4), s)
        g2 = rng.sample(range(4), s)
        tau = dict(zip(g1, rng.sample(g2, s)))
        try:
            triple = validate_triple(rs4, sorted(g1), sorted(g2), tau)
        except ValueError:
            continue
        found += 1
        chain = induction_chain(rs4, triple)
        orders = [t.ord_tau for _, t in chain]
        assert all(a - b == 1 for a, b in zip(orders, orders[1:]))
        assert orders[-1] == 0
        assert chain[-1][1].gamma1 == ()
    _within(start, 10.0)


# ---------------------------------------------------------------------------
# 9. coset normalization properties in the matrix realization


def _rand_levi(size, gamma1, style, rng):
    labels = block_labels(frozenset(gamma1), size)
    m = [[Fraction(0)] * size for _ in range(size)]
    for r in range(size):
        for c in range(size):
            if labels[r] != labels[c]:
                continue
            if style == "diag":
                m[r][c] = Fraction(rng.choice([1, 2, 3, 5])) if r == c else Fraction(0)
            elif style == "generic":
                m[r][c] = (
                    Fraction(rng.randint(-4, 4))
                    if r != c
                    else Fraction(rng.choice([1, 2, 3]))
                )
            else:
                if r == c:
                    m[r][c] = Fraction(1)
                elif r < c:
                    m[r][c] = Fraction(rng.randint(-2, 2))
    d = det(mat(m))
    if d == 0:
        return None
    for c in range(size):
        m[0][c] /= d
    return MatrixElement(m, "group")


def _stable_roots(rs, gamma1, w):
    """Roots of the gamma1 block whose whole forward w-orbit stays inside."""
    delta = {
        a
        for a in rs.all_roots
        if all(a[t] == 0 for t in range(rs.rank) if t not in gamma1)
    }
    stable = set()
    for a in delta:
        cur = a
        seen = {a}
        ok = True
        while True:
            cur = w(cur)
            if cur not in delta:
                ok = False
                break
            if cur in seen:
                break
            seen.add(cur)
        if ok:
            stable.add(a)
    return delta, stable


def test_primary_9_normalization_properties():
    start = time.monotonic()
    rng = random.Random(29)
    invariance_samples = 0
    for n in (2, 3):
        size = n + 1
        rs, triple, d = _cg_setup(n)
        gamma1 = triple.gamma1
        sigma_set = {cg_sigma(rs, j).matrix for j in range(n + 1)}
        p1 = ParabolicSubgroup.of(gamma1)
        entry_reps = minimal_coset_reps(rs, p1, p1)
        for w in entry_reps:
            for style in ("diag", "generic", "uni"):
                for _ in range(5):
                    l = _rand_levi(size, gamma1, style, rng)
                    if l is None:
                        continue
                    v, gk = normalize_coset(l, w, triple, d)
                    assert v.matrix in sigma_set
                    v2, gk2 = normalize_coset(gk, v, triple, d)
                    assert v2.matrix == v.matrix
                    assert gk2.entries == gk.entries
        # multiplying by unipotents in the absorbed directions must not
        # change the stratum
        for w in entry_reps:
            delta, stable = _stable_roots(rs, gamma1, w)
            absorbed = [
                a for a in delta - stable if next(x for x in a if x != 0) > 0
            ]
            if not absorbed:
                continue
            done = 0
            while done < 25:
                l = _rand_levi(size, gamma1, "generic", rng)
                if l is None:
                    continue
                v, _ = normalize_coset(l, w, triple, d)
                u = [
                    [Fraction(1) if r == c else Fraction(0) for c in range(size)]
                    for r in range(size)
                ]
                for a in absorbed:
                    i, j = root_to_interval(a)
                    u[i][j] = Fraction(rng.randint(-3, 3))
                left = MatrixElement(
                    mat(
                        [
                            [
                                sum(u[r][t] * l.entries[t][c] for t in range(size))
                                for c in range(size)
                            ]
                            for r in range(size)
                        ]
                    ),
                    "group",
                )
                vl, _ = normalize_coset(left, w, triple, d)
                assert vl.matrix == v.matrix
                right = MatrixElement(
                    mat(
                        [
                            [
                                sum(l.entries[r][t] * u[t][c] for t in range(size))
                                for c in range(size)
                            ]
                            for r in range(size)
                        ]
                    ),
                    "group",
                )
                vr, _ = normalize_coset(right, w, triple, d)
                assert vr.matrix == v.matrix
                done += 1
                invariance_samples += 1
    assert invariance_samples >= 50
    _within(start, 60.0)
