"""The four benchmark workloads: seeded inputs, timed operations, checks.

``build(name, seed, toy)`` returns the operations of one pass.  Each
operation has a ``run`` thunk, which is the only timed code, and a
``check`` that inspects its output after every operation of the pass has
finished (and after tracing is removed).  A check returns ``None`` when the
output is correct and a one-line reason otherwise.

The thunks look up every leafatlas function through its module at call
time, so the tracer's rebinding reaches them.  The checks use only the
benchmark's own integer and rational arithmetic, except where a check is
defined by a leafatlas fixture (``cg_sigma``) or by applying the same
operation again (idempotence of ``normalize_coset``).

``toy`` swaps in A2/B2-sized inputs for the self-tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from leafatlas import bdtriple, cli, decomp, rootsys, typea, weyl

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Known orders for the weyl_enum groups; the check compares against these.
WEYL_ORDERS = {"F4": 1152, "D5": 1920, "B2": 8, "A2": 6}
# decompose_min / reduced_word calls per weyl_enum operation
BATCH = 1


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def job_config(job: dict, mode: str) -> cli.JobConfig:
    return cli.JobConfig(
        root_system=job["root_system"],
        gamma1=tuple(job["gamma1"]),
        gamma2=tuple(job["gamma2"]),
        tau=tuple(tuple(p) for p in job["tau"]),
        mode=mode,
        format="machine",
    )


# ---------------------------------------------------------------------------
# independent Weyl-group arithmetic for the checks


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reflection_matrices(gram) -> list:
    """s_i on simple-root coordinates, column j = s_i(alpha_j)."""
    k = len(gram)
    mats = []
    for i in range(k):
        cols = []
        for j in range(k):
            c = 2 * gram[j][i] / gram[i][i]
            if c.denominator != 1:
                raise ValueError("gram matrix is not crystallographic")
            col = [1 if t == j else 0 for t in range(k)]
            col[i] -= int(c)
            cols.append(col)
        mats.append(tuple(tuple(cols[j][t] for j in range(k)) for t in range(k)))
    return mats


def group_order(gram, indices) -> int:
    """Order of the subgroup generated by the given simple reflections."""
    k = len(gram)
    gens = [reflection_matrices(gram)[i] for i in indices]
    ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = _matmul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def double_coset_count(elements, gens, left, right) -> int:
    """Orbits of W_left x W_right acting on the element set; None if the
    action leaves the set (the enumeration is then wrong)."""
    members = set(elements)
    seen = set()
    orbits = 0
    for start in elements:
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        stack = [start]
        while stack:
            m = stack.pop()
            moved = [_matmul(gens[i], m) for i in left]
            moved += [_matmul(m, gens[j]) for j in right]
            for p in moved:
                if p not in members:
                    return None
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
    return orbits


def inversions(positive_roots, m) -> int:
    return sum(
        1
        for a in positive_roots
        if all(x <= 0 for x in (sum(r[j] * a[j] for j in range(len(a))) for r in m))
    )


# ---------------------------------------------------------------------------
# pairs and census: run_job plus report_to_machine


def _job_op(label: str, job: dict, mode: str, expect_records: Callable[[], int]) -> Op:
    cfg = job_config(job, mode)

    def run():
        report = cli.run_job(cfg)
        return report, cli.report_to_machine(report)

    def check(out):
        report, text = out
        if report.errors:
            return f"report errors: {report.errors[0]['error']}: {report.errors[0]['detail']}"
        want = expect_records()
        if len(report.records) != want:
            return f"{len(report.records)} records, expected {want}"
        if digest(text) != job["sha256"]:
            return "machine report differs from the golden digest"
        return None

    return Op(label, run, check)


class _Orders:
    """Group orders per (root system, index set), computed once per pass."""

    def __init__(self):
        self._gram = {}
        self._orders = {}

    def coset_count(self, label: str, gamma) -> int:
        if label not in self._gram:
            self._gram[label] = rootsys.build_root_system(label).gram
        gram = self._gram[label]
        for key in ((label, tuple(range(len(gram)))), (label, tuple(gamma))):
            if key not in self._orders:
                self._orders[key] = group_order(gram, key[1])
        return self._orders[(label, tuple(range(len(gram))))] // self._orders[(label, tuple(gamma))]


def pairs_ops(seed: int, toy: bool) -> list[Op]:
    """The fixed two-sided jobs, in seeded order.  The jobs themselves are
    not drawn from the seed: even the diagram-flip image of a triple can
    cost 18% more, which would let the seed, not the code, decide wall_s."""
    jobs = load_golden()["toy_pairs" if toy else "pairs"]
    random.Random(seed).shuffle(jobs)
    orders = _Orders()
    ops = []
    for job in jobs:
        label = job["root_system"]

        def expect(label=label, job=job):
            return orders.coset_count(label, job["gamma1"]) * orders.coset_count(label, job["gamma2"])

        ops.append(_job_op(f"pairs {label} {job['gamma1']}->{job['gamma2']}", job, "full", expect))
    return ops


def census_ops(seed: int, toy: bool) -> list[Op]:
    """The census jobs chosen in golden.py, in seeded order."""
    jobs = load_golden()["toy_census" if toy else "census"]
    random.Random(seed).shuffle(jobs)
    orders = _Orders()
    ops = []
    for job in jobs:
        label = job["root_system"]
        ops.append(
            _job_op(
                f"census {label} {job['gamma1']}->{job['gamma2']}",
                job,
                "gminus",
                lambda label=label, g=job["gamma1"]: orders.coset_count(label, g),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# sl_toolkit: dense Fraction work in typea and linalg


def _block_labels(indices, size: int) -> list[int]:
    labels = [0]
    for i in range(size - 1):
        labels.append(labels[-1] if i in indices else labels[-1] + 1)
    return labels


def _in_pattern(m, indices, lower: bool) -> bool:
    labels = _block_labels(set(indices), len(m))
    for r in range(len(m)):
        for c in range(len(m)):
            outside = labels[r] < labels[c] if lower else labels[r] > labels[c]
            if outside and m[r][c] != 0:
                return False
    return True


def _det(rows) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n, sign, out = len(m), 1, Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out * sign


def _random_unimodular(rng: random.Random, size: int) -> list[list[Fraction]]:
    """Random integer matrix in [-5, 5], first row scaled to det 1.  Uses
    the benchmark's own determinant, so set-up time does not move with
    leafatlas's linear algebra."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)]
        d = _det(rows)
        if d != 0:
            rows[0] = [x / d for x in rows[0]]
            return rows


def _random_levi(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Random element of the CG Levi of SL(n+1): an n x n block and 1/det."""
    block = _random_unimodular(rng, n)
    scale = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3]))
    block[-1] = [x * scale for x in block[-1]]
    rows = [row + [Fraction(0)] for row in block]
    rows.append([Fraction(0)] * n + [1 / scale])
    return rows


class _CGContext(NamedTuple):
    n: int
    rs: object
    triple: object
    r0: object
    d: object
    sigmas: frozenset


def _cg_context(n: int) -> _CGContext:
    rs = rootsys.build_root_system(f"A{n}")
    triple = bdtriple.cg_triple(rs)
    r0 = bdtriple.solve_r0(rs, triple, "canonical")
    d = decomp.compute_decomposition(rs, triple, r0)
    sigmas = frozenset(typea.cg_sigma(rs, j).matrix for j in range(n + 1))
    return _CGContext(n, rs, triple, r0, d, sigmas)


def _bruhat_op(ctx: _CGContext, rng: random.Random, k: int, sizes: tuple[int, int], lower: bool) -> Op:
    """The k-th Bruhat call of a rank: a random matrix, fixed index sets of
    the given sizes."""
    size = ctx.n + 1
    g = typea.MatrixElement(_random_unimodular(rng, size), "group")
    left = sorted((k + j) % ctx.n for j in range(sizes[0]))
    right = sorted((k + 2 + j) % ctx.n for j in range(sizes[1]))
    make = typea.ParabolicBlocks.lower_of if lower else typea.ParabolicBlocks.upper

    def run():
        return typea.bruhat_decompose(g, make(left), make(right))

    def check(out):
        p1, wd, p2 = (x.entries for x in out)
        if _matmul(_matmul(p1, wd), p2) != g.entries:
            return "p1 * wdot * p2 != g"
        if not (_in_pattern(p1, left, lower) and _in_pattern(p2, right, lower)):
            return "parabolic factor outside its block pattern"
        for row in wd:
            if sorted(abs(x) for x in row) != [0] * (size - 1) + [1]:
                return "wdot is not a signed permutation matrix"
        return None

    side = "lower" if lower else "upper"
    return Op(f"bruhat A{ctx.n} {side} {left}/{right}", run, check)


def _normalize_op(ctx: _CGContext, rng: random.Random, k: int) -> Op:
    """w is the element of W^{Gamma1} (permutations increasing on the first
    n positions) with p(n) = k."""
    n = ctx.n
    levi = typea.MatrixElement(_random_levi(rng, n), "group")
    w = typea.perm_to_weyl(ctx.rs, [i for i in range(n + 1) if i != k] + [k])

    def run():
        return typea.normalize_coset(levi, w, ctx.triple, ctx.d)

    def check(out):
        v, gk = out
        if v.matrix not in ctx.sigmas:
            return "normalized representative is not a cg_sigma(j)"
        v2, _ = typea.normalize_coset(gk, v, ctx.triple, ctx.d)
        if v2.matrix != v.matrix:
            return "normalize_coset is not idempotent"
        return None

    return Op(f"normalize A{n} p(n)={k}", run, check)


def _orbit_op(ctx: _CGContext, rng: random.Random) -> Op:
    n = ctx.n
    f = typea.MatrixElement(_random_unimodular(rng, n + 1), "group")
    roots = list(ctx.rs.all_roots)

    def run():
        return typea.tc_orbit_dim(f, typea.identity_twist(), roots)

    def check(dim):
        # conjugacy classes are even-dimensional, at most dim sl - rank
        if dim % 2 or not 0 <= dim <= n * (n + 1):
            return f"orbit dimension {dim} is odd or out of range"
        return None

    return Op(f"tc_orbit_dim A{n}", run, check)


def _cybe_op(ctx: _CGContext) -> Op:
    def run():
        return typea.check_cybe(typea.realize_r(ctx.n, ctx.triple, ctx.r0))

    def check(residual):
        return None if residual.is_zero() else "CYBE residual is not zero"

    return Op(f"realize_r+check_cybe A{ctx.n}", run, check)


def sl_toolkit_ops(seed: int, toy: bool) -> list[Op]:
    """Equal shares of the four call kinds per rank.  The draws are
    stratified so that passes of different seeds do comparable work:

    - Bruhat parabolic index sets are fixed, with sizes in a pattern, half
      upper and half lower.  Seeded index sets cost up to 2x more or less
      from seed to seed and moved wall_s and op_p90_ms with the seed.
    - normalize_coset takes the two double-coset representatives of
      W_{Gamma1} \\ W / W_{Gamma1}: s_n (p(n) = n-1) in two calls of three,
      e (p(n) = n) in the third.  This ratio puts op_p50_ms inside the
      cluster of the A4 realize_r calls rather than at its edge.  The
      other n-1 elements of W^{Gamma1} hit the known normalize_coset
      defect, so they go to defect_probe_ops, untimed.

    Matrices, Levi elements and the order of calls are random."""
    ranks, per_kind = ((2,), 2) if toy else ((3, 4, 5), 6)
    rng = random.Random(seed)
    ops = []
    for n in ranks:
        ctx = _cg_context(n)
        sizes = [(0, 1), (1, 0), (1, n // 2), (n // 2, 1), (n - 1, n - 2), (n - 2, n - 1)]
        for i in range(per_kind):
            ops.append(_bruhat_op(ctx, rng, i, sizes[i], lower=i % 2 == 1))
            ops.append(_normalize_op(ctx, rng, n if i % 3 == 2 else n - 1))
            ops.append(_orbit_op(ctx, rng))
            ops.append(_cybe_op(ctx))
    rng.shuffle(ops)
    return ops


def defect_probe_ops(toy: bool) -> list[Op]:
    """normalize_coset on each w of W^{Gamma1} that sl_toolkit leaves out
    (p(n) = k < n-1), with a fixed generic Levi element.  At this commit
    every one raises the recorded defect (NOTES.md); run.py reports how
    many still do, outside the timed operations.  The toy probe keeps A3,
    the smallest rank where the defect shows."""
    rng = random.Random(0)
    ops = []
    for n in (3,) if toy else (3, 4, 5):
        ctx = _cg_context(n)
        ops += [_normalize_op(ctx, rng, k) for k in range(n - 1)]
    return ops


# ---------------------------------------------------------------------------
# weyl_enum: enumeration, coset representatives, decompose_min, reduced_word


def _subset(rng: random.Random, rank: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(rank), size)))


def weyl_enum_ops(seed: int, toy: bool) -> list[Op]:
    """Per group: enumerate W, minimal_coset_reps for W^J with a seeded
    two-element and a seeded one-element J (a non-empty left side costs
    1.5 s on F4, too long an operation for the calibration probes), then
    operations that alternate BATCH decompose_min calls (fixed parabolics,
    sizes in a cycle) and BATCH reduced_word calls, on elements spread
    evenly over the enumeration.  The six enumeration and coset calls
    (0.2-0.6 s each) are 6 of 134 operations, so both op_p50_ms and
    op_p90_ms lie among the short calls: calls that long spread 8% from
    pass to pass even when scaled, which the percentiles would inherit."""
    labels, batches = (("B2", "A2"), 4) if toy else (("F4", "D5"), 64)
    rng = random.Random(seed)
    ops = []
    for label in labels:
        rs = rootsys.build_root_system(label)
        gens = reflection_matrices(rs.gram)
        state = {}

        def enum(rs=rs, state=state):
            state["W"] = weyl.enumerate_weyl(rs)
            return state["W"]

        def check_enum(elements, label=label):
            if len(elements) != WEYL_ORDERS[label] or len({w.matrix for w in elements}) != len(elements):
                return f"|W({label})| = {len(elements)} distinct elements, expected {WEYL_ORDERS[label]}"
            return None

        ops.append(Op(f"enumerate_weyl {label}", enum, check_enum))

        for left, right in (((), _subset(rng, rs.rank, 2)), ((), _subset(rng, rs.rank, 1))):

            def reps(rs=rs, left=left, right=right):
                return weyl.minimal_coset_reps(
                    rs, weyl.ParabolicSubgroup.of(left), weyl.ParabolicSubgroup.of(right)
                )

            def check_reps(out, state=state, gens=gens, left=left, right=right):
                want = double_coset_count([w.matrix for w in state["W"]], gens, left, right)
                if want is None:
                    return "enumerated W is not closed under the simple reflections"
                return None if len(out) == want else f"{len(out)} coset reps, {want} double cosets"

            ops.append(Op(f"minimal_coset_reps {label} {left}/{right}", reps, check_reps))

        order = WEYL_ORDERS[label]
        # BATCH elements per call operation, spread evenly over the
        # enumeration; seeded elements made op_p50_ms depend on the seed
        spread = [(2 * j + 1) * order // (2 * batches * BATCH) for j in range(batches * BATCH)]
        for k in range(batches):
            picks = tuple(spread[k * BATCH : (k + 1) * BATCH])
            if k % 2 == 0:
                # fixed parabolics: seeded ones made op_p50_ms depend on the seed
                sizes = ((1, 1), (1, 2), (2, 1), (2, 2))[k // 2 % 4]
                left = tuple(sorted((k + j) % rs.rank for j in range(sizes[0])))
                right = tuple(sorted((k + 2 + j) % rs.rank for j in range(sizes[1])))

                def dmin(rs=rs, state=state, picks=picks, left=left, right=right):
                    pl, pr = weyl.ParabolicSubgroup.of(left), weyl.ParabolicSubgroup.of(right)
                    return [(u, weyl.decompose_min(rs, u, pl, pr)) for u in (state["W"][i] for i in picks)]

                def check_dmin(out, rs=rs, gram=rs.gram, left=left, right=right):
                    for u, (a, w, b) in out:
                        if _matmul(_matmul(a.matrix, w.matrix), b.matrix) != u.matrix:
                            return "a * w * b != u"
                        lengths = [inversions(rs.positive_roots, x.matrix) for x in (u, a, w, b)]
                        if lengths[0] != sum(lengths[1:]):
                            return "lengths of a, w, b do not add up to l(u)"
                        if not _double_minimal(w.matrix, gram, left, right):
                            return "w is not the minimal double-coset representative"
                    return None

                ops.append(Op(f"decompose_min {label} #{picks} {left}/{right}", dmin, check_dmin))
            else:

                def word(rs=rs, state=state, picks=picks):
                    return [(u, weyl.reduced_word(rs, u)) for u in (state["W"][i] for i in picks)]

                def check_word(out, rs=rs, gens=gens):
                    k = len(gens)
                    for u, letters in out:
                        m = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
                        for i in letters:
                            m = _matmul(m, gens[i])
                        if m != u.matrix:
                            return "reduced word does not multiply back to the element"
                        if len(letters) != inversions(rs.positive_roots, u.matrix):
                            return "word length differs from the element's length"
                    return None

                ops.append(Op(f"reduced_word {label} #{picks}", word, check_word))
    return ops


def _double_minimal(m, gram, left, right) -> bool:
    """No right descent in `right` (w(alpha_j) > 0) and no left descent in
    `left` (w^{-1}(alpha_i) > 0, with w^{-1} = G^{-1} w^T G)."""
    k = len(m)
    if any(all(m[t][j] <= 0 for t in range(k)) for j in right):
        return False
    g = [list(map(Fraction, row)) for row in gram]
    mt_g = [[sum(m[s][r] * g[s][c] for s in range(k)) for c in range(k)] for r in range(k)]
    for i in left:
        # solve G x = (w^T G) e_i
        rhs = [mt_g[r][i] for r in range(k)]
        x = _solve(g, rhs)
        if any(v < 0 for v in x):
            return False
    return True


def _solve(a, b):
    n = len(a)
    m = [list(a[r]) + [Fraction(b[r])] for r in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


BUILDERS = {
    "pairs": pairs_ops,
    "census": census_ops,
    "sl_toolkit": sl_toolkit_ops,
    "weyl_enum": weyl_enum_ops,
}


def build(name: str, seed: int, toy: bool = False) -> list[Op]:
    return BUILDERS[name](seed, toy)

