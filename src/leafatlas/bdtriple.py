"""Belavin-Drinfeld triples: validation, the induced partial order on
positive roots, the Cartan r0 solver, and the Levi induction chain.

The r0 conventions: a Cartan term is its k×k rational matrix r0 in the
basis dual to the simple roots under the invariant form; the symmetric part
of any admissible r0 is half the Cartan Casimir block.  The constraint
system coming from the triple is solved exactly; the canonical solution
sets every free unknown of the skew part (a non-pivot column of the reduced
row echelon form) to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import lcm

from .linalg import (
    Matrix, _adjugate, _integer_scaled, _over, _primitive_rref, _shift, mat, matmul, matvec,
    shape, transpose,
)
from .rootsys import RootSystem, levi_roots

__all__ = [
    "BDTriple",
    "TripleError",
    "NotBijective",
    "NotIsometry",
    "NotNilpotent",
    "Infeasible",
    "TargetThetaNotIsometry",
    "validate_triple",
    "partial_order_pairs",
    "solve_r0",
    "induction_chain",
    "check_cartan_term",
    "tau_linear_matrix",
    "enumerate_valid_triples",
    "cg_triple",
]


class TripleError(ValueError):
    pass


class NotBijective(TripleError):
    pass


class NotIsometry(TripleError):
    pass


class NotNilpotent(TripleError):
    pass


class Infeasible(ValueError):
    pass


class TargetThetaNotIsometry(ValueError):
    pass


@dataclass(frozen=True)
class BDTriple:
    """Validated triple: two simple-root index sets and a nilpotent isometry."""

    gamma1: tuple[int, ...]
    gamma2: tuple[int, ...]
    tau: tuple[tuple[int, int], ...]
    ord_tau: int

    @property
    def tau_map(self) -> dict[int, int]:
        return dict(self.tau)


def _as_tau_pairs(tau) -> tuple[tuple[int, int], ...]:
    items = tau.items() if isinstance(tau, dict) else tau
    return tuple(sorted((int(i), int(j)) for i, j in items))


def validate_triple(rs: RootSystem, gamma1, gamma2, tau) -> BDTriple:
    """Check bijectivity, isometry and nilpotency; compute ord_tau."""
    g1 = tuple(sorted(int(i) for i in gamma1))
    g2 = tuple(sorted(int(i) for i in gamma2))
    pairs = _as_tau_pairs(tau)
    for idx in g1 + g2:
        if not 0 <= idx < rs.rank:
            raise TripleError(f"simple-root index out of range: {idx}")

    domain = [i for i, _ in pairs]
    image = [j for _, j in pairs]
    if sorted(domain) != list(g1) or len(set(domain)) != len(domain):
        raise NotBijective("tau domain does not match gamma1")
    if sorted(image) != list(g2) or len(set(image)) != len(image):
        raise NotBijective("tau image does not match gamma2")

    tmap = dict(pairs)
    gram = rs.gram  # (alpha_a, alpha_b) = gram[a][b]
    for a in g1:
        for b in g1:
            lhs = gram[tmap[a]][tmap[b]]
            rhs = gram[a][b]
            if lhs != rhs:
                raise NotIsometry(
                    f"pairing of (alpha_{a + 1}, alpha_{b + 1}) not preserved: "
                    f"{rhs} -> {lhs}"
                )

    # every tau-image lies in gamma2, so a chain ends when it leaves gamma1
    ord_tau = 0
    for start in g1:
        chain, cur = [], start
        while cur in tmap:
            if cur in chain:
                cycle = chain[chain.index(cur):] + [cur]
                names = " -> ".join(f"alpha_{c + 1}" for c in cycle)
                raise NotNilpotent(f"tau cycles: {names}")
            chain.append(cur)
            cur = tmap[cur]
        ord_tau = max(ord_tau, len(chain))
    return BDTriple(gamma1=g1, gamma2=g2, tau=pairs, ord_tau=ord_tau)


def tau_linear_matrix(rs: RootSystem, triple: BDTriple) -> Matrix:
    """Linear extension of tau to root coordinates (e_i -> e_tau(i)), as a
    0/1 integer matrix.

    Only meaningful on vectors supported on gamma1.
    """
    k = rs.cartan_rank
    tmap = triple.tau_map
    return tuple(tuple(int(tmap.get(j) == t) for j in range(k)) for t in range(k))


def partial_order_pairs(rs: RootSystem, triple: BDTriple):
    """All related pairs (alpha, beta), alpha < beta, over the positive roots.

    beta runs over the successive tau-images of alpha; the chain continues
    while the current root stays inside the gamma1-generated subsystem.
    """
    tlin = tau_linear_matrix(rs, triple)
    levi1 = levi_roots(rs, triple.gamma1)
    members = set(levi1)
    pairs = []
    for alpha in filter(rs.is_positive_root, levi1):
        cur = alpha
        while cur in members:
            nxt = matvec(tlin, cur)
            if not rs.is_positive_root(nxt):
                raise AssertionError("tau image of a positive root is not a root")
            pairs.append((alpha, nxt))
            cur = nxt
    return sorted(pairs)


def check_cartan_term(rs: RootSystem, triple: BDTriple, r0: Matrix) -> tuple[Matrix, int]:
    """Raise Infeasible unless both r0 constraints hold exactly; else return
    (F, e) for f = r0·G = F/e.  With r0 = R/q, G = G_int/s and omega = G^-1 =
    Omega_int/t, r0 + r0^T = omega reads t·(R + R^T) = q·Omega_int, and F =
    R·G_int, e = q·s.  The slot constraint for alpha_i is r0^T·G·e_tau(i) +
    r0·G·e_i = 0; with r0^T·G = 1 - f it reads F[:, i] - F[:, tau(i)] +
    e·e_tau(i) = 0 on the columns of F."""
    k = rs.cartan_rank
    if shape(r0) != (k, k):
        raise Infeasible("r0 is %dx%d, %s needs %dx%d" % (*shape(r0), rs.type_label, k, k))
    (r, q), s = _integer_scaled(r0), rs.gram_scale
    sym, t = zip(r, zip(*r), rs.gram_inverse_int), rs.gram_int_scale // s
    if any(t * (x + y) != q * w for a, b, c in sym for x, y, w in zip(a, b, c)):
        raise Infeasible("r0 + r0^T does not equal the Cartan Casimir block")
    f, e = matmul(r, rs.gram_int), q * s
    for i, j in triple.tau:
        if any(row[i] - row[j] + e * (p == j) for p, row in enumerate(f)):
            raise Infeasible(f"r0 violates the slot constraint for alpha_{i + 1}")
    return f, e


def solve_r0(
    rs: RootSystem, triple: BDTriple, mode: str = "canonical", *, theta_target: Matrix | None = None
) -> Matrix:
    """Solve the two r0 constraints exactly, in integers: the k×k Fraction
    matrix of r0.

    canonical: symmetric part = half the Cartan Casimir, skew part from
    the reduced row echelon form of the slot rows with every free unknown
    set to zero.  match_theta: the term whose Cayley transform on h is the
    supplied isometry, checked against the triple.  A given matrix needs no
    solving: it goes to compute_decomposition, the gate, as it is.
    """
    k, g, s = rs.cartan_rank, rs.gram_int, rs.gram_scale
    t = rs.gram_int_scale // s  # omega = Omega_int/t, see check_cartan_term

    if mode == "match_theta":
        if theta_target is None:
            raise ValueError("match_theta mode needs a target matrix")
        target = mat(theta_target)
        if shape(target) != (k, k):
            raise TargetThetaNotIsometry(
                "target is %dx%d, %s needs %dx%d" % (*shape(target), rs.type_label, k, k)
            )
        # theta = T/c preserves G = G_int/s iff T^T·G_int·T = c²·G_int
        big, c = _integer_scaled(target)
        form = matmul(matmul(transpose(big), g), big)
        if any(x != c * c * y for u, v in zip(form, g) for x, y in zip(u, v)):
            raise TargetThetaNotIsometry("target does not preserve the form")
        try:
            adj, det = _adjugate(_shift(big, c))
        except ValueError:
            raise TargetThetaNotIsometry(
                "target has fixed vectors; the Cayley transform is undefined"
            ) from None
        # theta·(theta - 1)^-1·omega = T·adj·Omega_int/(det·t), (adj, det) of T - c·1
        term = _over(matmul(matmul(big, adj), rs.gram_inverse_int), det * t)
        try:
            check_cartan_term(rs, triple, term)
        except Infeasible as e:
            raise Infeasible(f"target theta incompatible with the triple: {e}") from None
        return term

    if mode != "canonical":
        raise ValueError(f"unknown r0 mode: {mode!r}")

    # With r0 = omega/2 + S and S skew, the slot constraint for (a, b) reads
    # S·d = -s·(e_a + e_b) for d = 2·G_int·(e_a - e_b): one row per coordinate
    # r over the unknowns S[i][j], i < j, with d[j] where i = r, -d[i] where
    # j = r, and the right-hand side last
    unknowns = tuple(combinations(range(k), 2))
    n, rows = len(unknowns), []
    for a, b in triple.tau:
        d = [2 * (x - y) for x, y in zip(g[a], g[b])]  # G is symmetric
        for r in range(k):
            row = [d[j] if i == r else -d[i] if j == r else 0 for i, j in unknowns]
            rows.append(row + [-s * ((r == a) + (r == b))])
    red, pivots = _primitive_rref(rows)
    if n in pivots:
        raise Infeasible("r0 constraint system inconsistent")
    # each pivot row sets its unknown to row[n]/row[c], free unknowns are
    # zero; over q = lcm(2t, pivots), r0 = R/q with R = (q/2t)·Omega_int + q·S
    q = lcm(2 * t, *(row[c] for row, c in zip(red, pivots)))
    r0 = [[q // (2 * t) * w for w in row] for row in rs.gram_inverse_int]
    for row, c in zip(red, pivots):
        (i, j), x = unknowns[c], row[n] * (q // row[c])
        r0[i][j] += x
        r0[j][i] -= x
    return _over(r0, q)


def induction_chain(
    rs: RootSystem, triple: BDTriple
) -> tuple[tuple[frozenset[int], BDTriple], ...]:
    """Iterated restriction to the Levi of gamma2 until gamma1 is empty: the
    (ambient simple-root index set, triple) steps, the whole system first."""
    steps = [(frozenset(range(rs.rank)), triple)]
    cur = triple
    while cur.gamma1:
        ambient = frozenset(cur.gamma2)
        core = sorted(set(cur.gamma1) & set(cur.gamma2))
        tmap = cur.tau_map
        new_tau = {i: tmap[i] for i in core}
        nxt = validate_triple(rs, core, sorted(new_tau.values()), new_tau)
        if nxt.ord_tau != cur.ord_tau - 1:
            raise AssertionError(
                "induction step did not decrement ord by exactly 1"
            )
        steps.append((ambient, nxt))
        cur = nxt
    return tuple(steps)


def cg_triple(rs: RootSystem) -> BDTriple:
    """The shift triple on A_n: gamma1 = first n-1 simple roots, tau(i) = i+1."""
    n = rs.rank
    return validate_triple(
        rs,
        range(n - 1),
        range(1, n),
        {i: i + 1 for i in range(n - 1)},
    )


def _isometry_bijections(rs: RootSystem, g1: tuple[int, ...], g2: tuple[int, ...]):
    """All isometric bijections g1 -> g2, in the order of permutations(g2)."""
    gram = rs.gram  # (alpha_a, alpha_b) = gram[a][b]
    return [
        dict(zip(g1, image))
        for image in permutations(g2)
        if all(gram[b][d] == gram[a][c] for a, b in zip(g1, image) for c, d in zip(g1, image))
    ]


def enumerate_valid_triples(rs: RootSystem) -> tuple[BDTriple, ...]:
    """Every valid triple on the root system (exhaustive; small ranks only)."""
    n = rs.rank
    found = []
    indices = range(n)
    for size in range(n + 1):
        for g1 in combinations(indices, size):
            for g2 in combinations(indices, size):
                for tmap in _isometry_bijections(rs, g1, g2):
                    try:
                        found.append(validate_triple(rs, g1, g2, tmap))
                    except TripleError:
                        continue
    return tuple(found)
