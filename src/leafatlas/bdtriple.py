"""Belavin-Drinfeld triples: validation, the induced partial order on
positive roots, the Cartan r0 solver, and the Levi induction chain.

The r0 conventions: r0 is a rational matrix in the basis dual to the simple
roots under the invariant form; the symmetric part of any admissible r0 is
half the Cartan Casimir block.  The constraint system coming from the triple
is solved exactly; the canonical solution sets every free unknown of the
skew part (a non-pivot column of the reduced row echelon form) to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .linalg import (
    Matrix, identity, inverse, madd, mat, matmul, matvec, msub, shape, solve, transpose
)
from .rootsys import RootSystem, levi_roots

__all__ = [
    "BDTriple",
    "CartanTerm",
    "InductionChain",
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


@dataclass(frozen=True)
class CartanTerm:
    """Rational matrix of r0 on h in the simple-root-dual basis.

    Built by solve_r0, or directly from a given matrix (a Cartan term
    file).  compute_decomposition runs check_cartan_term on every term, so
    a term that is not k×k, or breaks r0 + r0^T = omega or a slot
    constraint, raises Infeasible there and never reaches the leaf records.
    """

    r0: Matrix


@dataclass(frozen=True)
class InductionChain:
    """Sequence of (ambient simple-root index set, triple) down to empty."""

    steps: tuple[tuple[frozenset[int], BDTriple], ...]


def _as_tau_pairs(tau) -> tuple[tuple[int, int], ...]:
    if isinstance(tau, dict):
        items = tau.items()
    else:
        items = tau
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


def check_cartan_term(rs: RootSystem, triple: BDTriple, term: CartanTerm) -> Matrix:
    """Raise Infeasible unless both r0 constraints hold exactly; else return
    f = r0·G.

    The slot constraint for alpha_i is r0^T·G·e_tau(i) + r0·G·e_i = 0.  Once
    r0 + r0^T = omega = G^-1 holds, r0^T·G = 1 - f for f = r0·G, so it reads
    f[:, i] - f[:, tau(i)] + e_tau(i) = 0 on the columns of f.
    """
    m, k = term.r0, rs.cartan_rank
    if shape(m) != (k, k):
        raise Infeasible("r0 is %dx%d, %s needs %dx%d" % (*shape(m), rs.type_label, k, k))
    if madd(m, transpose(m)) != rs.gram_inverse:
        raise Infeasible("r0 + r0^T does not equal the Cartan Casimir block")
    f = matmul(m, rs.gram)
    for i, j in triple.tau:
        if any(row[i] - row[j] + (t == j) for t, row in enumerate(f)):
            raise Infeasible(f"r0 violates the slot constraint for alpha_{i + 1}")
    return f


def solve_r0(
    rs: RootSystem,
    triple: BDTriple,
    mode: str = "canonical",
    *,
    theta_target: Matrix | None = None,
) -> CartanTerm:
    """Solve the two r0 constraints exactly.

    canonical: symmetric part = half the Cartan Casimir, skew part from
    the reduced row echelon form of the slot rows with every free unknown
    set to zero.  match_theta: the term whose Cayley transform on h is the
    supplied isometry, checked against the triple.  A given matrix needs no
    solving: CartanTerm(matrix) goes to compute_decomposition as it is.
    """
    k = rs.cartan_rank
    g = rs.gram
    omega = rs.gram_inverse

    if mode == "match_theta":
        if theta_target is None:
            raise ValueError("match_theta mode needs a target matrix")
        t = mat(theta_target)
        if shape(t) != (k, k):
            raise TargetThetaNotIsometry(
                "target is %dx%d, %s needs %dx%d" % (*shape(t), rs.type_label, k, k)
            )
        if matmul(matmul(transpose(t), g), t) != g:
            raise TargetThetaNotIsometry("target does not preserve the form")
        t_minus_1 = msub(t, identity(k))
        try:
            inv = inverse(t_minus_1)
        except ValueError:
            raise TargetThetaNotIsometry(
                "target has fixed vectors; the Cayley transform is undefined"
            ) from None
        m = matmul(matmul(t, inv), omega)
        term = CartanTerm(r0=m)
        try:
            check_cartan_term(rs, triple, term)
        except Infeasible as e:
            raise Infeasible(f"target theta incompatible with the triple: {e}") from None
        return term

    if mode != "canonical":
        raise ValueError(f"unknown r0 mode: {mode!r}")

    # With r0 = omega/2 + S and S skew, the slot constraint for (a, b) reads
    # S·d = -(e_a + e_b) for d = 2·G·(e_a - e_b): one row per coordinate r
    # over the unknowns S[i][j], i < j, with d[j] where i = r, -d[i] where j = r
    unknowns = tuple(combinations(range(k), 2))
    rows, rhs = [], []
    for a, b in triple.tau:
        d = [2 * (x - y) for x, y in zip(g[a], g[b])]  # G is symmetric
        for r in range(k):
            rows.append(tuple(d[j] if i == r else -d[i] if j == r else 0 for i, j in unknowns))
            rhs.append(-(r == a) - (r == b))

    # with no tau there are no rows, and the skew part is zero
    sol = solve(tuple(rows), rhs) if rows else (0,) * len(unknowns)
    if sol is None:
        raise Infeasible("r0 constraint system inconsistent")
    s = dict(zip(unknowns, sol))
    return CartanTerm(
        r0=tuple(
            tuple(omega[i][j] / 2 + s.get((i, j), 0) - s.get((j, i), 0) for j in range(k))
            for i in range(k)
        )
    )


def induction_chain(rs: RootSystem, triple: BDTriple) -> InductionChain:
    """Iterated restriction to the Levi of gamma2 until gamma1 is empty."""
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
    return InductionChain(steps=tuple(steps))


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
