"""Classification records for the two dressing-orbit problems.

One-sided records: a minimal coset representative v, the v-stable part of
the first Levi, and the attached dimension expressions.  Two-sided records:
a pair (v1, v2) and the twist map built from both.  Orbit dimensions of the
derived part stay symbolic (parameter d_orb); every other contribution is an
exact integer.  The discrete group Sigma comes from an integer lattice
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import prod
from operator import mul

from .bdtriple import BDTriple
from .decomp import Decomposition, dimension_summary, form_perp_of_simples
from .linalg import (
    Lattice,
    Matrix,
    Subspace,
    _integer_scaled,
    det,
    identity,
    inverse,
    matmul,
    msub,
    quotient_invariants,
    rank,
    transpose,
)
from .rootsys import RootSystem, levi_roots
from .weyl import (
    NotMinimalRep,
    ParabolicSubgroup,
    WeylElement,
    _orbit_size,
    _require_coset_minimal,
    _simple_map,
    _stable_indices,
    _weyl_bound,
    minimal_coset_reps,
)

__all__ = [
    "StableSubalgebra",
    "PairStableSubalgebra",
    "LeafRecord",
    "FiniteAbelianGroup",
    "AffineDim",
    "NotMinimalRep",
    "ThetaMinusOneSingular",
    "NonCommensurableLattices",
    "stable_subalgebra_v",
    "stable_subalgebra_pair",
    "classify_gminus",
    "classify_g",
    "sigma_group",
]


class ThetaMinusOneSingular(ValueError):
    pass


class NonCommensurableLattices(ValueError):
    pass


@dataclass(frozen=True)
class AffineDim:
    """Integer constant plus the orbit parameter d_orb."""

    constant: int

    def at(self, d_orb: int) -> int:
        return self.constant + d_orb

    def __str__(self) -> str:
        return f"d_orb + {self.constant}" if self.constant else "d_orb"


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant factors (ascending, each dividing the next) plus free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must divide in order")
        if any(f < 2 for f in self.invariant_factors):
            raise ValueError("trivial factors must be omitted")

    @property
    def order(self) -> int | None:
        if self.free_rank:
            return None
        return prod(self.invariant_factors)

    def __str__(self) -> str:
        parts = [f"Z/{f}" for f in self.invariant_factors]
        parts.extend("Z" for _ in range(self.free_rank))
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class StableSubalgebra:
    root_set: tuple[tuple[int, ...], ...]
    derived_dim: int
    center_dim: int
    lv_center: Subspace
    cong_dim: int
    moduli_dim: int


@dataclass(frozen=True)
class PairStableSubalgebra(StableSubalgebra):
    partner_root_set: tuple[tuple[int, ...], ...] = ()
    z_pair_dim: int = 0


@dataclass(frozen=True)
class LeafRecord:
    """A leaf's stable data, the range of d_orb and its leaf and coset
    dimensions, for a representative v or a pair (v1, v2)."""

    stable: StableSubalgebra
    orbit_range: tuple[int, int]
    leaf_dim: AffineDim
    coset_dim: AffineDim
    v: WeylElement | None = None
    v1: WeylElement | None = None
    v2: WeylElement | None = None


def _unpack(packed: int, base: int, k: int) -> Matrix:
    """The k x k matrix whose entry (i, j) is the balanced digit of packed
    at base^(i·k + j), for an odd base."""
    half, digits = base // 2, []
    for _ in range(k * k):
        packed, digit = divmod(packed + half, base)
        digits.append(digit - half)
    return tuple(tuple(digits[i * k : i * k + k]) for i in range(k))


def _shifted_rank(m: Matrix, c: int, lv: Matrix) -> int:
    """rank((m - c·1)·lv) for integers: the rank of m/c - 1 on lv's columns."""
    mlv = [[sum(map(mul, r, col)) for col in zip(*lv)] for r in m]
    return rank([[y - c * x for y, x in zip(a, b)] for a, b in zip(mlv, lv)])


class _Frame:
    """What the records of one (rs, triple, d) share: tau on simple-root
    indices, the dimension summary, theta scaled to integers, and per stable
    index set S the roots Phi_S and lv_center = (span Phi_S)^perp.  The
    classifiers build each representative's data once (left, right) and
    hand it to pair.

    v in W^Gamma1, and the twist psi = v1·theta^-1·v2·theta for v2 in
    W^Gamma2, keep the first Levi's positive roots positive, so they permute
    the simple roots of their stable subsystem (Humphreys, Reflection Groups
    and Coxeter Groups, ch. 1): it is Phi_S for the largest S in Gamma1 whose
    simple roots the map permutes.  An isometry that permutes Phi_S keeps
    lv_center, and a record is one rank of psi - 1 (psi = v one-sided) on
    lv_center: cong_dim, with moduli_dim = z_pair_dim = center_dim - cong_dim.
    A one-sided record costs a walk on indices and one integer elimination.
    A pair's S and partner set are walked once per pair of simple-root maps,
    its cong_dim ranked once per (S, det(Theta)·psi packed into one integer by
    k products; see packing), its stable data built once per (S, partner, cong_dim).

    That uses h_ort1 = h_ort2 = 0, which compute_decomposition guarantees by
    validating the Cartan term (see the decomp module): the Cartan domains
    are all of h, so the two center graphs of a pair meet over all of
    lv_center and z_pair has no h_ort part.
    """

    def __init__(self, rs: RootSystem, triple: BDTriple, d: Decomposition):
        self.rs = rs
        self.triple = triple
        self.d = d
        self.k = rs.cartan_rank
        self.dims = dimension_summary(rs, triple, d)
        # tau on the simple-root indices of the first Levi and back
        self.tau = triple.tau_map
        self.tau_inv = {j: i for i, j in triple.tau}
        self._spans, self._ids = {}, {}  # Phi_S and lv_center per S; map ids by items
        self._sets = {}  # (id of v1's map, id of v2's map) -> (S, partner set)
        self._ranks = {}  # (S, packed) -> cong_dim
        self._stables = {}  # (S, partner set, cong_dim) -> PairStableSubalgebra
        self._affine = cache(AffineDim)  # one AffineDim per value

    @cached_property
    def packing(self) -> tuple[tuple[int, ...], Matrix, int, int]:
        """Theta·b for b = (B^j)_j, adj(Theta), det(Theta) and the base B,
        for Theta = c·theta (c the lcm of theta's denominators), built on first
        use: one-sided records never need Theta invertible.  det·psi = v1·P(v2)
        for the integer P(v2) = adj·v2·Theta.  The columns of a Weyl matrix are
        roots or torus unit vectors, so its entries are at most the largest
        root coefficient m, and |(v1·P)_ij| <= h = k·m²·(largest row sum of
        |adj|)·(largest column sum of |Theta|).  With B = 2h + 1, det·psi packs
        exactly into sum_ij (v1·P)_ij·B^(i·k + j) = u(v1)·y(v2), for
        u(v1)_t = sum_i (v1)_it·B^(i·k) and y(v2) = P(v2)·b = adj·v2·(Theta·b)."""
        theta, _ = _integer_scaled(self.d.theta_cartan)
        if not (scale := int(det(theta))):
            raise ValueError("singular matrix")
        adj = tuple(tuple(int(x * scale) for x in row) for row in inverse(theta))
        m = max((x for a in self.rs.positive_roots for x in a), default=1)
        h = self.k * m * m * max(sum(map(abs, r)) for r in adj)
        base = 2 * h * max(sum(map(abs, c)) for c in zip(*theta)) + 1
        return tuple(sum(x * base**j for j, x in enumerate(r)) for r in theta), adj, scale, base

    def _simple(self, v: WeylElement, gamma, label: str) -> tuple[int, dict[int, int | None]]:
        """After checking v is minimal modulo W_gamma: an id of its simple-root
        map on gamma, equal for equal maps, and the map."""
        _require_coset_minimal(self.rs, v, gamma, label)
        simple = _simple_map(v, gamma)
        return self._ids.setdefault(tuple(simple.items()), len(self._ids)), simple

    def left(self, v1: WeylElement):
        """The id of v1's simple-root map, the map and u(v1) (see packing)."""
        mid, simple = self._simple(v1, self.triple.gamma1, "v1")
        rows = [self.packing[3] ** (i * self.k) for i in range(self.k)]
        return mid, simple, tuple(sum(map(mul, col, rows)) for col in zip(*v1.matrix))

    def right(self, v2: WeylElement):
        """The id of v2's simple-root map, the map and y(v2) (see packing)."""
        mid, simple = self._simple(v2, self.triple.gamma2, "v2")
        tb, adj, _, _ = self.packing
        vtb = [sum(map(mul, row, tb)) for row in v2.matrix]
        return mid, simple, tuple(sum(map(mul, row, vtb)) for row in adj)

    def span_data(self, s: frozenset[int]) -> tuple[tuple[tuple[int, ...], ...], Subspace]:
        """Phi_S and lv_center = (span Phi_S)^perp."""
        hit = self._spans.get(s)
        if hit is None:
            hit = self._spans[s] = (levi_roots(self.rs, s), form_perp_of_simples(self.rs, s))
        return hit

    def _stable(self, cls, s: frozenset[int], cong_dim: int, **extra):
        root_set, lv_center = self.span_data(s)
        return cls(
            root_set=root_set,
            derived_dim=len(root_set) + len(s),
            center_dim=lv_center.dim,
            lv_center=lv_center,
            cong_dim=cong_dim,
            moduli_dim=lv_center.dim - cong_dim,
            **extra,
        )

    def single(self, v: WeylElement) -> StableSubalgebra:
        s = _stable_indices(self._simple(v, self.triple.gamma1, "v")[1])
        lv = self.span_data(s)[1].basis
        return self._stable(StableSubalgebra, s, _shifted_rank(v.matrix, 1, lv))

    def key(self, left, right) -> tuple[frozenset[int], frozenset[int], int]:
        """S, the partner indices tau(S) moved by v2 (once per pair of map
        ids), and det(Theta)·psi packed (see packing): a pair's record's key."""
        (id1, simple1, u), (id2, simple2, y), tau = left, right, self.tau
        if (sets := self._sets.get((id1, id2))) is None:
            # the twist on simple-root indices, None where it leaves them
            phi = {i: simple1.get(self.tau_inv.get(simple2[j])) for i, j in tau.items()}
            s = _stable_indices(phi)
            sets = self._sets[id1, id2] = (s, frozenset(simple2[tau[i]] for i in s))
        return *sets, sum(map(mul, u, y))

    def pair(self, left, right) -> PairStableSubalgebra:
        """The stable data of v1 and v2 from left(v1) and right(v2): one rank
        per (S, packed psi), one object per (S, partner set, cong_dim)."""
        s, partner, packed = self.key(left, right)
        if (cong_dim := self._ranks.get((s, packed))) is None:
            # det·psi - det on lv_center has the rank of psi - 1 there
            psi = _unpack(packed, self.packing[3], self.k)
            lv = self.span_data(s)[1].basis
            cong_dim = self._ranks[s, packed] = _shifted_rank(psi, self.packing[2], lv)
        if (hit := self._stables.get((s, partner, cong_dim))) is None:
            # z_pair_dim is the dimension of the kernel of psi - 1 on lv_center
            hit = self._stables[s, partner, cong_dim] = self._stable(
                PairStableSubalgebra,
                s,
                cong_dim,
                partner_root_set=self.span_data(partner)[0],
                z_pair_dim=self.span_data(s)[1].dim - cong_dim,
            )
        return hit

    def record(self, st: StableSubalgebra, const: int, offset: int, **reps) -> LeafRecord:
        """The record of st for reps (v, or v1 and v2): leaf constant const
        plus their lengths, coset constant offset more.  The simplified
        dim l1 - (k + |Phi_S|) + lengths + cong_dim must agree: the lengths
        cancel, so the check compares integers without the lengths."""
        roots = len(st.root_set)
        if const != self.dims["dim_l1"] - self.k - roots + st.cong_dim:
            raise AssertionError("simplified leaf dimension disagrees")
        leaf = self._affine(const + sum(w.length for w in reps.values()))
        return LeafRecord(
            stable=st,
            orbit_range=(0, roots),
            leaf_dim=leaf,
            coset_dim=self._affine(leaf.constant + offset),
            **reps,
        )


def stable_subalgebra_v(
    rs: RootSystem, triple: BDTriple, d: Decomposition, v: WeylElement
) -> StableSubalgebra:
    """Roots of the first Levi whose whole v-orbit stays in the Levi,
    plus the center data of the corresponding stable subgroup."""
    return _Frame(rs, triple, d).single(v)


def stable_subalgebra_pair(
    rs: RootSystem,
    triple: BDTriple,
    d: Decomposition,
    v1: WeylElement,
    v2: WeylElement,
) -> PairStableSubalgebra:
    """Stable data for the two-sided twist v1 tau^{-1} v2 tau, with the
    partner root set and the dimension of the pair-center solution space."""
    frame = _Frame(rs, triple, d)
    left = frame.left(v1)  # v1 is checked before v2
    return frame.pair(left, frame.right(v2))


def _coset_space(rs: RootSystem, indices) -> tuple[WeylElement, ...]:
    reps = minimal_coset_reps(
        rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(indices)
    )
    return tuple(sorted(reps, key=lambda w: (w.length, w.matrix)))


def classify_gminus(
    rs: RootSystem, triple: BDTriple, d: Decomposition
) -> tuple[LeafRecord, ...]:
    """One record per minimal coset representative, dimension formulas included."""
    frame = _Frame(rs, triple, d)
    records = []
    for v in _coset_space(rs, triple.gamma1):
        st = frame.single(v)
        const = len(d.levi1_roots) - len(st.root_set) + st.cong_dim
        records.append(frame.record(st, const, frame.dims["dim_g_plus"], v=v))
    return tuple(records)


def classify_g(
    rs: RootSystem,
    triple: BDTriple,
    d: Decomposition,
) -> tuple[LeafRecord, ...]:
    """One record per pair of minimal coset representatives.  The pair count
    is checked against the bound before either coset space is walked."""
    n1, n2 = (_orbit_size(rs, range(rs.rank), g) for g in (triple.gamma1, triple.gamma2))
    bound = _weyl_bound()
    if max(n1, n2) <= bound < n1 * n2:
        raise ValueError(f"{n1 * n2} pairs of coset representatives exceed bound {bound}")
    reps1 = _coset_space(rs, triple.gamma1)
    reps2 = _coset_space(rs, triple.gamma2)
    frame = _Frame(rs, triple, d)
    dims = frame.dims
    base = dims["dim_lprime1_a1"]
    pos = len(d.levi1_roots) // 2 + len(d.levi2_roots) // 2
    offset = 2 * dims["dim_g"] - 2 * dims["dim_n_plus"] + pos - base
    rights = [(v2, frame.right(v2)) for v2 in reps2]
    records = []
    for v1 in reps1:
        left = frame.left(v1)
        for v2, right in rights:
            st = frame.pair(left, right)
            const = base - st.derived_dim - st.z_pair_dim
            records.append(frame.record(st, const, offset, v1=v1, v2=v2))
    records.sort(
        key=lambda r: (r.v1.length, r.v2.length, r.v1.matrix, r.v2.matrix)
    )
    return tuple(records)


def sigma_group(
    d: Decomposition, kernel: Lattice, lambda2: Lattice | None = None
) -> FiniteAbelianGroup:
    """Invariant factors of ker' / (ker' cap (1 - theta) ker).

    With s·(1 - theta) integral, scaling both lattices by s is an isomorphism,
    and A / (A cap B) = (A + B) / B, so Sigma is sup + image over image for
    sup = s·ker' and image = (s·(1 - theta))·ker, all in integers.
    """
    k = len(d.theta_cartan)
    one_minus, s = _integer_scaled(msub(identity(k), d.theta_cartan))
    if rank(one_minus) < k:
        raise ThetaMinusOneSingular("1 - theta is singular on h")

    kerp = kernel
    if lambda2 is not None:
        if rank(kernel.columns() + lambda2.columns()) > kernel.rank:
            raise NonCommensurableLattices(
                "supplied lattice leaves the rational span of the kernel"
            )
        kerp = kernel.sum(lambda2)

    image = Lattice(k, transpose(matmul(one_minus, kernel.basis)))
    sup = Lattice(k, [[s * x for x in c] for c in kerp.columns()])
    factors, free = quotient_invariants(sup.sum(image), image)
    return FiniteAbelianGroup(invariant_factors=factors, free_rank=free)
