"""Classification records for the two dressing-orbit problems.

A one-sided record is indexed by v in W^Gamma1, a two-sided record by a pair
(v1, v2); both carry the same stable data, and a one-sided record is the
pair record of (v, e) up to its coset offset.  Orbit dimensions of the
derived part stay symbolic (d_orb); Sigma comes from an integer lattice
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import prod
from operator import mul

from .bdtriple import BDTriple
from .decomp import Decomposition, dimension_summary
from .linalg import Lattice, Matrix, _adjugate, _shift, _shifted_rank, matmul, rank, transpose
from .linalg import quotient_invariants
from .rootsys import RootSystem, levi_roots
from .weyl import (
    NotMinimalRep,
    ParabolicSubgroup,
    WeylElement,
    _orbit_size,
    _simple_map,
    _stable_indices,
    _weyl_bound,
    minimal_coset_reps,
)

__all__ = [
    "StableSubalgebra",
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
    """Phi_S, its partner roots and the centre dimensions, lv_center of dim k - |S|."""

    root_set: tuple[tuple[int, ...], ...]
    partner_root_set: tuple[tuple[int, ...], ...]
    derived_dim: int
    center_dim: int
    cong_dim: int
    moduli_dim: int


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


def _cong_dim(m: Matrix, c: int, s: frozenset[int]) -> int:
    """The rank of psi - 1 on (span of the simple roots in s)^perp for m = c·psi,
    an isometry psi that permutes those roots: rank(m - c·1) - |S| + #cycles
    (Carter, Conjugacy classes in the Weyl group, Compositio Math. 25 (1972))."""
    perm = {}
    for i in s:
        col = [row[i] for row in m]
        perm[i] = j = col.index(c) if c in col else None
        if j not in s or col.count(0) != len(col) - 1:
            raise AssertionError(f"the twist does not permute the simple roots of {sorted(s)}")
    cycles = 0
    while perm:
        i, cycles = perm.popitem()[1], cycles + 1
        while i in perm:
            i = perm.pop(i)
    return _shifted_rank(m, c) - len(s) + cycles


class _Frame:
    """What the records of one (rs, triple, d) share: tau on simple-root
    indices, the dimension summary, theta scaled to integers, and per index
    set S the roots Phi_S.

    The twist psi = v1·theta^-1·v2·theta (psi = v one-sided, the pair (v, e))
    permutes the simple roots of its stable subsystem Phi_S, the largest S in
    Gamma1 whose simple roots it permutes (Humphreys, Reflection Groups and
    Coxeter Groups, ch. 1); cong_dim, the rank of psi - 1 on lv_center, is
    one k x k rank less |S| - #cycles (_cong_dim), with no lv_center basis.
    single ranks v itself; pair walks S and the partner set once per pair of
    simple-root maps and ranks once per (S, packed psi), see packing.  Both
    share one stable object per (S, partner set, cong_dim).
    compute_decomposition makes h_ort1 = h_ort2 = 0 (see the decomp module),
    so a pair's centre solution space has dimension moduli_dim.
    """

    def __init__(self, rs: RootSystem, triple: BDTriple, d: Decomposition):
        self.rs = rs
        self.triple = triple
        self.d = d
        self.k = rs.cartan_rank
        self.dims = dimension_summary(rs, d)
        # tau on the simple-root indices of the first Levi and back
        self.tau = triple.tau_map
        self.tau_inv = {j: i for i, j in triple.tau}
        # Phi_S per index set S, seeded with the two Levis' roots d holds
        self._roots = {
            frozenset(triple.gamma1): d.levi1_roots,
            frozenset(triple.gamma2): d.levi2_roots,
        }
        self._ids = {}  # map ids by items
        self._sets = {}  # (id of v1's map, id of v2's map) -> (S, partner set)
        self._ranks = {}  # (S, packed) -> cong_dim
        self._stables = {}  # (S, partner set, cong_dim) -> StableSubalgebra
        self._affine = cache(AffineDim)  # one AffineDim per value

    @cached_property
    def packing(self) -> tuple[tuple[int, ...], Matrix, int, int, tuple[int, ...]]:
        """Theta·b for b = (B^j)_j, adj(Theta), det(Theta), the base B and
        (B^(i·k))_i, for Theta = c·theta (c the lcm of theta's denominators),
        built on first use: one-sided records never need Theta invertible.
        det·psi = v1·P(v2) for the integer P(v2) = adj·v2·Theta.  The columns
        of a Weyl matrix are roots or torus unit vectors, so its entries are
        at most the largest root coefficient m, and |(v1·P)_ij| <= h =
        k·m²·(largest row sum of |adj|)·(largest column sum of |Theta|).  With
        B = 2h + 1, det·psi packs exactly into sum_ij (v1·P)_ij·B^(i·k + j) =
        u(v1)·y(v2), for u(v1)_t = sum_i (v1)_it·B^(i·k) and y(v2) = P(v2)·b =
        adj·v2·(Theta·b)."""
        theta = self.d.theta_scaled[0]
        adj, scale = _adjugate(theta)
        m = max((x for a in self.rs.positive_roots for x in a), default=1)
        h = self.k * m * m * max(sum(map(abs, r)) for r in adj)
        base = 2 * h * max(sum(map(abs, c)) for c in zip(*theta)) + 1
        tb = tuple(sum(x * base**j for j, x in enumerate(r)) for r in theta)
        return tb, adj, scale, base, tuple(base ** (i * self.k) for i in range(self.k))

    def _levi(self, s: frozenset[int]) -> tuple[tuple[int, ...], ...]:
        if (hit := self._roots.get(s)) is None:
            hit = self._roots[s] = levi_roots(self.rs, s)
        return hit

    def _simple(self, v: WeylElement, gamma, label: str) -> tuple[int, dict[int, int | None]]:
        """An id of v's simple-root map on gamma, equal for equal maps, and
        the map, whose read checks v is minimal modulo W_gamma."""
        simple = _simple_map(v, gamma, label)
        return self._ids.setdefault(tuple(simple.items()), len(self._ids)), simple

    def left(self, v1: WeylElement):
        """The id of v1's simple-root map, the map and u(v1) (see packing)."""
        mid, simple = self._simple(v1, self.triple.gamma1, "v1")
        rows = self.packing[4]
        return mid, simple, tuple(sum(map(mul, col, rows)) for col in zip(*v1.matrix))

    def right(self, v2: WeylElement):
        """The id of v2's simple-root map, the map and y(v2) (see packing)."""
        mid, simple = self._simple(v2, self.triple.gamma2, "v2")
        tb, adj = self.packing[:2]
        vtb = [sum(map(mul, row, tb)) for row in v2.matrix]
        return mid, simple, tuple(sum(map(mul, row, vtb)) for row in adj)

    def _stable(self, s: frozenset[int], partner: frozenset[int], cong_dim: int):
        """The one StableSubalgebra of (S, partner set, cong_dim)."""
        if (hit := self._stables.get((s, partner, cong_dim))) is None:
            root_set, center_dim = self._levi(s), self.k - len(s)
            hit = self._stables[s, partner, cong_dim] = StableSubalgebra(
                root_set=root_set,
                partner_root_set=self._levi(partner),
                derived_dim=len(root_set) + len(s),
                center_dim=center_dim,
                cong_dim=cong_dim,
                moduli_dim=center_dim - cong_dim,
            )
        return hit

    def single(self, v: WeylElement) -> StableSubalgebra:
        """The stable data of the pair (v, e): partner set tau(S), psi = v."""
        s = _stable_indices(_simple_map(v, self.triple.gamma1, "v"))
        cong_dim = _cong_dim(v.matrix, 1, s)
        return self._stable(s, frozenset(self.tau[i] for i in s), cong_dim)

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

    def pair(self, left, right) -> StableSubalgebra:
        """The stable data of v1 and v2 from left(v1) and right(v2), ranked
        once per (S, packed psi)."""
        s, partner, packed = self.key(left, right)
        if (cong_dim := self._ranks.get((s, packed))) is None:
            # det·psi - det·1 on lv_center has the rank of psi - 1 there
            psi = _unpack(packed, self.packing[3], self.k)
            cong_dim = self._ranks[s, packed] = _cong_dim(psi, self.packing[2], s)
        return self._stable(s, partner, cong_dim)

    def record(self, st: StableSubalgebra, offset: int, **reps) -> LeafRecord:
        """The record of st for reps (v, or v1 and v2): leaf constant
        dim(l1' + a1) - derived_dim - moduli_dim plus their lengths, coset
        constant offset more.  The simplified dim l1 - (k + |Phi_S|) + lengths
        + cong_dim must agree: the lengths cancel, so the check compares
        integers without the lengths."""
        roots, dims = len(st.root_set), self.dims
        const = dims["dim_lprime1_a1"] - st.derived_dim - st.moduli_dim
        if const != dims["dim_l1"] - self.k - roots + st.cong_dim:
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
) -> StableSubalgebra:
    """Stable data for the two-sided twist v1 tau^{-1} v2 tau, with the
    partner root set."""
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
    offset = frame.dims["dim_g_plus"]
    reps = _coset_space(rs, triple.gamma1)
    return tuple(frame.record(frame.single(v), offset, v=v) for v in reps)


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
            records.append(frame.record(frame.pair(left, right), offset, v1=v1, v2=v2))
    records.sort(
        key=lambda r: (r.v1.length, r.v2.length, r.v1.matrix, r.v2.matrix)
    )
    return tuple(records)


def sigma_group(
    d: Decomposition, kernel: Lattice, lambda2: Lattice | None = None
) -> FiniteAbelianGroup:
    """Invariant factors of ker' / (ker' cap (1 - theta) ker).

    With s·(1 - theta) = s·1 - Theta integral (Theta = s·theta, see
    Decomposition), scaling both lattices by s is an isomorphism, and
    A / (A cap B) = (A + B) / B, so Sigma is sup over image for sup =
    s·ker' + image and image = (s·(1 - theta))·ker, all in integers.
    """
    theta, s = d.theta_scaled
    k, minus = len(theta), _shift(theta, s)  # -s·(1 - theta), the same image lattice
    if _shifted_rank(theta, s) < k:
        raise ThetaMinusOneSingular("1 - theta is singular on h")

    kerp = kernel
    if lambda2 is not None:
        if rank(kernel.columns() + lambda2.columns()) > kernel.rank:
            raise NonCommensurableLattices(
                "supplied lattice leaves the rational span of the kernel"
            )
        kerp = kernel.sum(lambda2)

    image = transpose(matmul(minus, kernel.basis))
    sup = Lattice(k, [[s * x for x in c] for c in kerp.columns()] + list(image))
    factors, free = quotient_invariants(sup, image)
    return FiniteAbelianGroup(invariant_factors=factors, free_rank=free)
