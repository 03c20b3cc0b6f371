"""Classification records for the two dressing-orbit problems.

One-sided records: a minimal coset representative v, the v-stable part of
the first Levi, and the attached dimension expressions.  Two-sided records:
a pair (v1, v2) and the twist map built from both.  Orbit dimensions of the
derived part stay symbolic (parameter d_orb); every other contribution is an
exact integer.  The discrete group Sigma comes from an integer lattice
quotient.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod

from .bdtriple import BDTriple
from .decomp import (
    Decomposition,
    cartan_domain,
    dimension_summary,
    full_h_predicate,
)
from .linalg import (
    Lattice,
    Matrix,
    Subspace,
    _echelon,
    _integer_scaled,
    _kernel,
    identity,
    matmul,
    matvec,
    msub,
    quotient_invariants,
    rank,
    transpose,
)
from .rootsys import RootSystem, levi_roots
from .weyl import (
    ParabolicSubgroup,
    WeylElement,
    _weyl_bound,
    inverse_element,
    minimal_coset_reps,
    right_descent,
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
    "stable_roots",
    "stable_subalgebra_v",
    "stable_subalgebra_pair",
    "classify_gminus",
    "classify_g",
    "sigma_group",
]


class NotMinimalRep(ValueError):
    pass


class ThetaMinusOneSingular(ValueError):
    pass


class NonCommensurableLattices(ValueError):
    pass


@dataclass(frozen=True)
class AffineDim:
    """Integer constant plus an optional multiple of the orbit parameter."""

    constant: int
    orbit_coeff: int = 1

    def at(self, d_orb: int) -> int:
        return self.constant + self.orbit_coeff * d_orb

    def __str__(self) -> str:
        if self.orbit_coeff == 0:
            return str(self.constant)
        lead = "d_orb" if self.orbit_coeff == 1 else f"{self.orbit_coeff}*d_orb"
        if self.constant == 0:
            return lead
        return f"{lead} + {self.constant}"


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
    stable: StableSubalgebra
    orbit_dim: str
    orbit_range: tuple[int, int]
    leaf_dim: AffineDim
    coset_dim: AffineDim
    v: WeylElement | None = None
    v1: WeylElement | None = None
    v2: WeylElement | None = None
    simplified_leaf_dim: AffineDim | None = None


def _require_coset_minimal(rs: RootSystem, v: WeylElement, indices, label: str):
    if right_descent(rs, v, indices) is not None:
        raise NotMinimalRep(f"{label} is not the minimal element of its coset")


def _assert_simple_generated(rs: RootSystem, root_set):
    members = set(root_set)
    for a in root_set:
        if not all(x >= 0 for x in a):
            continue
        for t, x in enumerate(a):
            if x != 0 and rs.simple_roots[t] not in members:
                raise AssertionError(
                    "stable root set is not generated by its simple roots"
                )


def stable_roots(roots, step) -> tuple[tuple[int, ...], ...]:
    """Sorted roots whose forward orbit under step stays in roots and comes
    back to its start.

    step is an injective partial map on roots (None where undefined), so an
    orbit that stays in roots closes within len(roots) steps.
    """
    members = set(roots)
    out = []
    for a in members:
        cur = a
        for _ in range(len(members)):
            cur = step(cur)
            if cur is None or cur not in members:
                break
            if cur == a:
                out.append(a)
                break
        else:
            raise AssertionError("root orbit failed to close")
    return tuple(sorted(out))


def _stable_indices(step: dict) -> frozenset[int]:
    """The largest S among step's keys that step maps into itself (so
    permutes, step being injective): drop each i whose image is not in S
    until none is dropped."""
    s = set(step)
    while (kept := {i for i in s if step[i] in s}) != s:
        s = kept
    return frozenset(s)


class _Frame:
    """What the records of one (rs, triple, d) share: the first side's Cartan
    domain, tau on simple-root indices, the dimension summary, and memos per
    stable index set S and per (v1, S).  The classifiers build each
    representative's data once (left, right) and hand it to pair.

    v in W^Gamma1, and the twist v1·tau^-1·v2·tau for v2 in W^Gamma2, keep
    the first Levi's positive roots positive, so they permute the simple
    roots of their stable subsystem (Humphreys, Reflection Groups and
    Coxeter Groups, ch. 1): it is Phi_S for the largest S in Gamma1 whose
    simple roots the map permutes.  A record costs a walk on indices, one
    matmul and one integer elimination.
    """

    def __init__(self, rs: RootSystem, triple: BDTriple, d: Decomposition):
        self.rs = rs
        self.triple = triple
        self.d = d
        self.k = rs.cartan_rank
        self.zero = (0,) * self.k
        self.dom1 = cartan_domain(rs, triple, d, 1)
        self.dims = dimension_summary(rs, triple, d)
        self.full_h = full_h_predicate(d)
        # tau on the simple-root indices of the first Levi and back
        self.tau = triple.tau_map
        self.tau_inv = {j: i for i, j in triple.tau}
        self._spans = {}

    @cached_property
    def theta_scaled(self) -> Matrix:
        # c·theta for the lcm c of theta's denominators, built on first use:
        # one-sided records never need it, and the two-sided ranks need it
        # invertible, which it is not on a degenerate (unvalidated) Cartan term
        big, _ = _integer_scaled(self.d.theta_cartan)
        if rank(big) < self.k:
            raise ValueError("singular matrix")
        return big

    def _moved(self, m: Matrix, space: Subspace) -> Subspace:
        return Subspace(self.k, [matvec(m, x) for x in space.vectors()])

    def _side(self, v: WeylElement, gamma, h_ort: Subspace, label: str):
        """After checking v is minimal modulo W_gamma: the map i -> j for each
        simple root alpha_i that v sends to a simple root alpha_j (column i of
        v is then e_j), and h_ort + v·h_ort."""
        _require_coset_minimal(self.rs, v, gamma, label)
        cols = zip(range(self.rs.rank), zip(*v.matrix))
        simple = {i: c.index(1) for i, c in cols if sum(c) == 1 and min(c) >= 0}
        return simple, h_ort.add(self._moved(v.matrix, h_ort))

    def left(self, v1: WeylElement):
        """The two-sided data of v1: its simple-root map, Theta·v1^{-1}, its
        image of h_ort1 + v1·h_ort1 as columns, the u3 rows (x, 0) for x in
        that sum, v1·dom1, and a memo of meet and [meet | lv_center] per S."""
        simple, ort = self._side(v1, self.triple.gamma1, self.d.h_ort1, "v1")
        theta_v1inv = matmul(self.theta_scaled, inverse_element(self.rs, v1).matrix)
        return (
            simple,
            theta_v1inv,
            matmul(theta_v1inv, ort.basis),
            tuple(x + self.zero for x in ort.vectors()),
            self._moved(v1.matrix, self.dom1),
            {},
        )

    def right(self, v2: WeylElement):
        """v2·Theta, the u3 rows (0, y) for y in h_ort2 + v2·h_ort2, and the
        simple-root map of v2."""
        simple, ort = self._side(v2, self.triple.gamma2, self.d.h_ort2, "v2")
        return (
            matmul(v2.matrix, self.theta_scaled),
            tuple(self.zero + y for y in ort.vectors()),
            simple,
        )

    def span_data(self, s: frozenset[int]):
        """Phi_S, dim span, span-perp and lv_center = dom1 ∩ span-perp."""
        hit = self._spans.get(s)
        if hit is None:
            root_set = levi_roots(self.rs, s)
            _assert_simple_generated(self.rs, root_set)
            span = Subspace(self.k, root_set)
            perp = span.perp(self.rs.gram_int)
            hit = self._spans[s] = (root_set, span.dim, perp, self.dom1.intersect(perp))
        return hit

    def single(self, v: WeylElement) -> StableSubalgebra:
        simple, ort = self._side(v, self.triple.gamma1, self.d.h_ort1, "v")
        s = _stable_indices({i: simple.get(i) for i in self.triple.gamma1})
        root_set, span_dim, _, lv_center = self.span_data(s)
        center_dim = self.k - span_dim
        # [image | h_ort1 + v·h_ort1]: its pivots in the image's columns give
        # the rank of the image, all of them the rank of the sum
        image = msub(matmul(v.matrix, lv_center.basis), lv_center.basis)
        pivots = _echelon(tuple(a + b for a, b in zip(image, ort.basis)))[1]
        return StableSubalgebra(
            root_set=root_set,
            derived_dim=len(root_set) + span_dim,
            center_dim=center_dim,
            lv_center=lv_center,
            cong_dim=bisect_left(pivots, lv_center.dim),
            moduli_dim=center_dim - len(pivots),
        )

    def pair(self, left, right) -> PairStableSubalgebra:
        """The stable data of v1 and v2 from left(v1) and right(v2)."""
        simple1, theta_v1inv, moved_ort, u3_left, moved_dom, meets = left
        v2theta, u3_right, simple2 = right
        tau, tau_inv = self.tau, self.tau_inv
        # the twist on simple-root indices, None where it leaves them
        phi = {i: simple1.get(tau_inv.get(simple2.get(j))) for i, j in tau.items()}
        s = _stable_indices(phi)
        root_set, span_dim, perp, lv_center = self.span_data(s)
        center_dim = self.k - span_dim
        hit = meets.get(s)
        if hit is None:
            # meet = lv_center ∩ center2, where center2 = v1·dom1 ∩ span-perp
            meet = lv_center.intersect(moved_dom.intersect(perp))
            hit = meets[s] = (meet, tuple(a + b for a, b in zip(meet.basis, lv_center.basis)))
        meet, cols = hit
        m = meet.dim
        # D = v2·Theta - Theta·v1^-1 is c·theta·v1^-1·(psi - 1) for the twist
        # psi = v1·theta^-1·v2·theta, and c·theta·v1^-1 is invertible, so D keeps
        # the ranks of psi - 1 when h_ort1 + v1·h_ort1 is moved by Theta·v1^-1 too.
        # One elimination of [D·meet | D·lv_center | moved ort] gives them all:
        # meet lies in lv_center, and an echelon form of a column prefix is the
        # prefix of the echelon form
        diff = msub(v2theta, theta_v1inv)
        pivots = _echelon(tuple(a + b for a, b in zip(matmul(diff, cols), moved_ort)))[1]
        # u1 = graph(v2theta | lv_center), u2 = graph(theta·v1^-1 | center2), so
        # u1 ∩ u2 = graph(v2theta | ker D on meet), of dimension dim ker; and
        # (a, b) -> (a, c·b) maps u3 onto itself.  u3's rows (x, 0) and (0, y)
        # are independent, so a rank is needed only when both parts are nonzero
        pk = bisect_left(pivots, m)
        z_pair_dim = m - pk + len(u3_left) + len(u3_right)
        if pk < m and (u3_left or u3_right):
            x = matmul(meet.basis, transpose(_kernel(matmul(diff, meet.basis))))
            graph = transpose(x + matmul(v2theta, x))
            z_pair_dim = rank(graph + u3_left + u3_right)
        return PairStableSubalgebra(
            root_set=root_set,
            derived_dim=len(root_set) + span_dim,
            center_dim=center_dim,
            lv_center=lv_center,
            cong_dim=bisect_left(pivots, m + lv_center.dim),
            moduli_dim=center_dim - len(pivots),
            partner_root_set=self.span_data(frozenset(simple2[tau[i]] for i in s))[0],
            z_pair_dim=z_pair_dim,
        )

    def record(self, st: StableSubalgebra, const: int, offset: int, **reps) -> LeafRecord:
        """The record of st for reps (v, or v1 and v2): leaf constant const
        plus their lengths, coset constant offset more.  With both h_ort zero,
        the simplified dim l1 - dim g_v + lengths + cong_dim must agree."""
        lengths = sum(w.length for w in reps.values())
        leaf = AffineDim(const + lengths)
        simplified = None
        if self.full_h:
            dim_gv = self.k + len(st.root_set)
            simplified = AffineDim(self.dims["dim_l1"] - dim_gv + lengths + st.cong_dim)
            if simplified != leaf:
                raise AssertionError("simplified leaf dimension disagrees")
        return LeafRecord(
            stable=st,
            orbit_dim="d_orb",
            orbit_range=(0, len(st.root_set)),
            leaf_dim=leaf,
            coset_dim=AffineDim(leaf.constant + offset),
            simplified_leaf_dim=simplified,
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
    dims = frame.dims
    records = []
    for v in _coset_space(rs, triple.gamma1):
        st = frame.single(v)
        cong_product = st.center_dim - st.moduli_dim
        const = len(d.levi1_roots) - len(st.root_set) - dims["dim_h_ort1"] + cong_product
        records.append(frame.record(st, const, dims["dim_g_plus"], v=v))
    return tuple(records)


def classify_g(
    rs: RootSystem,
    triple: BDTriple,
    d: Decomposition,
) -> tuple[LeafRecord, ...]:
    """One record per pair of minimal coset representatives."""
    reps1 = _coset_space(rs, triple.gamma1)
    reps2 = _coset_space(rs, triple.gamma2)
    count, bound = len(reps1) * len(reps2), _weyl_bound()
    if count > bound:
        raise ValueError(f"{count} pairs of coset representatives exceed bound {bound}")
    frame = _Frame(rs, triple, d)
    dims = frame.dims
    base = dims["dim_lprime1_a1"] + 2 * dims["dim_h_ort1"]
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
    """Invariant factors of ker' / (ker' cap (1 - theta) ker)."""
    theta = d.theta_cartan
    k = len(theta)
    one_minus = msub(identity(k), theta)
    if rank(one_minus) < k:
        raise ThetaMinusOneSingular("1 - theta is singular on h")

    kerp = kernel
    if lambda2 is not None:
        span = kernel.rational_span()
        if not all(span.contains(c) for c in lambda2.columns()):
            raise NonCommensurableLattices(
                "supplied lattice leaves the rational span of the kernel"
            )
        kerp = kernel.sum(lambda2)

    image_cols = [matvec(one_minus, c) for c in kernel.columns()]
    denom = lcm(1, *(x.denominator for c in image_cols for x in c))
    sup = Lattice(k, [tuple(x * denom for x in c) for c in kerp.columns()])
    image = Lattice(k, [tuple(x * denom for x in c) for c in image_cols])
    factors, free = quotient_invariants(sup, sup.intersection(image))
    return FiniteAbelianGroup(invariant_factors=factors, free_rank=free)
