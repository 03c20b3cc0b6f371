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
from .rootsys import RootSystem
from .weyl import (
    ParabolicSubgroup,
    WeylElement,
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


class _Frame:
    """What the records of one (rs, triple, d) share.

    The Cartan domain of the first side and the tau maps are built once.
    Data that depends on one representative, on one stable root set, or on
    a first-side representative and a root set is memoized on first use, so
    the per-record work is the stable-root walk and a few integer ranks.
    """

    def __init__(self, rs: RootSystem, triple: BDTriple, d: Decomposition):
        self.rs = rs
        self.triple = triple
        self.d = d
        self.k = rs.cartan_rank
        self.zero = (0,) * self.k
        self.dom1 = cartan_domain(rs, triple, d, 1)
        # tau maps the first Levi's roots onto the second's
        self.tau = dict(d.theta_roots)
        self.tau_inv = {b: a for a, b in d.theta_roots}
        self._left = {}
        self._left_pair = {}
        self._right = {}
        self._spans = {}
        self._meets = {}

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

    def left(self, v: WeylElement, label: str):
        """A basis of h_ort1 + v·h_ort1."""
        hit = self._left.get(v)
        if hit is None:
            _require_coset_minimal(self.rs, v, self.triple.gamma1, label)
            ort = self.d.h_ort1.add(self._moved(v.matrix, self.d.h_ort1))
            hit = self._left[v] = ort.vectors()
        return hit

    def left_pair(self, v1: WeylElement):
        """The two-sided extras of v1: v1·dom1, Theta·v1^{-1}, its image of
        h_ort1 + v1·h_ort1, and the u3 rows (x, 0) for x in that sum."""
        hit = self._left_pair.get(v1)
        if hit is None:
            ort = self.left(v1, "v1")
            theta_v1inv = matmul(self.theta_scaled, inverse_element(self.rs, v1).matrix)
            hit = self._left_pair[v1] = (
                self._moved(v1.matrix, self.dom1),
                theta_v1inv,
                tuple(matvec(theta_v1inv, x) for x in ort),
                tuple(x + self.zero for x in ort),
            )
        return hit

    def right(self, v2: WeylElement):
        """v2·Theta and the u3 rows (0, y) for y in h_ort2 + v2·h_ort2."""
        hit = self._right.get(v2)
        if hit is None:
            _require_coset_minimal(self.rs, v2, self.triple.gamma2, "v2")
            ort = self.d.h_ort2.add(self._moved(v2.matrix, self.d.h_ort2))
            hit = self._right[v2] = (
                matmul(v2.matrix, self.theta_scaled),
                tuple(self.zero + y for y in ort.vectors()),
            )
        return hit

    def span_data(self, root_set):
        """dim span, span-perp and lv_center = dom1 ∩ span-perp."""
        hit = self._spans.get(root_set)
        if hit is None:
            _assert_simple_generated(self.rs, root_set)
            span = Subspace(self.k, root_set)
            perp = span.perp(self.rs.gram)
            hit = self._spans[root_set] = (
                span.dim,
                perp,
                self.dom1.intersect(perp),
            )
        return hit

    def meet(self, v1: WeylElement, root_set) -> Subspace:
        """lv_center ∩ center2, where center2 = v1·dom1 ∩ span-perp."""
        key = (v1, root_set)
        hit = self._meets.get(key)
        if hit is None:
            _, perp, lv_center = self.span_data(root_set)
            center2 = self.left_pair(v1)[0].intersect(perp)
            hit = self._meets[key] = lv_center.intersect(center2)
        return hit

    def cong(self, image: Matrix, center_dim: int, ort):
        """Rank of image and the codimension in the center of its column
        span plus the span of ort."""
        rows = transpose(image)
        return rank(rows), center_dim - rank(rows + ort)

    def single(self, v: WeylElement) -> StableSubalgebra:
        ort = self.left(v, "v")
        root_set = stable_roots(self.d.levi1_roots, v)
        span_dim, _, lv_center = self.span_data(root_set)
        center_dim = self.k - span_dim
        cong_dim, moduli_dim = self.cong(
            msub(matmul(v.matrix, lv_center.basis), lv_center.basis), center_dim, ort
        )
        return StableSubalgebra(
            root_set=root_set,
            derived_dim=len(root_set) + span_dim,
            center_dim=center_dim,
            lv_center=lv_center,
            cong_dim=cong_dim,
            moduli_dim=moduli_dim,
        )

    def pair(self, v1: WeylElement, v2: WeylElement) -> PairStableSubalgebra:
        self.left(v1, "v1")  # v1 is checked before v2
        v2theta, u3_right = self.right(v2)
        _, theta_v1inv, moved_ort, u3_left = self.left_pair(v1)
        tau, tau_inv = self.tau, self.tau_inv

        def phi(a):
            e = tau_inv.get(v2(tau[a]))
            return None if e is None else v1(e)

        root_set = stable_roots(self.d.levi1_roots, phi)
        span_dim, _, lv_center = self.span_data(root_set)
        center_dim = self.k - span_dim
        # D = v2·Theta - Theta·v1^-1 is c·theta·v1^-1·(psi - 1) for the twist
        # psi = v1·theta^-1·v2·theta, and c·theta·v1^-1 is invertible, so D keeps
        # the ranks of psi - 1 when h_ort1 + v1·h_ort1 is moved by Theta·v1^-1 too
        diff = msub(v2theta, theta_v1inv)
        cong_dim, moduli_dim = self.cong(matmul(diff, lv_center.basis), center_dim, moved_ort)

        # u1 = graph(v2theta | lv_center), u2 = graph(theta·v1^-1 | center2), so
        # u1 ∩ u2 = graph(v2theta | ker D on lv_center ∩ center2); integer kernel
        # vectors and (a, b) -> (a, c·b), which maps u3 onto itself, keep it integral
        meet = self.meet(v1, root_set).basis
        graph = []
        for c in _kernel(matmul(diff, meet)):
            x = matvec(meet, c)
            graph.append(x + matvec(v2theta, x))
        return PairStableSubalgebra(
            root_set=root_set,
            derived_dim=len(root_set) + span_dim,
            center_dim=center_dim,
            lv_center=lv_center,
            cong_dim=cong_dim,
            moduli_dim=moduli_dim,
            partner_root_set=tuple(sorted(v2(tau[a]) for a in root_set)),
            z_pair_dim=rank(tuple(graph) + u3_left + u3_right),
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
    return _Frame(rs, triple, d).pair(v1, v2)


def _coset_space(rs: RootSystem, indices) -> tuple[WeylElement, ...]:
    reps = minimal_coset_reps(
        rs, ParabolicSubgroup.of(()), ParabolicSubgroup.of(indices)
    )
    return tuple(sorted(reps, key=lambda w: (w.length, w.matrix)))


def classify_gminus(
    rs: RootSystem, triple: BDTriple, d: Decomposition
) -> tuple[LeafRecord, ...]:
    """One record per minimal coset representative, dimension formulas included."""
    dims = dimension_summary(rs, triple, d)
    full_h = full_h_predicate(d)
    k = rs.cartan_rank
    frame = _Frame(rs, triple, d)
    records = []
    for v in _coset_space(rs, triple.gamma1):
        st = frame.single(v)
        cong_product = st.center_dim - st.moduli_dim
        const = (
            len(d.levi1_roots)
            - len(st.root_set)
            - dims["dim_h_ort1"]
            + v.length
            + cong_product
        )
        leaf = AffineDim(const)
        coset = AffineDim(const + dims["dim_g_plus"])
        simplified = None
        if full_h:
            dim_gv = k + len(st.root_set)
            s_const = dims["dim_l1"] - dim_gv + v.length + st.cong_dim
            if s_const != const:
                raise AssertionError("simplified leaf dimension disagrees")
            simplified = AffineDim(s_const)
        records.append(
            LeafRecord(
                stable=st,
                orbit_dim="d_orb",
                orbit_range=(0, len(st.root_set)),
                leaf_dim=leaf,
                coset_dim=coset,
                v=v,
                simplified_leaf_dim=simplified,
            )
        )
    return tuple(records)


def classify_g(
    rs: RootSystem,
    triple: BDTriple,
    d: Decomposition,
) -> tuple[LeafRecord, ...]:
    """One record per pair of minimal coset representatives."""
    dims = dimension_summary(rs, triple, d)
    full_h = full_h_predicate(d)
    k = rs.cartan_rank
    pos1 = len(d.levi1_roots) // 2
    pos2 = len(d.levi2_roots) // 2
    offset = (
        2 * dims["dim_g"]
        - 2 * dims["dim_n_plus"]
        + pos1
        + pos2
        - dims["dim_lprime1_a1"]
        - 2 * dims["dim_h_ort1"]
    )
    reps1 = _coset_space(rs, triple.gamma1)
    reps2 = _coset_space(rs, triple.gamma2)
    frame = _Frame(rs, triple, d)
    records = []
    for v1 in reps1:
        for v2 in reps2:
            st = frame.pair(v1, v2)
            const = (
                dims["dim_lprime1_a1"]
                + 2 * dims["dim_h_ort1"]
                - st.derived_dim
                + v1.length
                + v2.length
                - st.z_pair_dim
            )
            leaf = AffineDim(const)
            coset = AffineDim(const + offset)
            simp = None
            if full_h:
                dim_gv = k + len(st.root_set)
                s_const = (
                    dims["dim_l1"] - dim_gv + v1.length + v2.length + st.cong_dim
                )
                if s_const != const:
                    raise AssertionError("simplified leaf dimension disagrees")
                simp = AffineDim(s_const)
            records.append(
                LeafRecord(
                    stable=st,
                    orbit_dim="d_orb",
                    orbit_range=(0, len(st.root_set)),
                    leaf_dim=leaf,
                    coset_dim=coset,
                    v1=v1,
                    v2=v2,
                    simplified_leaf_dim=simp,
                )
            )
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
