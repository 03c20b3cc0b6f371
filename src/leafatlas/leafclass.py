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
    frac,
    identity,
    inverse,
    mat,
    matmul,
    matvec,
    msub,
    quotient_invariants,
    rank,
)
from .rootsys import RootSystem
from .weyl import (
    ParabolicSubgroup,
    WeylElement,
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
    "SimplifiedPathUnavailable",
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


class SimplifiedPathUnavailable(ValueError):
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


def _weyl_frac(w: WeylElement) -> Matrix:
    return mat(w.matrix)


def _require_coset_minimal(rs: RootSystem, v: WeylElement, indices, label: str):
    if right_descent(rs, v, indices) is not None:
        raise NotMinimalRep(f"{label} is not the minimal element of its coset")


def _root_span(rs: RootSystem, roots) -> Subspace:
    return Subspace(rs.cartan_rank, [tuple(map(frac, a)) for a in roots])


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


def _cong_data(
    rs: RootSystem,
    d: Decomposition,
    twist: Matrix,
    lv_center: Subspace,
    center_dim: int,
    v1: WeylElement,
):
    """Rank of (twist - 1) on the center and the product-subspace codimension."""
    k = rs.cartan_rank
    delta = msub(twist, identity(k))
    cong_dim = 0 if lv_center.dim == 0 else rank(matmul(delta, lv_center.basis))
    image = Subspace(k, [matvec(delta, x) for x in lv_center.vectors()])
    moved_ort = Subspace(
        k, [matvec(_weyl_frac(v1), x) for x in d.h_ort1.vectors()]
    )
    product = image.add(d.h_ort1).add(moved_ort)
    return cong_dim, center_dim - product.dim


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


def stable_subalgebra_v(
    rs: RootSystem, triple: BDTriple, d: Decomposition, v: WeylElement
) -> StableSubalgebra:
    """Roots of the first Levi whose whole v-orbit stays in the Levi,
    plus the center data of the corresponding stable subgroup."""
    _require_coset_minimal(rs, v, triple.gamma1, "v")
    k = rs.cartan_rank
    root_set = stable_roots(d.levi1_roots, v)
    _assert_simple_generated(rs, root_set)

    span = _root_span(rs, root_set)
    derived_dim = len(root_set) + span.dim
    center_dim = k - span.dim
    dom1 = cartan_domain(rs, triple, d, 1)
    lv_center = dom1.intersect(span.perp(rs.gram))
    cong_dim, moduli_dim = _cong_data(
        rs, d, _weyl_frac(v), lv_center, center_dim, v
    )
    return StableSubalgebra(
        root_set=root_set,
        derived_dim=derived_dim,
        center_dim=center_dim,
        lv_center=lv_center,
        cong_dim=cong_dim,
        moduli_dim=moduli_dim,
    )


def _stack(upper, lower):
    return tuple(upper) + tuple(lower)


def stable_subalgebra_pair(
    rs: RootSystem,
    triple: BDTriple,
    d: Decomposition,
    v1: WeylElement,
    v2: WeylElement,
) -> PairStableSubalgebra:
    """Stable data for the two-sided twist v1 tau^{-1} v2 tau, with the
    partner root set and the dimension of the pair-center solution space."""
    _require_coset_minimal(rs, v1, triple.gamma1, "v1")
    _require_coset_minimal(rs, v2, triple.gamma2, "v2")
    k = rs.cartan_rank
    # tau maps the first Levi's roots onto the second's
    tau = dict(d.theta_roots)
    tau_inv = {b: a for a, b in d.theta_roots}

    def phi(a):
        e = tau_inv.get(v2(tau[a]))
        return None if e is None else v1(e)

    root_set = stable_roots(d.levi1_roots, phi)
    _assert_simple_generated(rs, root_set)
    partner = tuple(sorted(v2(tau[a]) for a in root_set))

    span = _root_span(rs, root_set)
    derived_dim = len(root_set) + span.dim
    center_dim = k - span.dim
    dom1 = cartan_domain(rs, triple, d, 1)
    lv_center = dom1.intersect(span.perp(rs.gram))

    theta = d.theta_cartan
    theta_inv = inverse(theta)
    m1 = _weyl_frac(v1)
    m2 = _weyl_frac(v2)
    psi = matmul(m1, matmul(theta_inv, matmul(m2, theta)))
    cong_dim, moduli_dim = _cong_data(rs, d, psi, lv_center, center_dim, v1)

    # pair-center space in h x h: graph conditions over the two centers,
    # plus the moved orthogonal-complement block
    v2theta = matmul(m2, theta)
    u1 = Subspace(
        2 * k, [_stack(x, matvec(v2theta, x)) for x in lv_center.vectors()]
    )
    moved_dom = Subspace(k, [matvec(m1, x) for x in dom1.vectors()])
    center2 = moved_dom.intersect(span.perp(rs.gram))
    theta_v1inv = matmul(theta, inverse(m1))
    u2 = Subspace(
        2 * k, [_stack(x, matvec(theta_v1inv, x)) for x in center2.vectors()]
    )
    ort_left = d.h_ort1.add(
        Subspace(k, [matvec(m1, x) for x in d.h_ort1.vectors()])
    )
    ort_right = d.h_ort2.add(
        Subspace(k, [matvec(m2, x) for x in d.h_ort2.vectors()])
    )
    zero = tuple(frac(0) for _ in range(k))
    u3 = Subspace(
        2 * k,
        [_stack(x, zero) for x in ort_left.vectors()]
        + [_stack(zero, x) for x in ort_right.vectors()],
    )
    z_pair_dim = u1.intersect(u2).add(u3).dim

    return PairStableSubalgebra(
        root_set=root_set,
        derived_dim=derived_dim,
        center_dim=center_dim,
        lv_center=lv_center,
        cong_dim=cong_dim,
        moduli_dim=moduli_dim,
        partner_root_set=partner,
        z_pair_dim=z_pair_dim,
    )


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
    records = []
    for v in _coset_space(rs, triple.gamma1):
        st = stable_subalgebra_v(rs, triple, d, v)
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
    simplified: bool = False,
) -> tuple[LeafRecord, ...]:
    """One record per pair of minimal coset representatives."""
    if simplified and not full_h_predicate(d):
        raise SimplifiedPathUnavailable(
            "simplified formulas need vanishing orthogonal complements"
        )
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
    records = []
    for v1 in reps1:
        for v2 in reps2:
            st = stable_subalgebra_pair(rs, triple, d, v1, v2)
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
