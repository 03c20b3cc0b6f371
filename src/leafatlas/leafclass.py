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
from math import prod

from .bdtriple import BDTriple
from .decomp import Decomposition, dimension_summary, form_perp_of_simples
from .linalg import (
    Lattice,
    Matrix,
    Subspace,
    _integer_scaled,
    identity,
    matmul,
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
    simplified_leaf_dim: AffineDim
    v: WeylElement | None = None
    v1: WeylElement | None = None
    v2: WeylElement | None = None


def _require_coset_minimal(rs: RootSystem, v: WeylElement, indices, label: str):
    if right_descent(rs, v, indices) is not None:
        raise NotMinimalRep(f"{label} is not the minimal element of its coset")


def _simple_map(w: WeylElement, indices) -> dict[int, int | None]:
    """i -> j for each i in indices whose simple root alpha_i w sends to a
    simple root alpha_j, i -> None otherwise.  Column i of w is the root
    w(alpha_i), which is simple exactly when its height is one; it is e_j."""
    cols = tuple(zip(*w.matrix))
    return {i: cols[i].index(1) if sum(cols[i]) == 1 else None for i in indices}


def _stable_indices(step: dict) -> frozenset[int]:
    """The largest S among step's keys that step maps into itself (so
    permutes, step being injective): drop each i whose image is not in S
    until none is dropped."""
    s = set(step)
    while (kept := {i for i in s if step[i] in s}) != s:
        s = kept
    return frozenset(s)


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
    A record costs a walk on indices, one msub, one matmul and one integer
    elimination.

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
        self._spans = {}

    @cached_property
    def theta_scaled(self) -> Matrix:
        # c·theta for the lcm c of theta's denominators, built on first use:
        # one-sided records never need it, and the two-sided ranks need it
        # invertible, which a hand-built theta need not be
        big, _ = _integer_scaled(self.d.theta_cartan)
        if rank(big) < self.k:
            raise ValueError("singular matrix")
        return big

    def _simple(self, v: WeylElement, gamma, label: str) -> dict[int, int | None]:
        """After checking v is minimal modulo W_gamma: its simple-root map on gamma."""
        _require_coset_minimal(self.rs, v, gamma, label)
        return _simple_map(v, gamma)

    def left(self, v1: WeylElement):
        """The simple-root map of v1 and Theta·v1^{-1}."""
        simple = self._simple(v1, self.triple.gamma1, "v1")
        return simple, matmul(self.theta_scaled, inverse_element(self.rs, v1).matrix)

    def right(self, v2: WeylElement):
        """The simple-root map of v2 and v2·Theta."""
        simple = self._simple(v2, self.triple.gamma2, "v2")
        return simple, matmul(v2.matrix, self.theta_scaled)

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
        s = _stable_indices(self._simple(v, self.triple.gamma1, "v"))
        lv = self.span_data(s)[1].basis
        return self._stable(StableSubalgebra, s, rank(msub(matmul(v.matrix, lv), lv)))

    def pair(self, left, right) -> PairStableSubalgebra:
        """The stable data of v1 and v2 from left(v1) and right(v2)."""
        simple1, theta_v1inv = left
        simple2, v2theta = right
        tau = self.tau
        # the twist on simple-root indices, None where it leaves them
        phi = {i: simple1.get(self.tau_inv.get(simple2[j])) for i, j in tau.items()}
        s = _stable_indices(phi)
        lv_center = self.span_data(s)[1]
        # D = v2·Theta - Theta·v1^-1 is c·theta·v1^-1·(psi - 1), and
        # c·theta·v1^-1 is invertible, so D·lv_center has the rank of psi - 1
        # there, and z_pair_dim is the dimension of its kernel there
        cong_dim = rank(matmul(msub(v2theta, theta_v1inv), lv_center.basis))
        return self._stable(
            PairStableSubalgebra,
            s,
            cong_dim,
            partner_root_set=self.span_data(frozenset(simple2[tau[i]] for i in s))[0],
            z_pair_dim=lv_center.dim - cong_dim,
        )

    def record(self, st: StableSubalgebra, const: int, offset: int, **reps) -> LeafRecord:
        """The record of st for reps (v, or v1 and v2): leaf constant const
        plus their lengths, coset constant offset more.  The simplified
        dim l1 - dim g_v + lengths + cong_dim must agree."""
        lengths = sum(w.length for w in reps.values())
        leaf = AffineDim(const + lengths)
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
    """One record per pair of minimal coset representatives."""
    reps1 = _coset_space(rs, triple.gamma1)
    reps2 = _coset_space(rs, triple.gamma2)
    count, bound = len(reps1) * len(reps2), _weyl_bound()
    if count > bound:
        raise ValueError(f"{count} pairs of coset representatives exceed bound {bound}")
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
        span = kernel.rational_span()
        if not all(span.contains(c) for c in lambda2.columns()):
            raise NonCommensurableLattices(
                "supplied lattice leaves the rational span of the kernel"
            )
        kerp = kernel.sum(lambda2)

    image = Lattice(k, transpose(matmul(one_minus, kernel.basis)))
    sup = Lattice(k, [[s * x for x in c] for c in kerp.columns()])
    factors, free = quotient_invariants(sup.sum(image), image)
    return FiniteAbelianGroup(invariant_factors=factors, free_rank=free)
