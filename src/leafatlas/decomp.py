"""Subalgebra decomposition attached to a triple and a Cartan term.

Root content of the two Levi subalgebras and the radicals, the Cartan
subspaces h_i, their orthogonal complements, the chosen complements a_i,
the Cartan part of the connecting map f, and its Cayley transform theta.

All Cartan-space vectors are written in simple-root coordinates; the
invariant form on such vectors is x^T gram y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdtriple import BDTriple, CartanTerm
from .linalg import (
    Matrix,
    Subspace,
    identity,
    inverse,
    matmul,
    matvec,
    msub,
)
from .rootsys import RootSystem, levi_roots

__all__ = [
    "Decomposition",
    "DegenerateComplement",
    "compute_decomposition",
    "full_h_predicate",
    "dimension_summary",
    "simple_span",
    "form_perp_of_simples",
    "cartan_domain",
]


class DegenerateComplement(RuntimeError):
    """No form-compatible complement choice; internal consistency failure."""


@dataclass(frozen=True)
class Decomposition:
    levi1_roots: tuple[tuple[int, ...], ...]
    levi2_roots: tuple[tuple[int, ...], ...]
    n_plus_roots: tuple[tuple[int, ...], ...]
    n_minus_roots: tuple[tuple[int, ...], ...]
    h1: Subspace
    h2: Subspace
    h_ort1: Subspace
    h_ort2: Subspace
    a1: Subspace
    a2: Subspace
    f_cartan: Matrix
    theta_cartan: Matrix


def simple_span(rs: RootSystem, indices) -> Subspace:
    return Subspace(rs.cartan_rank, [rs.simple_roots[i] for i in sorted(indices)])


def form_perp_of_simples(rs: RootSystem, indices) -> Subspace:
    """z for an index set: vectors on which every listed simple root vanishes."""
    return simple_span(rs, indices).perp(rs.gram_int)


def compute_decomposition(
    rs: RootSystem, triple: BDTriple, r0: CartanTerm
) -> Decomposition:
    k = rs.cartan_rank
    g = rs.gram_int  # for perps: scaling the form keeps its kernels
    m = r0.r0

    l1 = levi_roots(rs, triple.gamma1)
    l2 = levi_roots(rs, triple.gamma2)
    l1pos = {a for a in l1 if rs.is_positive_root(a)}
    l2pos = {a for a in l2 if rs.is_positive_root(a)}
    n_plus = tuple(a for a in rs.positive_roots if a not in l1pos)
    n_minus = tuple(
        tuple(-x for x in a) for a in rs.positive_roots if a not in l2pos
    )

    z1 = form_perp_of_simples(rs, triple.gamma1)
    z2 = form_perp_of_simples(rs, triple.gamma2)
    h1 = Subspace(k, [tuple(row[j] for row in m) for j in range(k)]).intersect(z1)
    h2 = Subspace(k, [tuple(m[i]) for i in range(k)]).intersect(z2)

    span1 = simple_span(rs, triple.gamma1)
    span2 = simple_span(rs, triple.gamma2)
    h_ort1 = h1.add(span1).perp(g)
    h_ort2 = h2.add(span2).perp(g)

    a1 = h1.intersect(h_ort1.perp(g))
    a2 = h2.intersect(h_ort2.perp(g))

    f_cartan = matmul(m, rs.gram)
    f_minus_1 = msub(f_cartan, identity(k))
    try:
        theta_cartan = matmul(f_cartan, inverse(f_minus_1))
    except ValueError:
        raise DegenerateComplement(
            "Cayley transform undefined: f - 1 is singular"
        ) from None

    image_a1 = Subspace(k, [matvec(theta_cartan, v) for v in a1.vectors()])
    if image_a1 != a2:
        raise DegenerateComplement(
            "orthogonal complement choice is not theta-compatible"
        )

    return Decomposition(
        levi1_roots=l1,
        levi2_roots=l2,
        n_plus_roots=n_plus,
        n_minus_roots=n_minus,
        h1=h1,
        h2=h2,
        h_ort1=h_ort1,
        h_ort2=h_ort2,
        a1=a1,
        a2=a2,
        f_cartan=f_cartan,
        theta_cartan=theta_cartan,
    )


def full_h_predicate(d: Decomposition) -> bool:
    """True when both orthogonal complements vanish (simplified formulas apply).

    Every term that passes check_cartan_term has it.  r0 + r0^T = omega = G^-1
    gives f - 1 = r0·G - (r0 + r0^T)·G = -r0^T·G, which the Cayley transform
    needs invertible, so r0 is invertible; then h_i = z_i (h1 = im r0 ∩ z1),
    h_ort_i = (z_i + span Gamma_i)^perp = 0, and the Cartan domains are all of h.
    """
    return d.h_ort1.dim == 0 and d.h_ort2.dim == 0


def cartan_domain(rs: RootSystem, triple: BDTriple, d: Decomposition, side: int) -> Subspace:
    """The Cartan part of l'_i plus the chosen complement a_i, as a subspace."""
    if side == 1:
        return simple_span(rs, triple.gamma1).add(d.a1)
    if side == 2:
        return simple_span(rs, triple.gamma2).add(d.a2)
    raise ValueError("side must be 1 or 2")


def dimension_summary(rs: RootSystem, triple: BDTriple, d: Decomposition) -> dict[str, int]:
    k = rs.cartan_rank
    dim_g = 2 * len(rs.positive_roots) + k
    # a_i lies in span(Gamma_i)^perp, which meets span(Gamma_i) only in 0
    dim_la1 = len(d.levi1_roots) + len(triple.gamma1) + d.a1.dim
    dim_la2 = len(d.levi2_roots) + len(triple.gamma2) + d.a2.dim
    dim_m_plus = d.h_ort1.dim + len(d.n_plus_roots)
    dim_m_minus = d.h_ort2.dim + len(d.n_minus_roots)
    return {
        "dim_g": dim_g,
        "dim_l1": len(d.levi1_roots) + k,
        "dim_l2": len(d.levi2_roots) + k,
        "dim_lprime1_a1": dim_la1,
        "dim_lprime2_a2": dim_la2,
        "dim_h_ort1": d.h_ort1.dim,
        "dim_h_ort2": d.h_ort2.dim,
        "dim_n_plus": len(d.n_plus_roots),
        "dim_n_minus": len(d.n_minus_roots),
        "dim_g_plus": dim_la1 + d.h_ort1.dim + len(d.n_plus_roots),
        "dim_g_minus": dim_la2 + d.h_ort2.dim + len(d.n_minus_roots),
        "dim_m_plus": dim_m_plus,
        "dim_m_minus": dim_m_minus,
    }
