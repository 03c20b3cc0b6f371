"""Subalgebra decomposition attached to a triple and a Cartan term.

Root content of the two Levi subalgebras and the radicals, the Cartan part
f = r0·G of the connecting map, and its Cayley transform theta.  Each
travels as an integer matrix over one denominator (r0 = R/q, f = F/e, theta
= Theta/c with the least c); Fractions appear only in the public fields
r0, f_cartan and theta_cartan, built once from the integers, and the report.

compute_decomposition is the one gate for the Cartan term: it runs
check_cartan_term first.  A term that passes has r0 + r0^T = omega = G^-1,
so the symmetric part of r0 is omega/2, which is positive definite; then
x^T r0 x > 0 for x != 0, r0 is invertible, and so is
f - 1 = r0·G - (r0 + r0^T)·G = -r0^T·G.  Hence h_i = im r0 ∩ z_i = z_i,
h_ort_i = (z_i + span Gamma_i)^perp = 0 and a_i = z_i: the Cartan domain
of each side is all of h, and every dimension in the summary is a count.

All Cartan-space vectors are written in simple-root coordinates; the
invariant form on such vectors is x^T gram y.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from math import gcd

from .bdtriple import BDTriple, CartanTerm, check_cartan_term
from .linalg import Matrix, Subspace, _adjugate, _integer_scaled, _over, _shift
from .rootsys import RootSystem, levi_roots

__all__ = [
    "Decomposition",
    "compute_decomposition",
    "dimension_summary",
    "simple_span",
    "cartan_domain",
]


@dataclass(frozen=True)
class Decomposition:
    levi1_roots: tuple[tuple[int, ...], ...]
    levi2_roots: tuple[tuple[int, ...], ...]
    n_plus_roots: tuple[tuple[int, ...], ...]
    n_minus_roots: tuple[tuple[int, ...], ...]
    f_cartan: Matrix
    theta_cartan: Matrix
    # theta_scaled = (Theta, c) from compute_decomposition, else theta_cartan scaled
    theta_int: InitVar[tuple[Matrix, int] | None] = None
    theta_scaled: tuple[Matrix, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self, theta_int):
        object.__setattr__(self, "theta_scaled", theta_int or _integer_scaled(self.theta_cartan))


def simple_span(rs: RootSystem, indices) -> Subspace:
    return Subspace(rs.cartan_rank, [rs.simple_roots[i] for i in sorted(indices)])


def compute_decomposition(rs: RootSystem, triple: BDTriple, r0: CartanTerm) -> Decomposition:
    """Raise Infeasible unless r0 passes check_cartan_term; else the root
    content of both sides, f and theta = f·(f - 1)^-1 = 1 + (f - 1)^-1."""
    f, e = check_cartan_term(rs, triple, r0)
    l1 = levi_roots(rs, triple.gamma1)
    l2 = levi_roots(rs, triple.gamma2)
    l1pos = {a for a in l1 if rs.is_positive_root(a)}
    l2pos = {a for a in l2 if rs.is_positive_root(a)}
    n_plus = tuple(a for a in rs.positive_roots if a not in l1pos)
    n_minus = tuple(tuple(-x for x in a) for a in rs.positive_roots if a not in l2pos)
    # f - 1 = -r0^T·G is invertible once the check passes (module docstring),
    # and f·(f - 1)^-1 = 1 + (f - 1)^-1 = (det·1 + e·adj)/det for (adj, det)
    # of F - e·1 = e·(f - 1), which Theta/c takes to lowest terms
    adj, det = _adjugate(_shift(f, e))
    num = _shift([[e * x for x in row] for row in adj], -det)
    g = gcd(det, *(x for row in num for x in row)) * (1 if det > 0 else -1)
    theta, c = tuple(tuple(x // g for x in row) for row in num), det // g
    return Decomposition(
        levi1_roots=l1,
        levi2_roots=l2,
        n_plus_roots=n_plus,
        n_minus_roots=n_minus,
        f_cartan=_over(f, e),
        theta_cartan=_over(theta, c),
        theta_int=(theta, c),
    )


def cartan_domain(rs: RootSystem, triple: BDTriple, d: Decomposition, side: int) -> Subspace:
    """The Cartan part of l'_i plus a_i = z_i = (span Gamma_i)^perp: span Gamma_i + z_i."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    span = simple_span(rs, triple.gamma1 if side == 1 else triple.gamma2)
    return span.add(span.perp(rs.gram_int))


def dimension_summary(rs: RootSystem, triple: BDTriple, d: Decomposition) -> dict[str, int]:
    """Counts from the root content: a_i = z_i gives dim l'_i + a_i = dim l_i,
    and h_ort_i = 0 gives m± = n± (module docstring)."""
    k = rs.cartan_rank
    dim_l1 = len(d.levi1_roots) + k
    dim_l2 = len(d.levi2_roots) + k
    n_plus = len(d.n_plus_roots)
    n_minus = len(d.n_minus_roots)
    return {
        "dim_g": 2 * len(rs.positive_roots) + k,
        "dim_l1": dim_l1,
        "dim_l2": dim_l2,
        "dim_lprime1_a1": dim_l1,
        "dim_lprime2_a2": dim_l2,
        "dim_h_ort1": 0,
        "dim_h_ort2": 0,
        "dim_n_plus": n_plus,
        "dim_n_minus": n_minus,
        "dim_g_plus": dim_l1 + n_plus,
        "dim_g_minus": dim_l2 + n_minus,
        "dim_m_plus": n_plus,
        "dim_m_minus": n_minus,
    }
