#!/usr/bin/env python3
"""Tour of the cyclic-shift Poisson structure on sl(4).

Builds the shift triple on A3, solves for the Cartan term, realizes the
r-matrix as an exact rational tensor, verifies the Yang-Baxter residual
vanishes identically, and prints the dressing-orbit table together with
the discrete intersection group.  Ends with one coset normalization run
so the output of the classification can be seen acting on an actual
matrix representative.
"""

from fractions import Fraction

from leafatlas import (
    build_root_system,
    cg_triple,
    compute_decomposition,
    reduced_word,
    solve_r0,
)
from leafatlas.bdtriple import induction_chain
from leafatlas.decomp import dimension_summary
from leafatlas.leafclass import classify_gminus, sigma_group
from leafatlas.rootsys import exp_kernel_lattice
from leafatlas.typea import (
    MatrixElement,
    check_cybe,
    check_symmetric_part,
    matrix_to_text,
    normalize_coset,
    realize_r,
)
from leafatlas.weyl import ParabolicSubgroup, minimal_coset_reps

N = 3

rs = build_root_system(f"A{N}")
triple = cg_triple(rs)
print(f"ambient: A{N}  (sl({N + 1}), {len(rs.all_roots)} roots)")
print(f"gamma1 = {tuple(i + 1 for i in triple.gamma1)}")
print(f"gamma2 = {tuple(i + 1 for i in triple.gamma2)}")
print(f"tau    = {{{', '.join(f'{a + 1}->{b + 1}' for a, b in triple.tau)}}}")
print(f"ord tau = {triple.ord_tau}")
print()

print("induction chain (ambient block, order):")
for ambient, step in induction_chain(rs, triple):
    print(f"  block {sorted(i + 1 for i in ambient)}  ord {step.ord_tau}")
print()

r0 = solve_r0(rs, triple, "canonical")
print("canonical Cartan term r0 (coroot coordinates):")
for row in matrix_to_text(r0).split("\n"):
    print("  " + row)
print()

r = realize_r(N, triple, r0)
print(f"r-matrix realized with {len(r.coefficients)} nonzero tensor entries")
print(f"symmetric part is the split Casimir: {check_symmetric_part(r)}")
print(f"Yang-Baxter residual identically zero: {check_cybe(r).is_zero()}")
print()

d = compute_decomposition(rs, triple, r0)
dims = dimension_summary(rs, d)
print("dimension summary:")
for key in sorted(dims):
    print(f"  {key} = {dims[key]}")
print()

sigma = sigma_group(d, exp_kernel_lattice(rs))
print(f"discrete intersection group: {sigma} (order {sigma.order})")
print()

print("dressing-orbit strata (one row per minimal representative):")
print("  v            l   stable dim   leaf dim      coset dim")
for rec in classify_gminus(rs, triple, d):
    word = " ".join(f"s{i + 1}" for i in reduced_word(rs, rec.v)) or "e"
    st = rec.stable
    print(
        f"  {word:<12} {rec.v.length}   {st.derived_dim + st.center_dim:<12}"
        f" {str(rec.leaf_dim):<13} {rec.coset_dim}"
    )
print()

# normalize a concrete coset representative: a generic element of the
# Levi block GL(3) x GL(1), entered with the short Weyl word s3
block = [
    [Fraction(1), Fraction(2), Fraction(0), Fraction(0)],
    [Fraction(1), Fraction(3), Fraction(1), Fraction(0)],
    [Fraction(0), Fraction(1), Fraction(2), Fraction(0)],
    [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
]
l = MatrixElement(block, "group")
p1 = ParabolicSubgroup.of(triple.gamma1)
w = max(minimal_coset_reps(rs, p1, p1), key=lambda u: u.length)
print(f"normalizing (l, {' '.join(f's{i + 1}' for i in reduced_word(rs, w))}):")
v, gk = normalize_coset(l, w, triple, d)
word = " ".join(f"s{i + 1}" for i in reduced_word(rs, v)) or "e"
print(f"  stratum v = {word}")
print("  residual Levi element:")
for row in matrix_to_text(gk).split("\n"):
    print("    " + row)
