"""Exact classification machinery for factorizable Poisson-Lie structures.

Input: a reductive root system plus a nilpotent isometry between two sets
of simple roots.  Output: the Cartan term and full r-matrix, the induced
splitting of the Cartan subalgebra, the Cayley transform, dressing-orbit
and double-coset dimension tables indexed by minimal Weyl representatives,
the discrete intersection group, and an exact sl(n+1) matrix realization
for type A.  All arithmetic is rational and exact.
"""

from .bdtriple import (
    BDTriple,
    CartanTerm,
    Infeasible,
    InductionChain,
    NotBijective,
    NotIsometry,
    NotNilpotent,
    TargetThetaNotIsometry,
    TripleError,
    cg_triple,
    enumerate_valid_triples,
    induction_chain,
    partial_order_pairs,
    solve_r0,
    tau_linear_matrix,
    validate_triple,
)
from .decomp import Decomposition, compute_decomposition, dimension_summary
from .leafclass import (
    AffineDim,
    FiniteAbelianGroup,
    LeafRecord,
    NonCommensurableLattices,
    NotMinimalRep,
    PairStableSubalgebra,
    StableSubalgebra,
    ThetaMinusOneSingular,
    classify_g,
    classify_gminus,
    sigma_group,
    stable_subalgebra_pair,
    stable_subalgebra_v,
)
from .linalg import Lattice, Subspace
from .rootsys import RootSystem, build_root_system, exp_kernel_lattice
from .typea import (
    MatrixElement,
    NotInLevi,
    SubalgebraNotPreserved,
    TensorElement,
    bruhat_decompose,
    casimir_tensor,
    check_cybe,
    check_symmetric_part,
    normalize_coset,
    realize_r,
    tc_orbit_dim,
    wdot_matrix,
)
from .weyl import (
    ParabolicSubgroup,
    WeylElement,
    decompose_min,
    enumerate_weyl,
    minimal_coset_reps,
    reduced_word,
)

__version__ = "0.1.0"
