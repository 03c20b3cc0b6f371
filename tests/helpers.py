"""Small helpers shared by several test modules.

Only tests call these, so they live here rather than in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from leafatlas.bdtriple import Infeasible
from leafatlas.decomp import form_perp_of_simples, simple_span
from leafatlas.linalg import (
    Lattice,
    Subspace,
    _kernel,
    det,
    frac,
    identity,
    madd,
    mat,
    matmul,
    matvec,
    row_hnf,
    transpose,
)
from leafatlas.rootsys import build_root_system, levi_roots
from leafatlas.typea import (
    MatrixElement,
    _conjugation_images,
    _orbit_rank,
    cg_sigma,
    tc_orbit_dim,
    wdot_matrix,
)
from leafatlas.weyl import WeylElement, _orbit, weyl_identity


def vec(entries) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in entries)


def form_pairing(rs, x, y) -> Fraction:
    """(x, y) = x^T · gram · y in simple-root coordinates."""
    if len(x) != rs.cartan_rank or len(y) != rs.cartan_rank:
        raise ValueError("vector dimension does not match cartan_rank")
    gy = matvec(rs.gram, vec(y))
    return sum((frac(a) * b for a, b in zip(x, gy)), Fraction(0))


def inverse_element(rs, w: WeylElement) -> WeylElement:
    """G^{-1}·w^T·G (w preserves the form G) on the integer-scaled forms."""
    m = matmul(rs.gram_inverse_int, matmul(transpose(w.matrix), rs.gram_int))
    q = rs.gram_int_scale
    if any(x % q for row in m for x in row):
        raise AssertionError("inverse of a Weyl element is not an integer matrix")
    return WeylElement(tuple(tuple(x // q for x in row) for row in m), w.length)


def legs_traceless(t) -> bool:
    """Whether every leg of the tensor t has zero trace: for each leg, the
    diagonal terms that agree on the other legs sum to zero."""
    for leg in range(t.arity):
        sums: dict = {}
        for key, val in t.coefficients.items():
            i, j = key[leg]
            if i != j:
                continue
            rest = key[:leg] + key[leg + 1:]
            sums[rest] = sums.get(rest, Fraction(0)) + val
        if any(v != 0 for v in sums.values()):
            return False
    return True


def parabolic_elements(rs, p):
    """Every element of the standard parabolic subgroup p, ordered by
    matrix: the orbit of rho under p's simple reflections."""
    return _orbit(rs, p.generators, (1,) * rs.rank)


def reference_orbit(rs, indices, lam, dominant=()):
    """The dense walk that weyl._orbit ran before its steps read the sparse
    Cartan table (the bound check left out): row i of s_i·w is row i of s_i
    times every column of w, and the orbit point, in fundamental-weight
    coordinates, steps by a dense update mu - mu_i·alpha_i."""
    gens = []
    for i in sorted(indices):
        alpha = [int(i == j) - rs.reflections[j][j][i] for j in range(rs.rank)]
        gens.append((i, rs.reflections[i][i], alpha))
    found = {tuple(lam): weyl_identity(rs)}
    frontier = list(found)
    while frontier:
        nxt = []
        for mu in frontier:
            w = found[mu]
            cols = tuple(zip(*w.matrix))
            for i, s_row, alpha in gens:
                if mu[i] > 0:
                    nu = tuple(x - mu[i] * a for x, a in zip(mu, alpha))
                    if nu not in found:
                        row = tuple(sum(c * x for c, x in zip(s_row, col)) for col in cols)
                        m = w.matrix[:i] + (row,) + w.matrix[i + 1 :]
                        found[nu] = WeylElement(m, w.length + 1)
                        nxt.append(nu)
        frontier = nxt
    kept = (w for mu, w in found.items() if all(mu[i] >= 0 for i in dominant))
    return tuple(sorted(kept, key=lambda w: w.matrix))


def longest_element(rs, p):
    """The unique maximal-length element of the parabolic subgroup p."""
    elems = parabolic_elements(rs, p)
    best = max(elems, key=lambda w: w.length)
    ties = [w for w in elems if w.length == best.length]
    if len(ties) != 1:
        raise AssertionError("longest element is not unique")
    return best


def nullspace(a):
    """Canonical basis of the right kernel (free variable = 1 pattern): the
    primitive kernel vectors divided by their free entry, the last nonzero one."""
    kernel = _kernel(a)
    free = [next(x for x in reversed(v) if x) for v in kernel]
    return tuple(tuple(Fraction(x, d) for x in v) for v, d in zip(kernel, free))


def in_parabolic(rs, w, p) -> bool:
    """Membership of the Weyl element w in the standard parabolic subgroup
    p: all inversions of w lie in the parabolic subsystem."""
    gens = p.generators
    for alpha in rs.positive_roots:
        img = w(alpha)
        if all(x <= 0 for x in img):
            if any(alpha[t] != 0 for t in range(len(alpha)) if t not in gens):
                return False
    return True


def element_length(rs, m) -> int:
    """Count of positive roots mapped to negative roots: the length of the
    Weyl element with matrix m, by its definition."""
    return sum(
        1 for alpha in rs.positive_roots
        if all(sum(r * a for r, a in zip(row, alpha)) <= 0 for row in m)
    )


def coroot(rs, alpha) -> tuple[Fraction, ...]:
    """2·alpha/(alpha,alpha) in the coordinates of alpha."""
    norm = form_pairing(rs, alpha, alpha)
    return tuple(Fraction(2, 1) * Fraction(x) / norm for x in alpha)


def reflect(rs, i: int, v) -> tuple[int, ...]:
    """Reflection of v through the i-th simple root, by its stored matrix."""
    if len(v) != rs.cartan_rank:
        raise ValueError("vector dimension does not match cartan_rank")
    return matvec(rs.reflections[i], v)


def coroot_matrix(size: int, i: int):
    """E_ii - E_{i+1,i+1} in sl(size), as a Fraction matrix."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[i][i] = Fraction(1)
    rows[i + 1][i + 1] = Fraction(-1)
    return tuple(tuple(r) for r in rows)


def unit_matrix(size: int, i: int, j: int):
    """The matrix unit E_ij in gl(size), as a Fraction matrix."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[i][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def assert_simple_generated(rs, root_set):
    """Raise unless every simple root in the support of a positive root of
    root_set is itself in root_set."""
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
    back to its start: the root walk that the classifiers and the coset
    normalization replaced by shrinking a simple-root index set.

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


# ---------------------------------------------------------------------------
# lattice intersection through an integer kernel: an oracle for sigma_group,
# which gets the same quotient from a lattice sum


def integer_kernel(a) -> list[list[int]]:
    """Basis of the integer solution lattice of a·x = 0: the rows of the
    Hermite form of [a^T | 1] whose a^T part is zero.  The rows of [a^T | 1]
    span the pairs (a·x, x) for integer x, and the row operations are
    unimodular, so those rows span every integer solution."""
    rows = [[int(x) for x in row] for row in a]
    m, n = len(rows), len(rows[0]) if rows else 0
    stacked = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return [h[m:] for h in row_hnf(stacked) if not any(h[:m])]


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    """a ∩ b: the kernel of [A | -B] gives the A-coordinates of its vectors."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.rank == 0 or b.rank == 0:
        return Lattice(a.ambient)
    stacked = [list(x) + [-y for y in z] for x, z in zip(a.basis, b.basis)]
    cols = [matvec(a.basis, k[: a.rank]) for k in integer_kernel(stacked)]
    return Lattice(a.ambient, cols)


# ---------------------------------------------------------------------------
# the Cartan subspace chain that compute_decomposition no longer builds: an
# oracle for the closed forms h_i = a_i = z_i and h_ort_i = 0


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v: the kernel of [U | -V] gives the U-coordinates of its vectors."""
    if u.ambient != v.ambient:
        raise ValueError("ambient mismatch")
    if u.dim == 0 or v.dim == 0:
        return Subspace(u.ambient)
    stacked = tuple(
        tuple(u.basis[i]) + tuple(-x for x in v.basis[i]) for i in range(u.ambient)
    )
    return Subspace(u.ambient, [matvec(u.basis, s[: u.dim]) for s in _kernel(stacked)])


@dataclass(frozen=True)
class CartanSplit:
    h1: Subspace
    h2: Subspace
    h_ort1: Subspace
    h_ort2: Subspace
    a1: Subspace
    a2: Subspace


def reference_cartan_split(rs, triple, r0) -> CartanSplit:
    """h1 = im r0 ∩ z1 and h2 = im r0^T ∩ z2, h_ort_i = (h_i + span Gamma_i)^perp
    and a_i = h_i ∩ h_ort_i^perp, through subspace meets and perps."""
    k = rs.cartan_rank
    g = rs.gram_int
    m = r0.r0
    z1 = form_perp_of_simples(rs, triple.gamma1)
    z2 = form_perp_of_simples(rs, triple.gamma2)
    h1 = intersect(Subspace(k, [tuple(row[j] for row in m) for j in range(k)]), z1)
    h2 = intersect(Subspace(k, [tuple(m[i]) for i in range(k)]), z2)
    h_ort1 = h1.add(simple_span(rs, triple.gamma1)).perp(g)
    h_ort2 = h2.add(simple_span(rs, triple.gamma2)).perp(g)
    a1 = intersect(h1, h_ort1.perp(g))
    a2 = intersect(h2, h_ort2.perp(g))
    return CartanSplit(h1, h2, h_ort1, h_ort2, a1, a2)


def reference_check_cartan_term(rs, triple, term) -> None:
    """check_cartan_term's slot constraints as r0^T·G·e_tau(i) + r0·G·e_i = 0,
    one matvec chain per tau pair."""
    m = term.r0
    if madd(m, transpose(m)) != rs.gram_inverse:
        raise Infeasible("r0 + r0^T does not equal the Cartan Casimir block")
    g = rs.gram
    for a_idx, t_idx in triple.tau:
        a = vec(rs.simple_roots[a_idx])
        t = vec(rs.simple_roots[t_idx])
        lhs = [
            x + y
            for x, y in zip(
                matvec(transpose(m), matvec(g, t)), matvec(m, matvec(g, a))
            )
        ]
        if any(x != 0 for x in lhs):
            raise Infeasible(
                f"r0 violates the slot constraint for alpha_{a_idx + 1}"
            )


# ---------------------------------------------------------------------------
# Cremmer-Gervais references: the Cayley-transform target of the shift
# triple, and acceptance check 7's orbit correspondence


def cg_theta_target(rs):
    """Cayley-transform target on h for the shift triple on A_n.

    Sends the i-th coroot to the (i+1)-st and the last one to minus the sum
    of all of them (the block-swap action on diagonal matrices).
    """
    n = rs.rank
    cols = []
    for i in range(n):
        if i < n - 1:
            cols.append([1 if t == i + 1 else 0 for t in range(n)])
        else:
            cols.append([-1] * n)
    return mat([[cols[j][i] for j in range(n)] for i in range(n)])


def cg_orbit_correspondence(n: int, j: int, b):
    """Orbit dimension of the embedded block element versus plain gl(j)
    conjugation; their difference must equal n - j."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    rs = build_root_system(f"A{n}")
    size = n + 1
    if j == 0:
        f_entries = identity(size)
        gl_dim = 0
    else:
        bm = b.entries if isinstance(b, MatrixElement) else mat(b)
        if len(bm) != j:
            raise ValueError("block size mismatch")
        bdet = det(bm)
        if bdet == 0:
            raise ValueError("block must be invertible")
        rows = [[Fraction(0)] * size for _ in range(size)]
        for r in range(j):
            for c in range(j):
                rows[r][c] = bm[r][c]
        for t in range(j, size - 1):
            rows[t][t] = Fraction(1)
        rows[size - 1][size - 1] = 1 / bdet
        f_entries = tuple(tuple(r) for r in rows)
        # conjugation fixes the identity, so the rank over gl(j) is the
        # rank over the sl(j) basis
        off_diagonal = [(p, q) for p in range(j) for q in range(j) if p != q]
        gl_dim = _orbit_rank(_conjugation_images(bm, off_diagonal))
    twist = wdot_matrix(cg_sigma(rs, j))
    f = MatrixElement(f_entries, "group")
    tc_dim = tc_orbit_dim(f, twist, levi_roots(rs, range(j - 1)))
    if tc_dim - gl_dim != n - j:
        raise AssertionError(
            f"correspondence gap {tc_dim - gl_dim} != {n - j}"
        )
    return tc_dim, gl_dim
