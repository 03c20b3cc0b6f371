"""Small helpers shared by several test modules.

Only tests call these, so they live here rather than in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul

from leafatlas.bdtriple import Infeasible
from leafatlas.decomp import simple_span
from leafatlas.linalg import (
    Lattice,
    Matrix,
    Subspace,
    _coords,
    _kernel,
    det,
    frac,
    identity,
    mat,
    matmul,
    matvec,
    quotient_invariants,
    rank,
    row_hnf,
    rref,
    shape,
    transpose,
)
from leafatlas.leafclass import FiniteAbelianGroup
from leafatlas.rootsys import build_root_system, levi_roots
from leafatlas.typea import (
    MatrixElement,
    _conjugation_images,
    _orbit_rank,
    cg_sigma,
    perm_to_weyl,
    tc_orbit_dim,
    wdot_matrix,
)
from leafatlas.weyl import ParabolicSubgroup, WeylElement, _orbit, decompose_min, weyl_identity


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


def shifted_rank(m, c, lv) -> int:
    """rank((m - c·1)·lv): for m = c·psi, the rank of psi - 1 on the span of
    lv's columns, through the product with a basis of lv_center, as the leaf
    frame computed cong_dim before it counted the cycles of psi on S."""
    mlv = [[sum(map(mul, r, col)) for col in zip(*lv)] for r in m]
    return rank([[y - c * x for y, x in zip(a, b)] for a, b in zip(mlv, lv)])


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


def madd(a, b):
    """Entrywise a + b of two matrices of one shape."""
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in madd")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a, b):
    """Entrywise a - b of two matrices of one shape."""
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in msub")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def solve(a, b):
    """One solution of a·x = b over Q, free variables zero, or None if the
    system is inconsistent: the pivot read-out of rref on [a | b]."""
    nc = shape(a)[1]
    aug = tuple(tuple(row) + (frac(bi),) for row, bi in zip(a, b))
    r, pivots = rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = r[i][nc]
    return tuple(x)


def subspace_contains(space: Subspace, v) -> bool:
    if len(v) != space.ambient:
        raise ValueError("vector length does not match ambient dimension")
    if space.dim == 0:
        return all(frac(x) == 0 for x in v)
    return solve(space.basis, v) is not None


def lattice_contains(lat: Lattice, v) -> bool:
    if len(v) != lat.ambient:
        raise ValueError("vector length does not match ambient dimension")
    return _coords(lat.columns(), v) is not None


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


def form_perp_of_simples(rs, indices) -> Subspace:
    """z for an index set: vectors on which every listed simple root vanishes."""
    return simple_span(rs, indices).perp(rs.gram_int)


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


def reference_cartan_split(rs, triple, m) -> CartanSplit:
    """h1 = im r0 ∩ z1 and h2 = im r0^T ∩ z2, h_ort_i = (h_i + span Gamma_i)^perp
    and a_i = h_i ∩ h_ort_i^perp, through subspace meets and perps."""
    k = rs.cartan_rank
    g = rs.gram_int
    z1 = form_perp_of_simples(rs, triple.gamma1)
    z2 = form_perp_of_simples(rs, triple.gamma2)
    h1 = intersect(Subspace(k, [tuple(row[j] for row in m) for j in range(k)]), z1)
    h2 = intersect(Subspace(k, [tuple(m[i]) for i in range(k)]), z2)
    h_ort1 = h1.add(simple_span(rs, triple.gamma1)).perp(g)
    h_ort2 = h2.add(simple_span(rs, triple.gamma2)).perp(g)
    a1 = intersect(h1, h_ort1.perp(g))
    a2 = intersect(h2, h_ort2.perp(g))
    return CartanSplit(h1, h2, h_ort1, h_ort2, a1, a2)


def reference_check_cartan_term(rs, triple, m) -> None:
    """check_cartan_term's slot constraints as r0^T·G·e_tau(i) + r0·G·e_i = 0,
    one matvec chain per tau pair."""
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
# the Cartan stage over Q: r0, f, theta and Sigma as Fraction matrices and
# lattice meets, without the integer (matrix, denominator) forms of the package


def gauss_solve(a, columns):
    """Solutions x of a·x = b over Q, one per right-hand side b in columns:
    Gaussian elimination, then back substitution with every free unknown
    zero.  None if a system is inconsistent."""
    m = shape(a)[1]
    rows = [list(row) + [b[i] for b in columns] for i, row in enumerate(a)]
    pivots = []
    for c in range(m):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            if x := rows[i][c]:
                q = Fraction(x) / rows[r][c]
                rows[i] = [u - q * v if v else u for u, v in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(x for row in rows[len(pivots):] for x in row[m:]):
        return None
    out = []
    for t in range(len(columns)):
        x = [Fraction(0)] * m
        for row, c in reversed(list(zip(rows, pivots))):
            rest = sum(row[j] * x[j] for j in range(c + 1, m) if x[j])
            x[c] = (Fraction(row[m + t]) - rest) / row[c]
        out.append(tuple(x))
    return out


def gauss_inverse(a):
    """a^-1 over Q, one gauss_solve column per unit vector; None if a is
    singular, as some unit vector then leaves its column space."""
    n = len(a)
    cols = gauss_solve(a, [[int(i == j) for i in range(n)] for j in range(n)])
    return None if cols is None else transpose(cols)


@cache
def _gram_inverse(rs):
    return gauss_inverse(rs.gram)


def reference_r0(rs, triple):
    """The canonical r0 = omega/2 + S over Q: the slot rows S·d = -(e_a + e_b)
    for d = 2·G·(e_a - e_b), solved by Gaussian elimination with the free
    unknowns zero, and omega = G^-1 by the same elimination."""
    k, g = rs.cartan_rank, rs.gram
    omega = _gram_inverse(rs)
    unknowns = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rows, rhs = [], []
    for a, b in triple.tau:
        d = [x - y for x, y in zip(g[a], g[b])]  # G is symmetric
        for r in range(k):
            rows.append([2 * d[j] if i == r else -2 * d[i] if j == r else 0 for i, j in unknowns])
            rhs.append(-int(r == a) - int(r == b))
    # with no tau there are no rows, and the skew part is zero
    sols = gauss_solve(rows, [rhs]) if rows else [[0] * len(unknowns)]
    if sols is None:
        raise Infeasible("r0 constraint system inconsistent")
    s = [[Fraction(0)] * k for _ in range(k)]
    for (i, j), x in zip(unknowns, sols[0]):
        s[i][j], s[j][i] = x, -x
    return tuple(tuple(omega[i][j] / 2 + s[i][j] for j in range(k)) for i in range(k))


def reference_theta(f):
    """theta in the product form f·(f - 1)^-1."""
    return matmul(f, gauss_inverse(msub(f, identity(len(f)))))


def reference_sigma(theta, kernel, lambda2=None):
    """Sigma = ker' / (ker' cap (1 - theta) ker) through four lattices: ker',
    the image (1 - theta)·ker, their meet and the quotient, with ker' and the
    image scaled by the lcm of the image's denominators."""
    k = len(theta)
    one_minus = msub(identity(k), theta)
    kerp = kernel if lambda2 is None else kernel.sum(lambda2)
    image_cols = [[sum(x * y for x, y in zip(row, c) if y) for row in one_minus]
                  for c in kernel.columns()]
    denom = lcm(1, *(x.denominator for c in image_cols for x in c))
    sup = Lattice(k, [tuple(x * denom for x in c) for c in kerp.columns()])
    image = Lattice(k, [tuple(x * denom for x in c) for c in image_cols])
    factors, free = quotient_invariants(sup, lattice_intersection(sup, image).columns())
    return FiniteAbelianGroup(factors, free)


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


# ---------------------------------------------------------------------------
# Fraction reference for typea._bruhat_core: the row and column elimination
# in Fraction arithmetic and the signed permutations as matrix products


def monomial_weyl(m: Matrix) -> WeylElement:
    """The Weyl element sending c to the row of column c's nonzero entry in m,
    read by scanning the monomial matrix m."""
    perm = [next(r for r, row in enumerate(m) if row[c] != 0) for c in range(len(m))]
    return perm_to_weyl(build_root_system(f"A{len(m) - 1}"), perm)


def _add_row(work: list[list[Fraction]], dst: int, src: int, lam: Fraction):
    work[dst] = [x + lam * y for x, y in zip(work[dst], work[src])]


def reference_bruhat_core(g: Matrix, left_idx, right_idx):
    """g = p1 * wdot * p2 with both parabolics block upper triangular.

    Returns (p1, wdot, p2, w_min) with w_min the abstract minimal-length
    double-coset representative of the Borel-level permutation.
    """
    size = len(g)
    rs = build_root_system(f"A{size - 1}")
    work = [list(row) for row in g]
    p1 = [list(row) for row in identity(size)]
    p2 = [list(row) for row in identity(size)]
    assigned = [False] * size
    for c in range(size):
        pivot = None
        for r in range(size - 1, -1, -1):
            if not assigned[r] and work[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        assigned[pivot] = True
        for i in range(pivot):
            if not assigned[i] and work[i][c] != 0:
                lam = work[i][c] / work[pivot][c]
                _add_row(work, i, pivot, -lam)
                # g = p1 W p2 stays true: p1 <- p1 * (row op inverse)
                for r in range(size):
                    p1[r][pivot] += lam * p1[r][i]
        for c2 in range(c + 1, size):
            if work[pivot][c2] != 0:
                lam = work[pivot][c2] / work[pivot][c]
                for r in range(size):
                    work[r][c2] -= lam * work[r][c]
                for cc in range(size):
                    p2[c][cc] += lam * p2[c2][cc]

    monomial = tuple(tuple(row) for row in work)
    left, right = ParabolicSubgroup.of(left_idx), ParabolicSubgroup.of(right_idx)
    w1, w_min, w2 = decompose_min(rs, monomial_weyl(monomial), left, right)
    m1 = wdot_matrix(w1)
    mmin = wdot_matrix(w_min)
    # g = p1·monomial·p2 = (p1·m1)·mmin·(mmin^T·m1^T·monomial·p2), as the
    # signed permutation matrices m1 and mmin are orthogonal
    p1m = matmul(mat(p1), m1)
    p2m = matmul(transpose(mmin), matmul(transpose(m1), matmul(monomial, mat(p2))))
    return p1m, mmin, p2m, w_min
