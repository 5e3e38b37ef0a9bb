"""P1 finite elements for the torsion and ground-mode problems.

The Dirichlet energy is conformally invariant in two dimensions, so the
stiffness matrix never sees the metric; only area integrals carry the
conformal weight e^{2 phi}, sampled at the vertices and interpolated to
the edge midpoints, the quadrature points.  That quadrature is exact for
quadratics and makes every P1 object a sum over the mesh edges: the
stiffness K, the weighted mass M(w), the load F(w) = M 1 and the Newton
Jacobian J(u) = K - M_c all come from one :class:`EdgeOperator` per
solve.  The torsion problem is solved by Newton's method, the ground mode
by inverse iteration.  Each solve factors K once, in single precision, and
every linear step runs conjugate gradients preconditioned by that factor
down to a float64 residual test.  Both loops are deterministic; reruns of
the same inputs produce bit-identical iterates.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError

_MIDPOINT_PAIRS = ((1, 2), (2, 0), (0, 1))  # midpoint q sits opposite vertex q


def midpoint_values(mesh, u) -> np.ndarray:
    """Nodal P1 field evaluated at the edge midpoints, shape (ntri, 3)."""
    un = np.asarray(u, dtype=float)[mesh.triangles]
    out = np.empty(un.shape)
    for q, (a, b) in enumerate(_MIDPOINT_PAIRS):
        out[:, q] = 0.5 * (un[:, a] + un[:, b])
    return out


def nodal_weight(mesh, weight) -> np.ndarray:
    """Metric area weight e^{2 phi} sampled once at the mesh vertices.

    ``weight`` is None (the plane, all ones) or a callable mapping an (n, 2)
    point array to n values.  The samples must be finite and positive; the
    returned array is read-only and is the P1 weight every consumer reads.
    """
    n = len(mesh.vertices)
    if weight is None:
        vals = np.ones(n)
    else:
        vals = np.array(weight(mesh.vertices), dtype=float)
    if vals.shape != (n,):
        raise ValueError(f"weight must give one value per vertex: expected "
                         f"shape ({n},), got {vals.shape}")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("weight values must be finite and positive")
    vals.setflags(write=False)
    return vals


def weight_midpoints(mesh, weight) -> np.ndarray:
    """Metric area weight at the quadrature points; all ones for the plane.

    The weight is sampled at the vertices and interpolated linearly to the
    edge midpoints.
    """
    return midpoint_values(mesh, nodal_weight(mesh, weight))


def _edge_vectors(mesh) -> np.ndarray:
    """e[t, i] is the edge opposite vertex i of triangle t."""
    p = mesh.vertices[mesh.triangles]
    e = np.empty_like(p)
    e[:, 0] = p[:, 2] - p[:, 1]
    e[:, 1] = p[:, 0] - p[:, 2]
    e[:, 2] = p[:, 1] - p[:, 0]
    return e


def _edge_sums(tri, m, entries, weights):
    """Sum over the (one or two) triangles sharing each mesh edge.

    ``tri`` holds renumbered vertices, the m interior ones first;
    ``entries[t, q]`` is a value on edge q of triangle t, which joins its
    local vertices _MIDPOINT_PAIRS[q], and ``weights[t]`` a value of
    triangle t.  Returns the end points lo < hi of every edge with an
    interior end (lo < m), sorted by (lo, hi), and per edge the sums of
    ``entries`` and of ``weights``; a sum of two terms is exact in either
    order.
    """
    n = int(tri.max()) + 1
    a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]
    key = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    del a, b  # each temporary freed early lowers the peak of a solve
    at = np.flatnonzero(key < m * n)  # flat index t * 3 + q of each term
    key = key.ravel()[at]
    by_key = np.argsort(key)
    key, at = key[by_key], at[by_key]
    del by_key
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    entry_sums = np.add.reduceat(entries.ravel()[at], first)
    weight_sums = np.add.reduceat(weights[at // 3], first)
    lo, hi = np.divmod(key[first], n)
    return lo.astype(np.int32), hi.astype(np.int32), entry_sums, weight_sums


@dataclasses.dataclass(frozen=True, eq=False)
class EdgeOperator:
    """The mesh edges with an interior end, and the stiffness K from them.

    ``order`` lists the interior vertices, then the boundary ones; edge e
    joins lo[e] < hi[e] in that numbering and carries its area share
    ``share[e]`` = (A_1 + A_2) / 12.  An edge between interior vertices has
    its entries (lo, hi), (hi, lo) at slots ``up``, ``low`` of K's CSR
    arrays, row i its diagonal at ``diag[i]``.  The cotangent weights are
    not kept once K holds them, as the operator lives through K's factor.
    """

    order: np.ndarray
    m: int
    lo: np.ndarray
    hi: np.ndarray
    share: np.ndarray
    up: np.ndarray
    low: np.ndarray
    diag: np.ndarray
    K: sp.csr_matrix = dataclasses.field(repr=False)

    @property
    def interior(self) -> np.ndarray:
        """Mesh vertex of each interior unknown."""
        return self.order[:self.m]

    def vertex_sums(self, x) -> np.ndarray:
        """Sum of the edge values x over the edges at each interior vertex."""
        n = len(self.order)
        return (np.bincount(self.lo, x, n) + np.bincount(self.hi, x, n))[:self.m]

    def edge_mass(self, w) -> np.ndarray:
        """Weighted mass w_e share_e of each edge, w_e the mean of the nodal
        weight ``w`` at the edge's two ends (its value at the midpoint)."""
        x = np.asarray(w, dtype=float)[self.order]
        return 0.5 * (x[self.lo] + x[self.hi]) * self.share

    def fill(self, data, diag, off):
        """Write ``diag`` on the diagonal and ``off`` at the edges between
        interior vertices into the CSR ``data`` of K's pattern."""
        data[self.diag] = diag
        off = off[self.hi < self.m]
        data[self.up] = off
        data[self.low] = off

    def matrix(self, diag, off) -> sp.csr_matrix:
        """Symmetric matrix on K's index arrays, filled by :meth:`fill`."""
        data = np.empty(len(self.K.indices))
        self.fill(data, diag, off)
        return sp.csr_matrix((data, self.K.indices, self.K.indptr),
                             shape=self.K.shape)

    def newton(self, w, u, gamma):
        """Load F(u) = 2 sum_e u_e^gamma m_e over the edges at each vertex
        and Jacobian K - M_c, M_c the mass matrix of gamma u_e^(gamma-1)
        without the edges where u_e <= 0; m_e is :meth:`edge_mass` of the
        nodal weight ``w``, ``u`` is nodal and zero on the boundary, and u_e
        its mean on edge e.
        """
        x = u[self.order]
        u_e = 0.5 * (x[self.lo] + x[self.hi])
        g = np.maximum(u_e, 0.0) ** gamma * self.edge_mass(w)
        mc = np.divide(gamma * g, u_e, out=np.zeros_like(u_e),
                       where=u_e > 0.0)
        J = self.matrix(self.vertex_sums(mc), mc)  # M_c, made K - M_c in place
        np.subtract(self.K.data, J.data, out=J.data)
        return 2.0 * self.vertex_sums(g), J


def assemble_stiffness(mesh) -> EdgeOperator:
    """Edge operator of the mesh, with the interior P1 stiffness matrix
    K[i,j] = int grad phi_i . grad phi_j as its ``K``.

    Off the diagonal K holds the cotangent weight k_e of each edge, the sum
    of (e_a . e_b) / (4 A) over its triangles, e_a and e_b the triangle's
    other two edges.  Raises ValueError for a mesh without interior vertices.
    """
    interior = mesh.interior_vertices
    m, n = len(interior), len(mesh.vertices)
    if m == 0:
        raise ValueError("mesh has no interior vertices to solve on")
    order = np.concatenate([interior, mesh.boundary_vertices], dtype=np.int32)
    num = np.empty(n, dtype=np.int32)
    num[order] = np.arange(n, dtype=np.int32)
    e = _edge_vectors(mesh)
    kloc = np.empty(mesh.triangles.shape)
    for q, (a, b) in enumerate(_MIDPOINT_PAIRS):
        kloc[:, q] = e[:, a, 0] * e[:, b, 0] + e[:, a, 1] * e[:, b, 1]
    del e
    areas = mesh.triangle_areas()
    kloc /= (4.0 * areas)[:, None]
    lo, hi, k, share = _edge_sums(num[mesh.triangles], m, kloc, areas / 12.0)
    del kloc
    # copied once the sort's temporaries are freed, the arrays that live
    # through K's factor leave its workspace that memory in one piece
    lo, hi, share = lo.copy(), hi.copy(), share.copy()

    # row i of K's canonical CSR arrays holds its lower edges' columns, i,
    # then its upper edges' columns, each ascending.  The edges come sorted
    # by (lo, hi), so a stable sort by row of [lower entries, diagonal,
    # upper entries] puts every entry in its slot
    inner = hi < m
    n_in = int(inner.sum())
    ids = np.arange(m, dtype=np.int32)
    rows = np.concatenate([hi[inner], ids, lo[inner]])
    by_row = np.argsort(rows, kind="stable")
    slots = np.empty(len(rows), dtype=np.int32)
    slots[by_row] = np.arange(len(rows), dtype=np.int32)
    low, diag, up = np.split(slots, [n_in, n_in + m])
    indices = np.concatenate([lo[inner], ids, hi[inner]])[by_row]
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    K = sp.csr_matrix((np.empty(len(indices)), indices, indptr), shape=(m, m))
    op = EdgeOperator(order=order, m=m, lo=lo, hi=hi, share=share, up=up,
                      low=low, diag=diag, K=K)
    # a row of the full K sums to zero, so its diagonal is minus the
    # cotangent weights of all its edges, those to the boundary included
    op.fill(K.data, -op.vertex_sums(k), k)
    return op


def assemble_mass(op, w) -> sp.csr_matrix:
    """Consistent weighted mass matrix M(w) on the interior, in K's pattern:
    the :meth:`EdgeOperator.edge_mass` m_e of the nodal weight ``w`` off the
    diagonal, and the sum of m_e over the edges at vertex i on it."""
    mass = op.edge_mass(w)
    return op.matrix(op.vertex_sums(mass), mass)


def load_vector(op, w) -> np.ndarray:
    """Interior load F_i(w) = int w phi_i = 2 sum_e m_e over the edges at
    vertex i, the row sum of the full mass matrix; ``w`` is nodal."""
    return 2.0 * op.vertex_sums(op.edge_mass(w))


def integrate_midpoint(mesh, vals_mid, w_mid=None) -> float:
    """Integrate a midpoint-sampled field, optionally against a weight."""
    vals = np.asarray(vals_mid, dtype=float)
    if w_mid is not None:
        vals = vals * w_mid
    return float((mesh.triangle_areas() / 3.0) @ vals.sum(axis=1))


def p1_gradients(mesh, u) -> np.ndarray:
    """Constant gradient of the P1 field on each triangle, shape (ntri, 2)."""
    e = _edge_vectors(mesh)
    un = np.asarray(u, dtype=float)[mesh.triangles]
    # grad u = sum_i u_i e_i^perp / (2A), with (x, y)^perp = (-y, x)
    gx = -np.einsum("ti,ti->t", un, e[:, :, 1])
    gy = np.einsum("ti,ti->t", un, e[:, :, 0])
    return np.column_stack([gx, gy]) / (2.0 * mesh.triangle_areas())[:, None]


@np.errstate(over="ignore", invalid="ignore")
def cg_solve(A, b, x0=None, tol=1e-12, max_iter=None, precond=None):
    """Preconditioned conjugate gradients down to a relative residual.

    ``precond`` maps a residual r to an approximation of A^{-1} r (the
    identity when None, which is plain CG).  The stopping test is always
    the float64 relative residual ||b - A x|| / ||b|| <= tol, whatever the
    precision of the preconditioner.  Deterministic and warm-startable;
    returns (x, iterations).  Raises ConvergenceError with the residual
    history if the cap is hit, and without one if ||b|| of a nonzero b is
    not a finite normal float64.  Overflow raises no numpy warning.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    if not b.any():
        return np.zeros(n), 0
    bnorm = float(np.linalg.norm(b))
    if not np.finfo(float).tiny <= bnorm < np.inf:
        raise ConvergenceError(
            f"cg broke down: the nonzero right-hand side has norm {bnorm}, "
            f"outside the normal float64 range")
    if max_iter is None:
        max_iter = max(10 * n, 50)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = float(r @ z)
    history = []
    for k in range(max_iter):
        rel = np.sqrt(float(r @ r)) / bnorm
        history.append(rel)
        if rel <= tol:
            return x, k
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp == 0.0 or not np.isfinite(pAp):
            raise ConvergenceError(
                f"cg broke down at iteration {k}: p.Ap = {pAp}", history=history)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = r if precond is None else precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"cg stalled at relative residual {history[-1]:.3e} "
        f"after {max_iter} iterations",
        history=history,
    )


def _factor(K):
    """Single-precision sparse LU of the SPD matrix K, as a preconditioner.

    Returns r -> K^{-1} r, solved in float32 and returned in float64, with
    r scaled by a power of two into float32 range for the solve.  On
    the 256 x 256 square a float64 factor costs ~55 MB against ~34 MB, and
    its direct solve still leaves a relative residual of ~1.6e-12, above
    the 1e-12 that :func:`solve_torsion` asks of each linear solve, so it
    would need the CG correction all the same.  SuperLU runs single-threaded,
    so the result is deterministic.
    """
    # K is symmetric, so its CSR arrays are also those of K in CSC format;
    # canonical, so that splu leaves the shared index arrays as they are
    K.sum_duplicates()
    Kc = sp.csc_matrix((K.data.astype(np.float32), K.indices, K.indptr),
                       shape=K.shape)
    lu = spla.splu(Kc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})

    def solve(r):
        # r is scaled by 2^-k into [0.5, 1) before the cast, so a tiny r does
        # not underflow to zero; a power of two is exact, so a solve that
        # needed no scaling is bit-identical to the unscaled one
        top = np.abs(r).max()
        if top == 0.0 or not np.isfinite(top):
            return lu.solve(r.astype(np.float32)).astype(np.float64)
        k = np.frexp(top)[1]
        x = lu.solve(np.ldexp(r, -k).astype(np.float32))
        return np.ldexp(x.astype(np.float64), k)

    return solve


def stiffness_preconditioner(mesh):
    """:func:`_factor` of the interior stiffness matrix, the ``precond`` of
    the solvers on this mesh or on a moved copy with the same interior."""
    return _factor(assemble_stiffness(mesh).K)


@dataclasses.dataclass(frozen=True)
class Solution:
    """Converged FEM field: a torsion fixed point or a ground mode.

    ``u`` is nodal on the full mesh (zeros on the boundary) and ``weight``
    the nodal metric weight the problem was assembled with; ``w_mid`` is
    its interpolant at the quadrature points.  A torsion solution of
    lap u = -u^gamma carries ``gamma``; a ground mode of lap u = -lam u,
    normalised to unit weighted L2 norm with u > 0 inside, carries ``lam``.
    ``residuals`` holds the increments of the iteration, one per step, or
    the equation residual of a torsion solve returned at gamma = 0.
    """

    mesh: object
    u: np.ndarray
    weight: np.ndarray
    iterations: int
    residuals: tuple
    gamma: float | None = None
    lam: float | None = None
    w_mid: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self.u.setflags(write=False)
        w_mid = midpoint_values(self.mesh, self.weight)
        w_mid.setflags(write=False)
        object.__setattr__(self, "w_mid", w_mid)

    @property
    def residual(self) -> float:
        return self.residuals[-1] if self.residuals else 0.0


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    return gamma


def _check_stopping(tol, max_iter):
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def solve_torsion(mesh, gamma, weight=None, tol=1e-10, max_iter=200,
                  initial=None, precond=None) -> Solution:
    """Newton's method for the semilinear torsion problem K u = F(u).

    F is the load of the source max(u, 0)^gamma.  Each step solves
    J d = F(u) - K u by :func:`cg_solve` to a relative residual of 1e-12,
    until max|d| / max|u| <= tol.  K, F and J all come from the mesh's
    :class:`EdgeOperator` (see :meth:`EdgeOperator.newton`); J is SPD on
    the positive branch (Brezis-Oswald).  ``precond`` defaults to
    :func:`_factor` of K.
    The start is a supersolution built from the gamma = 0 solve, or a
    nearby ``initial`` (boundary values forced to zero).  At gamma = 0 the
    problem is linear and, without ``initial``, that solve is returned as
    the one step once its equation residual ||F - K u|| / ||F||, which
    ``residuals`` then holds, is at most tol.
    ``weight`` is None or a callable e^{2 phi}, sampled at the vertices by
    :func:`nodal_weight`.  Raises ValueError for gamma outside [0, 1), a
    nonpositive tol, max_iter below 1, an invalid weight or a mesh without
    interior vertices.
    """
    gamma = _check_gamma(gamma)
    _check_stopping(tol, max_iter)
    op = assemble_stiffness(mesh)
    K, interior = op.K, op.interior
    w = nodal_weight(mesh, weight)
    F0 = load_vector(op, w)
    if precond is None:
        precond = _factor(K)

    u = np.zeros(len(mesh.vertices))
    if initial is None:
        # s u0, u0 the gamma = 0 solve, s = max(1, max u0)^(gamma/(1-gamma)),
        # is a supersolution, K (s u0) = s F(1) >= F(s u0), from which Newton
        # on this convex problem descends monotonically to the positive one
        u[interior], _ = cg_solve(K, F0, tol=1e-12, precond=precond)
        if gamma == 0.0:
            res = float(np.linalg.norm(F0 - K @ u[interior])
                        / np.linalg.norm(F0))
            if res <= tol:
                return Solution(mesh=mesh, u=u, weight=w, iterations=1,
                                residuals=(res,), gamma=gamma)
        u *= max(1.0, u.max()) ** (gamma / (1.0 - gamma))
    else:
        u[interior] = np.asarray(initial, dtype=float)[interior]
    residuals = []
    for it in range(1, max_iter + 1):
        # at gamma = 0 the problem is linear: J = K and F = F0
        F, J = (F0, K) if gamma == 0.0 else op.newton(w, u, gamma)
        d, _ = cg_solve(J, F - K @ u[interior], tol=1e-12, precond=precond)
        u[interior] += d
        res = float(np.abs(d).max() / max(np.abs(u).max(), 1e-300))
        residuals.append(res)
        if res <= tol:
            return Solution(mesh=mesh, u=u, weight=w, iterations=it,
                            residuals=tuple(residuals), gamma=gamma)
    raise ConvergenceError(
        f"newton iteration stalled at increment {residuals[-1]:.3e} "
        f"after {max_iter} iterations (gamma={gamma})",
        history=residuals,
    )


def solve_eigen(mesh, weight=None, tol=1e-12, max_iter=500,
                initial=None, precond=None) -> Solution:
    """Ground eigenpair by inverse power iteration with Rayleigh quotients.

    Stops when the relative Rayleigh increment drops below tol; the mode is
    returned with exact unit weighted L2 norm and positive sign.  ``initial``
    seeds the iteration (e.g. the mode of a nearby mesh).  Each step solves
    K y = M x by :func:`cg_solve`, down to a relative residual of 1e-13,
    preconditioned by ``precond``, by default :func:`_factor` of K.  K and
    the weighted mass matrix M come from one :class:`EdgeOperator`.
    ``weight`` and the input checks are those of :func:`solve_torsion`.
    """
    _check_stopping(tol, max_iter)
    op = assemble_stiffness(mesh)
    K, interior = op.K, op.interior
    w = nodal_weight(mesh, weight)
    M = assemble_mass(op, w)
    if precond is None:
        precond = _factor(K)

    if initial is None:
        x = np.ones(len(interior))
    else:
        x = np.asarray(initial, dtype=float)[interior].copy()
        if float(np.abs(x).max()) == 0.0:
            raise ValueError("initial eigenvector guess is identically zero")
    x /= np.sqrt(float(x @ (M @ x)))
    lam = float(x @ (K @ x))
    warm = x / lam
    residuals = []
    for it in range(1, max_iter + 1):
        y, _ = cg_solve(K, M @ x, x0=warm, tol=1e-13, precond=precond)
        x = y / np.sqrt(float(y @ (M @ y)))
        lam_new = float(x @ (K @ x))
        res = abs(lam_new - lam) / abs(lam_new)
        residuals.append(res)
        lam = lam_new
        if res <= tol:
            break
        warm = y / lam
    else:
        raise ConvergenceError(
            f"inverse iteration stalled at relative increment "
            f"{residuals[-1]:.3e} after {max_iter} iterations",
            history=residuals,
        )
    if x[np.argmax(np.abs(x))] < 0.0:
        x = -x
    u = np.zeros(len(mesh.vertices))
    u[interior] = x
    return Solution(mesh=mesh, u=u, weight=w, iterations=it,
                    residuals=tuple(residuals), lam=lam)
