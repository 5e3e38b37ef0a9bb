"""P1 finite elements for the torsion and ground-mode problems.

The Dirichlet energy is conformally invariant in two dimensions, so the
stiffness matrix never sees the metric; only area integrals (mass, load,
energies) carry the conformal weight e^{2 phi}.  The weight is sampled at
the vertices and interpolated to the three edge midpoints of each triangle,
the quadrature points.  That quadrature is exact for quadratics, which
makes the consistent mass matrix and the load vector of a P1 weight agree
row by row: M 1 = F(w).  The torsion problem is solved by Newton's
method, whose Jacobian is assembled once per step in K's pattern, the
ground mode by inverse iteration.  Each solve factors its interior
stiffness matrix once, in single precision, and every linear step runs
conjugate gradients preconditioned by that factor down to a float64
residual test.  Both loops are deterministic; reruns of the same inputs
produce bit-identical iterates.
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


def _edge_sums(tri, off, m):
    """Sum edge entries over the (one or two) triangles sharing each edge.

    ``tri`` holds renumbered vertices (-1 for dropped ones) and ``off[t, q]``
    the local entry on edge q of triangle t, which joins its local vertices
    _MIDPOINT_PAIRS[q].  Returns the end points lo < hi of every edge with
    both ends kept, and the summed entries; a sum of two terms is exact in
    either order.
    """
    a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]
    keep = (a >= 0) & (b >= 0)
    key = np.minimum(a, b)[keep].astype(np.int64) * m + np.maximum(a, b)[keep]
    if key.size == 0:  # no two kept vertices are adjacent
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, np.zeros(0)
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sums = np.add.reduceat(off[keep][order], first)
    lo, hi = np.divmod(key[first], m)
    return lo.astype(np.int32), hi.astype(np.int32), sums


def _scatter(mesh, loc, dofs) -> sp.csr_matrix:
    """Sum symmetric local (ntri, 3, 3) blocks into a sparse matrix on ``dofs``.

    Row and column r belong to vertex dofs[r]; entries that touch any other
    vertex are dropped, so the interior system is built without forming and
    slicing the full one.  All vertices when ``dofs`` is None.  The pattern
    is that of the full assembly: the diagonal and both directions of every
    mesh edge.  Summing per edge, rather than converting all 9 ntri local
    entries from coordinate format, keeps the temporaries, and with them the
    peak memory of a solve, small.
    """
    n = len(mesh.vertices)
    if dofs is None:
        dofs = np.arange(n)
    m = len(dofs)
    num = np.full(n, -1, dtype=np.int32)
    num[dofs] = np.arange(m, dtype=np.int32)
    tri = num[mesh.triangles]
    keep = tri >= 0
    diag = np.bincount(tri[keep], weights=np.diagonal(loc, axis1=1, axis2=2)[keep],
                       minlength=m)
    lo, hi, off = _edge_sums(tri, loc[:, [1, 2, 0], [2, 0, 1]], m)
    ids = np.arange(m, dtype=np.int32)
    return sp.coo_matrix((np.concatenate([off, off, diag]),
                          (np.concatenate([lo, hi, ids]), np.concatenate([hi, lo, ids]))),
                         shape=(m, m)).tocsr()


def assemble_stiffness(mesh, dofs=None) -> sp.csr_matrix:
    """Unweighted P1 stiffness matrix; K[i,j] = int grad phi_i . grad phi_j.

    ``dofs`` restricts rows and columns to those vertices, in that order
    (all vertices by default).
    """
    e = _edge_vectors(mesh)
    # K_loc[i, j] = (e_i . e_j) / (4 A)
    kloc = np.einsum("tid,tjd->tij", e, e)
    del e  # not needed by the scatter; freeing it lowers the peak
    kloc /= (4.0 * mesh.triangle_areas())[:, None, None]
    return _scatter(mesh, kloc, dofs)


def assemble_mass(mesh, w_mid, dofs=None) -> sp.csr_matrix:
    """Consistent weighted mass matrix from midpoint quadrature.

    Off-diagonal (i, j) picks up the weight at the midpoint between them,
    the diagonal the two midpoints touching vertex i:
    M_loc[i,j] = A w_k / 12, M_loc[i,i] = A (S - w_i) / 12, S = w_0+w_1+w_2.
    ``dofs`` restricts rows and columns as in :func:`assemble_stiffness`.
    """
    areas = mesh.triangle_areas()
    w = np.asarray(w_mid, dtype=float)
    s = w.sum(axis=1)
    mloc = np.empty((len(areas), 3, 3))
    for i in range(3):
        mloc[:, i, i] = s - w[:, i]
        for j in range(i + 1, 3):
            k = 3 - i - j
            mloc[:, i, j] = mloc[:, j, i] = w[:, k]
    mloc *= (areas / 12.0)[:, None, None]
    return _scatter(mesh, mloc, dofs)


def load_vector(mesh, rho_mid) -> np.ndarray:
    """Nodal load F_i = int rho phi_i, rho given at the edge midpoints."""
    areas = mesh.triangle_areas()
    rho = np.asarray(rho_mid, dtype=float)
    s = rho.sum(axis=1)
    floc = (s[:, None] - rho) * (areas / 6.0)[:, None]
    return np.bincount(mesh.triangles.ravel(), weights=floc.ravel(),
                       minlength=len(mesh.vertices))


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


def cg_solve(A, b, x0=None, tol=1e-12, max_iter=None, precond=None):
    """Preconditioned conjugate gradients down to a relative residual.

    ``precond`` maps a residual r to an approximation of A^{-1} r (the
    identity when None, which is plain CG).  The stopping test is always
    the float64 relative residual ||b - A x|| / ||b|| <= tol, whatever the
    precision of the preconditioner.  Deterministic and warm-startable;
    returns (x, iterations).  Raises ConvergenceError with the residual
    history if the cap is hit.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0
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


def _interior_stiffness(mesh):
    interior = mesh.interior_vertices
    if len(interior) == 0:
        raise ValueError("mesh has no interior vertices to solve on")
    return interior, assemble_stiffness(mesh, interior)


def stiffness_preconditioner(mesh):
    """:func:`_factor` of the interior stiffness matrix, the ``precond`` of
    the solvers on this mesh or on a moved copy with the same interior."""
    return _factor(_interior_stiffness(mesh)[1])


class _NewtonSystem:
    """Load F(u) and Jacobian J(u) = K - M_c of a Newton step, edge by edge.

    u and the weight are linear along an edge, so at its midpoint both are
    the averages u_e, w_e of its end values: the source u_e^gamma w_e and
    c_e = gamma w_e u_e^(gamma-1) depend on the edge alone.  With m_e the
    weighted mass w_e (A_1 + A_2) / 12 of the edge's one or two triangles,
    F_i = 2 sum_e u_e^gamma m_e over the edges at vertex i, and
    M_c[i, j] = gamma u_e^(gamma-1) m_e, M_c[i, i] the sum of that over the
    edges at i; midpoints where u_e <= 0 drop out of M_c.  J is a copy of
    K.data less M_c, sharing K's indices and indptr, so it is exactly
    symmetric.  The edges and their CSR slots are found once per solve.
    """

    def __init__(self, mesh, interior, K, w, gamma):
        m = len(interior)
        self.K, self.interior, self.gamma = K, interior, gamma
        # every boundary vertex becomes vertex m, where u = 0; the edges
        # from interior vertex i to the boundary merge into one edge (i, m)
        num = np.full(len(mesh.vertices), m, dtype=np.int32)
        num[interior] = np.arange(m, dtype=np.int32)
        mass = midpoint_values(mesh, w)
        mass *= (mesh.triangle_areas() / 12.0)[:, None]
        self.lo, self.hi, self.mass = _edge_sums(num[mesh.triangles], mass,
                                                 m + 1)
        del mass
        self.inner = self.hi < m
        lo, hi = self.lo[self.inner], self.hi[self.inner]
        # K is canonical: row i holds its lower edges' columns, i, then its
        # upper edges' columns, each sorted, and the edges come sorted by
        # (lo, hi), so each edge's rank in its row's upper (lower) run
        # follows from a running count
        n_up = np.bincount(lo, minlength=m)
        n_low = np.bincount(hi, minlength=m)
        rank = np.arange(len(lo))
        self.up = (K.indptr[lo + 1] - np.cumsum(n_up)[lo] + rank).astype(np.int32)
        order = np.argsort(hi, kind="stable")
        self.low = np.empty(len(lo), dtype=np.int32)
        self.low[order] = (K.indptr[hi[order]] + rank
                           - (np.cumsum(n_low) - n_low)[hi[order]])
        self.diag = (K.indptr[1:] - n_up - 1).astype(np.int32)

    def _vertex_sums(self, x):
        """Sum of the edge values x over the edges at each interior vertex."""
        m = len(self.interior)
        sums = np.bincount(self.lo, x, m + 1) + np.bincount(self.hi, x, m + 1)
        return sums[:m]

    def __call__(self, u):
        """F(u) and J(u) on the interior; ``u`` is nodal on the full mesh."""
        x = np.append(u[self.interior], 0.0)
        u_e = 0.5 * (x[self.lo] + x[self.hi])
        g = np.maximum(u_e, 0.0) ** self.gamma * self.mass
        mc = np.divide(self.gamma * g, u_e, out=np.zeros_like(u_e),
                       where=u_e > 0.0)
        data = self.K.data.copy()
        data[self.diag] -= self._vertex_sums(mc)
        mc = mc[self.inner]
        data[self.up] -= mc
        data[self.low] -= mc
        J = sp.csr_matrix((data, self.K.indices, self.K.indptr),
                          shape=self.K.shape)
        return 2.0 * self._vertex_sums(g), J


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
    until max|d| / max|u| <= tol.  J = K - S^T diag(gamma q u_mid^(gamma-1)) S,
    with S the midpoint average and q = (area/3) w_mid, drops the midpoints
    where u_mid <= 0; it is assembled once per step in K's pattern (see
    :class:`_NewtonSystem`) and is SPD on the positive branch
    (Brezis-Oswald).  ``precond`` defaults to :func:`_factor` of K.
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
    interior, K = _interior_stiffness(mesh)
    w = nodal_weight(mesh, weight)
    F0 = load_vector(mesh, midpoint_values(mesh, w))[interior]
    if precond is None:
        precond = _factor(K)
    # at gamma = 0 the problem is linear: J = K and F = F0.  The edge
    # layout is built after the factor, whose freed workspace its build
    # temporaries can reuse
    system = _NewtonSystem(mesh, interior, K, w, gamma) if gamma > 0 else None

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
        F, J = (F0, K) if system is None else system(u)
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
    preconditioned by ``precond``, by default :func:`_factor` of K.
    ``weight`` and the input checks are those of :func:`solve_torsion`.
    """
    _check_stopping(tol, max_iter)
    interior, K = _interior_stiffness(mesh)
    w = nodal_weight(mesh, weight)
    M = assemble_mass(mesh, midpoint_values(mesh, w), interior)
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
