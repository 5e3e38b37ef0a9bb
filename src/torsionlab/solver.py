"""P1 finite elements for the torsion and ground-mode problems.

The Dirichlet energy is conformally invariant in two dimensions, so the
stiffness matrix never sees the metric; only area integrals carry the
conformal weight e^{2 phi}, sampled at the vertices and interpolated to
the edge midpoints, the quadrature points.  That quadrature is exact for
quadratics and makes every P1 object a sum over the mesh edges: the
stiffness K, the weighted mass M(w), the load F(w) = M 1 and the Newton
Jacobian J(u) = K - M_c all come from one :class:`EdgeOperator` per
mesh, assembled on the mesh's first solve and kept while the mesh lives;
moved copies of a mesh share its edge numbering and K's index arrays.
The torsion problem is solved by an inexact Newton method, the ground
mode by inverse iteration.  Every linear step runs conjugate gradients
preconditioned by a float32 factor of K, kept for the last topology
solved on and shared by the moved copies solved after its first mesh,
down to a float64 residual test: 1e-12 for a linear solve, and for a
Newton step the Eisenstat-Walker forcing term, loose while the nonlinear
residual is large and tight once it falls quadratically, but never
tighter than float64 can resolve that residual.  Both loops are
deterministic; reruns of the same solves give bit-identical iterates.
Their inner products and norms are :func:`_dot`, numpy's own loop, never
BLAS, whose threaded dot product rounds by the thread count, so the
iterates do not depend on that count either.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError
from .geometry import check_gamma

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


def _edge_vectors(mesh, tri=slice(None)) -> np.ndarray:
    """e[t, i] is the edge opposite vertex i of triangle t, over the
    triangles ``tri`` (an index array, or all of them)."""
    p = mesh.vertices[mesh.triangles[tri]]
    e = np.empty_like(p)
    e[:, 0] = p[:, 2] - p[:, 1]
    e[:, 1] = p[:, 0] - p[:, 2]
    e[:, 2] = p[:, 1] - p[:, 0]
    return e


@dataclasses.dataclass(frozen=True, eq=False)
class _Edges:
    """The position-independent half of an :class:`EdgeOperator`, kept once
    per mesh :class:`~torsionlab.mesh.Topology`; every array is int32 and
    read-only.

    ``order``, ``m``, ``lo``, ``hi``, ``up``, ``low`` and ``diag`` are those
    of the operator, ``indices`` and ``indptr`` K's CSR index arrays.  Term
    q of triangle t, flat index t * 3 + q, joins its local vertices
    _MIDPOINT_PAIRS[q]; ``terms`` lists those on an edge with an interior
    end, grouped by edge in the edges' order, and ``first`` the start of
    each group, so that ``np.add.reduceat(x[terms], first)`` sums a
    per-term x over the (one or two) triangles sharing each edge.
    """

    order: np.ndarray
    m: int
    lo: np.ndarray
    hi: np.ndarray
    terms: np.ndarray
    first: np.ndarray
    up: np.ndarray
    low: np.ndarray
    diag: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _number_edges(mesh) -> _Edges:
    """The edges with an interior end of the mesh, sorted by (lo, hi), and
    the slots of K's canonical CSR arrays; the one edge sort of a topology.
    Raises ValueError for a mesh without interior vertices."""
    interior = mesh.interior_vertices
    m, n = len(interior), len(mesh.vertices)
    if m == 0:
        raise ValueError("mesh has no interior vertices to solve on")
    order = np.concatenate([interior, mesh.boundary_vertices], dtype=np.int32)
    num = np.empty(n, dtype=np.int32)
    num[order] = np.arange(n, dtype=np.int32)
    tri = num[mesh.triangles]
    a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]
    del tri
    key = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    del a, b  # each temporary freed early lowers the peak of a solve
    terms = np.flatnonzero(key < m * n)
    key = key.ravel()[terms]
    by_key = np.argsort(key)
    key, terms = key[by_key], terms[by_key]
    del by_key
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    lo, hi = np.divmod(key[first], n)
    del key
    # made int32 once the sort's temporaries are freed, the arrays that
    # live with the mesh leave a solve's factor that memory in one piece
    lo, hi = lo.astype(np.int32), hi.astype(np.int32)
    terms, first = terms.astype(np.int32), first.astype(np.int32)

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
    edges = _Edges(order=order, m=m, lo=lo, hi=hi, terms=terms, first=first,
                   up=up, low=low, diag=diag, indices=indices, indptr=indptr)
    for arr in (order, lo, hi, terms, first, up, low, diag, indices, indptr):
        arr.setflags(write=False)
    return edges


@dataclasses.dataclass(frozen=True, eq=False)
class EdgeOperator:
    """The mesh edges with an interior end, and the stiffness K from them.

    ``order`` lists the interior vertices, then the boundary ones; edge e
    joins lo[e] < hi[e] in that numbering and carries its area share
    ``share[e]`` = (A_1 + A_2) / 12.  An edge between interior vertices has
    its entries (lo, hi), (hi, lo) at slots ``up``, ``low`` of K's CSR
    arrays, row i its diagonal at ``diag[i]``.  The cotangent weights are
    not kept once K holds them, as the operator lives with its mesh.
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
    other two edges.  The edge numbering and K's index arrays are those of
    the mesh's topology, made by its first assembly and shared by every
    mesh on it; only ``share`` and K's values depend on the vertices.
    Raises ValueError for a mesh without interior vertices.
    """
    edges = _EDGES.get(mesh.topology)
    if edges is None:
        edges = _EDGES[mesh.topology] = _number_edges(mesh)
    e = _edge_vectors(mesh)
    kloc = np.empty(mesh.triangles.shape)
    for q, (a, b) in enumerate(_MIDPOINT_PAIRS):
        kloc[:, q] = e[:, a, 0] * e[:, b, 0] + e[:, a, 1] * e[:, b, 1]
    del e
    areas = mesh.triangle_areas()
    kloc /= (4.0 * areas)[:, None]
    k = np.add.reduceat(kloc.ravel()[edges.terms], edges.first)
    del kloc
    share = np.add.reduceat((areas / 12.0)[edges.terms // 3], edges.first)
    m = edges.m
    K = sp.csr_matrix((np.empty(len(edges.indices)), edges.indices,
                       edges.indptr), shape=(m, m))
    op = EdgeOperator(order=edges.order, m=m, lo=edges.lo, hi=edges.hi,
                      share=share, up=edges.up, low=edges.low,
                      diag=edges.diag, K=K)
    # a row of the full K sums to zero, so its diagonal is minus the
    # cotangent weights of all its edges, those to the boundary included
    op.fill(K.data, -op.vertex_sums(k), k)
    K.data.setflags(write=False)
    return op


# what a mesh or its topology alone determines, kept while it lives, and
# the float32 factor of the last topology solved on (see _preconditioner)
_EDGES = weakref.WeakKeyDictionary()  # Topology -> _Edges
_OPERATORS = weakref.WeakKeyDictionary()  # TriMesh -> EdgeOperator
_FACTORS = weakref.WeakKeyDictionary()  # Topology -> _factor, one at most


def _operator(mesh) -> EdgeOperator:
    """:func:`assemble_stiffness` of the mesh, assembled on first use and
    kept until the mesh is garbage-collected."""
    op = _OPERATORS.get(mesh)
    if op is None:
        op = _OPERATORS[mesh] = assemble_stiffness(mesh)
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


def _dot(a, b):
    """Inner product of two float64 vectors in numpy's own single-threaded
    loop, never BLAS.  Above 10^4 entries OpenBLAS splits a dot product
    across threads, which rounds by the thread count and leaves a helper
    thread spinning between calls; this loop costs about twice a
    single-threaded ddot.  Returns a numpy float64, so that a quotient of
    two of them keeps numpy's division semantics."""
    return np.einsum("i,i->", a, b)


def _norm(a):
    """2-norm of a float64 vector, the square root of :func:`_dot`."""
    return np.sqrt(_dot(a, a))


def integrate_midpoint(mesh, vals_mid, w_mid) -> float:
    """Integrate a midpoint-sampled field against the metric weight, both
    of shape (ntri, 3); ``w_mid`` is :func:`midpoint_values` of the nodal
    weight."""
    vals = np.asarray(vals_mid, dtype=float) * w_mid
    return float(_dot(mesh.triangle_areas() / 3.0, vals.sum(axis=1)))


def p1_gradients(mesh, u) -> np.ndarray:
    """Constant gradient of the P1 field on each triangle, shape (ntri, 2)."""
    return _triangle_gradients(mesh, u, slice(None))


def _triangle_gradients(mesh, u, tri) -> np.ndarray:
    """:func:`p1_gradients` on the triangles ``tri`` only, an index array
    or a slice; each row is that of the whole mesh, bit for bit."""
    e = _edge_vectors(mesh, tri)
    un = np.asarray(u, dtype=float)[mesh.triangles[tri]]
    # grad u = sum_i u_i e_i^perp / (2A), with (x, y)^perp = (-y, x)
    gx = -np.einsum("ti,ti->t", un, e[:, :, 1])
    gy = np.einsum("ti,ti->t", un, e[:, :, 0])
    return (np.column_stack([gx, gy])
            / (2.0 * mesh.triangle_areas()[tri])[:, None])


@np.errstate(over="ignore", invalid="ignore")
def cg_solve(A, b, x0=None, tol=1e-12, max_iter=None, precond=None):
    """Preconditioned conjugate gradients down to a relative residual.

    ``precond`` maps a residual r to an approximation of A^{-1} r (the
    identity when None, which is plain CG).  The stopping test is always
    the float64 relative residual ||b - A x|| / ||b|| <= tol, whatever the
    precision of the preconditioner.  Deterministic and warm-startable;
    returns (x, iterations).  Its inner products and norms are
    :func:`_dot`, which never calls BLAS, so x does not depend on the BLAS
    thread count either.  b and x0 are scaled by the power of two that
    brings max|b| into [0.5, 1), and x back: that is exact, so in-range
    solves are bit-identical to unscaled ones, and a tiny or huge b keeps
    the loop and a float32 ``precond`` in range; the caller checks the
    range of x.  A is meant to be SPD: a step with p.Ap <= 0 or not finite
    is a breakdown, as at negative curvature (Steihaug, SIAM J. Numer.
    Anal. 20 (1983) 626-637).  Raises ConvergenceError with the residual
    history on a breakdown or if the cap is hit, and without one if b is
    not finite.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    if not b.any():
        return np.zeros(n), 0
    top = np.abs(b).max()
    if not np.isfinite(top):
        raise ConvergenceError(
            f"cg broke down: the right-hand side is not finite (max |b| = {top})")
    k = np.frexp(top)[1]
    b = np.ldexp(b, -k)
    bnorm = float(_norm(b))
    if max_iter is None:
        max_iter = max(10 * n, 50)
    x = np.zeros(n) if x0 is None else np.ldexp(np.asarray(x0, dtype=float), -k)
    r = b - A @ x
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = float(_dot(r, z))
    history = []
    for it in range(max_iter):
        rel = _norm(r) / bnorm
        history.append(rel)
        if rel <= tol:
            return np.ldexp(x, k), it
        Ap = A @ p
        pAp = float(_dot(p, Ap))
        if not 0.0 < pAp < np.inf:
            raise ConvergenceError(
                f"cg broke down at iteration {it}: p.Ap = {pAp}", history=history)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = r if precond is None else precond(r)
        rz_new = float(_dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"cg stalled at relative residual {history[-1]:.3e} "
        f"after {max_iter} iterations",
        history=history,
    )


def _factor(K):
    """Single-precision sparse LU of the SPD matrix K, as a preconditioner.

    Returns r -> K^{-1} r, solved in float32, in range as :func:`cg_solve`
    scales b into [0.5, 1), and returned in float64.  On the 256 x 256
    square a float64 factor costs ~55 MB against ~34 MB, and its direct
    solve still leaves a relative residual of ~1.6e-12, above the 1e-12
    that :func:`solve_torsion` asks of its linear solves and of its last
    Newton steps, so it would need the CG correction all the same.  SuperLU
    runs single-threaded, so the result is deterministic.
    """
    # K is symmetric, so its CSR arrays are also those of K in CSC format;
    # canonical, so that splu leaves the index arrays as they are: they are
    # read-only, shared by every operator on the mesh's topology
    K.sum_duplicates()
    Kc = sp.csc_matrix((K.data.astype(np.float32), K.indices, K.indptr),
                       shape=K.shape)
    lu = spla.splu(Kc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})

    def solve(r):
        return lu.solve(r.astype(np.float32)).astype(np.float64)

    return solve


def _preconditioner(mesh):
    """The :func:`_factor` kept for the mesh's topology, from the K of the
    first mesh on it solved; it drops any other topology's, as one for each
    live topology would hold ~34 MB per 256 x 256 square a caller keeps."""
    solve = _FACTORS.get(mesh.topology)
    if solve is None:
        _FACTORS.clear()  # before factoring, so that two never coexist
        solve = _FACTORS[mesh.topology] = _factor(_operator(mesh).K)
    return solve


@dataclasses.dataclass(frozen=True)
class Solution:
    """Converged FEM field: a torsion fixed point or a ground mode.

    ``u`` is nodal on the full mesh (zeros on the boundary) and ``weight``
    the read-only nodal metric weight the problem was assembled with, from
    :func:`nodal_weight`; integrals interpolate it to the quadrature points
    with :func:`midpoint_values` where they need it.  A torsion solution of
    lap u = -u^gamma carries ``gamma``; a ground mode of lap u = -lam u,
    normalised to unit weighted L2 norm with u > 0 inside, carries ``lam``.
    ``residuals`` holds the increments of the iteration, one per step, or
    the equation residual of a torsion solve returned at gamma = 0.
    ``restarted`` is True for a torsion solve given an ``initial`` guess
    that it abandoned for its cold start; the solution is then that of the
    cold start alone.
    """

    mesh: object
    u: np.ndarray
    weight: np.ndarray
    iterations: int
    residuals: tuple
    gamma: float | None = None
    lam: float | None = None
    restarted: bool = False

    def __post_init__(self):
        self.u.setflags(write=False)

    @property
    def residual(self) -> float:
        return self.residuals[-1] if self.residuals else 0.0


def _check_stopping(tol, max_iter):
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def solve_torsion(mesh, gamma, weight=None, tol=1e-10, max_iter=200,
                  initial=None) -> Solution:
    """Inexact Newton method for the semilinear torsion problem K u = F(u).

    F is the load of the source max(u, 0)^gamma.  Each step solves
    J d = F(u) - K u by :func:`cg_solve` to the relative residual of
    :func:`_forcing`, from 0.1 on the first step down to 1e-12 as the
    residual falls, until max|d| / max|u| <= tol; the start solve and a
    step at gamma = 0 go to 1e-12.  No step at gamma > 0 is solved below
    eps ||F(u)|| / ||F(u) - K u||, eps the float64 machine epsilon: the
    equation residual F(u) - K u cannot be evaluated below eps ||F(u)||,
    so a tighter step would only resolve roundoff.  K, F and J all come
    from the mesh's :class:`EdgeOperator` (see :meth:`EdgeOperator.newton`);
    J is SPD on the positive branch (Brezis-Oswald).  PCG runs with the
    factor of the mesh's topology, from :func:`_preconditioner`.
    The start is a supersolution built from the gamma = 0 solve, or a
    nearby finite ``initial`` (boundary values forced to zero) with, at
    gamma > 0, a positive interior value.  Below the solution J can be
    near singular or indefinite: the solve starts cold instead when u.J u
    at ``initial`` is below (1 - gamma) u.K u / 2, half its value at the
    solution, and restarts once from the cold start when a step from
    ``initial`` meets a PCG breakdown; the solution then reads
    ``restarted``.  At gamma = 0 the problem is linear and, without
    ``initial``, that solve is returned as the one step once its equation
    residual ||F - K u|| / ||F||, which ``residuals`` then holds, is at
    most tol.
    ``weight`` is None or a callable e^{2 phi}, sampled at the vertices by
    :func:`nodal_weight`.  Raises ValueError for gamma outside [0, 1), a
    nonpositive tol, max_iter below 1, an invalid weight or ``initial``, or
    a mesh without interior vertices, and ConvergenceError if Newton stalls
    or u leaves float64 range, overflowing into a non-finite right-hand
    side for :func:`cg_solve` or underflowing below the smallest normal
    float64, without a numpy warning.
    """
    gamma = check_gamma(gamma)
    _check_stopping(tol, max_iter)
    precond = _preconditioner(mesh)  # first, to free a factor it drops
    op = _operator(mesh)
    K, interior = op.K, op.interior
    w = nodal_weight(mesh, weight)
    F0 = load_vector(op, w)

    def newton(u, warm):
        # below the solution J may be near singular or indefinite; from a
        # warm start that returns None, so that the cold start, a
        # supersolution where J stays SPD, takes over
        residuals = []
        norm = None
        for _ in range(max_iter):
            # at gamma = 0 the problem is linear: J = K and F = F0
            F, J = (F0, K) if gamma == 0.0 else op.newton(w, u, gamma)
            r = F - K @ u[interior]
            if warm and norm is None:
                # F is homogeneous of degree gamma in u, so J u = K u -
                # gamma F; where u.J u falls below half its value
                # (1 - gamma) u.K u at the solution, J is near singular or
                # indefinite along the start and its first step overshoots
                x = u[interior]
                if (gamma * _dot(x, F)
                        > 0.5 * (1.0 + gamma) * _dot(x, F - r)):
                    return None
            prev, norm = norm, _scaled_norm(r)
            eta = (1e-12 if gamma == 0.0
                   else _forcing(norm, prev, _scaled_norm(F)))
            try:
                d, _ = cg_solve(J, r, tol=eta, precond=precond)
            except ConvergenceError:
                if warm:
                    return None
                raise
            u[interior] += d
            res = float(np.abs(d).max() / _checked_max(u))
            residuals.append(res)
            if res <= tol:
                return _torsion_solution(mesh, u, w, residuals, gamma,
                                         restarted)
        raise ConvergenceError(
            f"newton iteration stalled at increment {residuals[-1]:.3e} "
            f"after {max_iter} iterations (gamma={gamma})",
            history=residuals,
        )

    restarted = False
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.zeros(len(mesh.vertices))
        if initial is not None:
            u[interior] = _checked_initial(initial, interior, gamma)
            solution = newton(u, warm=True)
            if solution is not None:
                return solution
            restarted = True
        # s u0 is a supersolution, u0 the gamma = 0 solve and
        # s = max(1, max u0)^(gamma/(1-gamma)), as K (s u0) = s F(1)
        # >= F(s u0); from it Newton on this convex problem descends
        # monotonically to the positive one
        u[interior], _ = cg_solve(K, F0, tol=1e-12, precond=precond)
        if gamma == 0.0:
            res = float(_norm(F0 - K @ u[interior]) / _norm(F0))
            if res <= tol:
                return _torsion_solution(mesh, u, w, [res], gamma, restarted)
        u *= max(1.0, u.max()) ** (gamma / (1.0 - gamma))
        return newton(u, warm=False)


def _checked_initial(initial, interior, gamma):
    """Interior values of a start guess; raises ValueError where Newton
    cannot start from them: a value that is not finite, or at gamma > 0 no
    positive value, where the source max(u, 0)^gamma and J's mass vanish."""
    x = np.asarray(initial, dtype=float)[interior]
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess must be finite")
    if gamma > 0.0 and not np.any(x > 0.0):
        raise ValueError("initial guess needs a positive interior value "
                         "at gamma > 0")
    return x


def _scaled_norm(r):
    """||r|| as the pair (max|r|, ||r / max|r|||), whose product it is; the
    second factor lies in [1, sqrt(n)], so ratios of norms stay in range
    where ||r|| itself would underflow or overflow."""
    top = float(np.abs(r).max())
    if top == 0.0:
        return 0.0, 0.0
    return top, float(_norm(r / top))


def _forcing(norm, prev, load=None):
    """Eisenstat-Walker forcing term of a Newton step, the relative residual
    its linear solve needs: min(0.1, 0.9 (||r_k|| / ||r_k-1||)^2) from the
    :func:`_scaled_norm` of this step's and the last step's right-hand
    sides, floored at 1e-12; 0.1 on the first step or after a zero one.
    See Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996) 16-32, choice 2.

    With the :func:`_scaled_norm` of the step's load F(u_k), the term is
    also floored at eps ||F(u_k)|| / ||r_k||, at most 0.1, eps the float64
    machine epsilon: r_k = F(u_k) - K u_k cannot be evaluated below about
    eps ||F(u_k)||, so a linear residual smaller than that is roundoff that
    the next step cannot see (Kelley, Iterative Methods for Linear and
    Nonlinear Equations, SIAM 1995, 6.3, on oversolving).
    """
    if prev is None or prev[0] == 0.0:
        return 0.1
    ratio = norm[0] / prev[0] * (norm[1] / prev[1])
    eta = max(1e-12, min(0.1, 0.9 * ratio * ratio))
    if load is None or norm[0] == 0.0:
        return eta
    floor = load[0] / norm[0] * (load[1] / norm[1])
    return max(eta, min(0.1, float(np.finfo(float).eps) * floor))


def _checked_max(u):
    """max|u|; raises ConvergenceError below float64's smallest normal
    number, where u has lost its digits to underflow (the load is positive,
    so the true u is not zero)."""
    u_max = np.abs(u).max()
    if u_max < np.finfo(float).tiny:
        raise ConvergenceError("the torsion solution underflows float64")
    return u_max


def _torsion_solution(mesh, u, w, residuals, gamma, restarted) -> Solution:
    _checked_max(u)
    return Solution(mesh=mesh, u=u, weight=w, iterations=len(residuals),
                    residuals=tuple(residuals), gamma=gamma,
                    restarted=restarted)


def solve_eigen(mesh, weight=None, tol=1e-12, max_iter=500,
                initial=None) -> Solution:
    """Ground eigenpair by inverse power iteration with Rayleigh quotients.

    Stops when the relative Rayleigh increment drops below tol; the mode is
    returned with exact unit weighted L2 norm and positive sign.  ``initial``
    seeds the iteration (e.g. the mode of a nearby mesh); one with a
    non-finite or no nonzero interior value raises ValueError.  Each step
    solves K y = M x by :func:`cg_solve`, down to a relative residual of
    1e-13, preconditioned as in :func:`solve_torsion`.
    K and the weighted mass matrix M come from the mesh's
    :class:`EdgeOperator`.
    ``weight`` and the input checks are those of :func:`solve_torsion`.
    """
    _check_stopping(tol, max_iter)
    precond = _preconditioner(mesh)
    op = _operator(mesh)
    K, interior = op.K, op.interior
    w = nodal_weight(mesh, weight)
    M = assemble_mass(op, w)

    if initial is None:
        x = np.ones(len(interior))
    else:
        x = np.asarray(initial, dtype=float)[interior].copy()
        if not np.all(np.isfinite(x)):
            raise ValueError("initial eigenvector guess must be finite")
        if float(np.abs(x).max()) == 0.0:
            raise ValueError("initial eigenvector guess is identically zero")
    x /= np.sqrt(float(_dot(x, M @ x)))
    lam = float(_dot(x, K @ x))
    warm = x / lam
    residuals = []
    for it in range(1, max_iter + 1):
        y, _ = cg_solve(K, M @ x, x0=warm, tol=1e-13, precond=precond)
        x = y / np.sqrt(float(_dot(y, M @ y)))
        lam_new = float(_dot(x, K @ x))
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
