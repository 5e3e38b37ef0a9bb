"""P1 finite elements for the torsion and ground-mode problems.

The Dirichlet energy is conformally invariant in two dimensions, so the
stiffness matrix never sees the metric; only area integrals (mass, load,
energies) carry the conformal weight e^{2 phi}.  The weight is sampled at
the vertices and interpolated to the three edge midpoints of each triangle,
the quadrature points.  That quadrature is exact for quadratics, which
makes the consistent mass matrix and the load vector of a P1 weight agree
row by row: M 1 = F(w).  Both nonlinear loops are deterministic; reruns of
the same inputs produce bit-identical iterates.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

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


def assemble_stiffness(mesh) -> sp.csr_matrix:
    """Unweighted P1 stiffness matrix; K[i,j] = int grad phi_i . grad phi_j."""
    e = _edge_vectors(mesh)
    areas = mesh.triangle_areas()
    n = len(mesh.vertices)
    # K_loc[i, j] = (e_i . e_j) / (4 A)
    kloc = np.einsum("tid,tjd->tij", e, e) / (4.0 * areas)[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_mass(mesh, w_mid) -> sp.csr_matrix:
    """Consistent weighted mass matrix from midpoint quadrature.

    Off-diagonal (i, j) picks up the weight at the midpoint between them,
    the diagonal the two midpoints touching vertex i:
    M_loc[i,j] = A w_k / 12, M_loc[i,i] = A (S - w_i) / 12, S = w_0+w_1+w_2.
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
    n = len(mesh.vertices)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return sp.coo_matrix((mloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def load_vector(mesh, rho_mid) -> np.ndarray:
    """Nodal load F_i = int rho phi_i, rho given at the edge midpoints."""
    areas = mesh.triangle_areas()
    rho = np.asarray(rho_mid, dtype=float)
    s = rho.sum(axis=1)
    floc = (s[:, None] - rho) * (areas / 6.0)[:, None]
    out = np.zeros(len(mesh.vertices))
    np.add.at(out, mesh.triangles.ravel(), floc.ravel())
    return out


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


def cg_solve(A, b, x0=None, tol=1e-12, max_iter=None):
    """Conjugate gradients down to a relative residual, no preconditioner.

    Deterministic and warm-startable; returns (x, iterations).  Raises
    ConvergenceError with the residual history if the cap is hit.
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
    p = r.copy()
    rs = float(r @ r)
    history = []
    for k in range(max_iter):
        rel = np.sqrt(rs) / bnorm
        history.append(rel)
        if rel <= tol:
            return x, k
        Ap = A @ p
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise ConvergenceError(
        f"cg stalled at relative residual {history[-1]:.3e} "
        f"after {max_iter} iterations",
        history=history,
    )


@dataclasses.dataclass(frozen=True)
class Solution:
    """Converged FEM field: a torsion fixed point or a ground mode.

    ``u`` is nodal on the full mesh (zeros on the boundary) and ``weight``
    the nodal metric weight the problem was assembled with; ``w_mid`` is
    its interpolant at the quadrature points.  A torsion solution of
    lap u = -u^gamma carries ``gamma``; a ground mode of lap u = -lam u,
    normalised to unit weighted L2 norm with u > 0 inside, carries ``lam``.
    ``residuals`` holds the increments of the iteration, one per step.
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
                  cg_tol=1e-12, damping=1.0, initial=None) -> Solution:
    """Damped Picard iteration for the semilinear torsion problem.

    Each step solves the linear problem with source max(u, 0)^gamma frozen
    from the previous iterate, starting from the gamma = 0 (linear torsion)
    solution so the iterates stay on the positive branch; the update factor
    falls back to half its starting value if the sup-norm increment ever
    grows.  gamma = 0 converges in one sweep.  ``initial`` warm-starts the
    loop from a nearby solution (boundary values are forced to zero).
    ``weight`` is None or a callable e^{2 phi}, sampled at the vertices by
    :func:`nodal_weight`.  Raises ValueError for gamma outside [0, 1), a
    nonpositive tol, max_iter below 1 or an invalid weight.
    """
    gamma = _check_gamma(gamma)
    _check_stopping(tol, max_iter)
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    interior = mesh.interior_vertices
    if len(interior) == 0:
        raise ValueError("mesh has no interior vertices to solve on")
    K = assemble_stiffness(mesh)[interior][:, interior]
    w = nodal_weight(mesh, weight)
    w_mid = midpoint_values(mesh, w)

    u = np.zeros(len(mesh.vertices))

    def linear_step(u_now, warm):
        rho = np.maximum(midpoint_values(mesh, u_now), 0.0) ** gamma
        F = load_vector(mesh, rho * w_mid)[interior]
        x, _ = cg_solve(K, F, x0=warm, tol=cg_tol)
        return x

    if initial is None:
        # start from the linear (gamma = 0) solve: unit source, not the
        # degenerate 0^gamma load of the zero state
        F0 = load_vector(mesh, np.ones_like(w_mid) * w_mid)[interior]
        u_int, _ = cg_solve(K, F0, x0=None, tol=cg_tol)
    else:
        u_int = np.asarray(initial, dtype=float)[interior].copy()
    u[interior] = u_int
    theta = damping
    residuals = []
    prev = np.inf
    for it in range(1, max_iter + 1):
        u_lin = linear_step(u, u_int)
        res = float(np.abs(u_lin - u_int).max() / max(np.abs(u_lin).max(), 1e-300))
        residuals.append(res)
        if res <= tol:
            u_int = u_lin
            u[interior] = u_int
            return Solution(mesh=mesh, u=u, weight=w, iterations=it,
                            residuals=tuple(residuals), gamma=gamma)
        if res > prev:
            theta = 0.5 * damping
        prev = res
        u_int = (1.0 - theta) * u_int + theta * u_lin
        u[interior] = u_int
    raise ConvergenceError(
        f"picard iteration stalled at increment {residuals[-1]:.3e} "
        f"after {max_iter} iterations (gamma={gamma})",
        history=residuals,
    )


def solve_eigen(mesh, weight=None, tol=1e-12, max_iter=500,
                cg_tol=1e-13, initial=None) -> Solution:
    """Ground eigenpair by inverse power iteration with Rayleigh quotients.

    Stops when the relative Rayleigh increment drops below tol; the mode is
    returned with exact unit weighted L2 norm and positive sign.  ``initial``
    seeds the iteration (e.g. the mode of a nearby mesh).  ``weight`` and
    the input checks are those of :func:`solve_torsion`.
    """
    _check_stopping(tol, max_iter)
    interior = mesh.interior_vertices
    if len(interior) == 0:
        raise ValueError("mesh has no interior vertices to solve on")
    K = assemble_stiffness(mesh)[interior][:, interior]
    w = nodal_weight(mesh, weight)
    M = assemble_mass(mesh, midpoint_values(mesh, w))[interior][:, interior]

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
        y, _ = cg_solve(K, M @ x, x0=warm, tol=cg_tol)
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
