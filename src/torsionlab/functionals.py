"""Integral functionals of discrete torsion and eigen solutions.

Everything here is a read-only reduction of a converged solution: the two
forms of the rigidity T (gradient energy and source power), the moment of
u^gamma, boundary fluxes recovered from one-sided P1 gradients, the
isoperimetric ratios, the constrained-minimum constant kappa, and level-set
diagnostics built by polygonal clipping of the P1 interpolant.

The clip is vectorised: the per-triangle quadrature and |grad u| are
computed once per solution, and each level sums the triangles wholly above
it and clips the straddling ones in one batch.  A straddling triangle has
one corner above the level, leaving a corner triangle, or two, leaving a
quadrilateral split into two triangles; both are integrated by the
edge-midpoint rule, and the level flux is the chord length times |grad u|.

Conformal bookkeeping: in two dimensions |grad u|_g^2 dA_g and
|grad u|_g dL_g equal their Euclidean counterparts, so T_grad, flux_L1 and
the level flux are weight-free; dA_g carries e^{2 phi}, dL_g carries
e^{phi}, and |grad u|_g^2 dL_g carries e^{-phi}.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConvergenceError
from .geometry import tau_value
from .mesh import boundary_geometry
from .solver import (_dot, _triangle_gradients, integrate_midpoint,
                     midpoint_values, nodal_weight, p1_gradients)


@dataclasses.dataclass(frozen=True)
class RigidityReport:
    """Both T forms, the u^gamma moment, and the two boundary fluxes."""

    T_grad: float
    T_power: float
    I_gamma: float
    flux_L1: float
    flux_L2: float


def boundary_normal_derivative(mesh, u):
    """Per boundary edge: outward normal derivative of u and the edge length.

    Recovered one-sidedly from the constant gradient of the adjacent
    triangle; for the torsion solution the values are negative.
    """
    grads = _triangle_gradients(mesh, u, mesh.boundary_edge_tri)
    _, normals, lengths = boundary_geometry(mesh)
    return np.einsum("ed,ed->e", grads, normals), lengths


def _boundary_weight(mesh, w_nodal):
    """Nodal metric weight e^{2 phi} averaged onto the boundary edges."""
    return 0.5 * (w_nodal[mesh.boundary_edges[:, 0]]
                  + w_nodal[mesh.boundary_edges[:, 1]])


def area(mesh, weight=None) -> float:
    """Metric area of the meshed domain."""
    w_mid = midpoint_values(mesh, nodal_weight(mesh, weight))
    return integrate_midpoint(mesh, 1.0, w_mid)


def boundary_length(mesh, weight=None) -> float:
    """Metric length of the boundary polygon (dL_g = e^{phi} dL_e)."""
    lengths = boundary_geometry(mesh)[2]
    w_b = _boundary_weight(mesh, nodal_weight(mesh, weight))
    return float(np.sum(lengths * np.sqrt(w_b)))


@np.errstate(over="ignore", invalid="ignore")
def rigidity(solution) -> RigidityReport:
    """All rigidity functionals of a torsion solution in one sweep.

    An identically zero field short-circuits to an all-zero report rather
    than reporting the area as the gamma = 0 moment.  Raises
    ConvergenceError, as ``solve_torsion`` does for a u out of float64
    range, when u is nonzero but either form of T lies outside the normal
    float64 range [tiny, inf), as on a tiny or a huge domain, where T
    scales as r^(4/(1-gamma)); an overflow prints no numpy warning.
    """
    mesh, u, gamma = solution.mesh, solution.u, solution.gamma
    if float(np.abs(u).max()) == 0.0:
        return RigidityReport(0.0, 0.0, 0.0, 0.0, 0.0)
    grads = p1_gradients(mesh, u)
    areas = mesh.triangle_areas()
    T_grad = float(_dot(areas, (grads * grads).sum(axis=1)))

    u_mid = np.maximum(midpoint_values(mesh, u), 0.0)
    w_mid = midpoint_values(mesh, solution.weight)
    T_power = integrate_midpoint(mesh, u_mid ** (1.0 + gamma), w_mid)
    I_gamma = integrate_midpoint(mesh, u_mid ** gamma, w_mid)
    if not all(np.finfo(float).tiny <= T < np.inf for T in (T_grad, T_power)):
        raise ConvergenceError(
            f"rigidity leaves the float64 range: T_grad = {T_grad:.3e}, "
            f"T_power = {T_power:.3e} from a nonzero u")

    dn, lengths = boundary_normal_derivative(mesh, u)
    w_b = _boundary_weight(mesh, solution.weight)
    flux_L1 = float(np.sum(np.abs(dn) * lengths))
    flux_L2 = float(np.sum(dn * dn * lengths / np.sqrt(w_b)))
    return RigidityReport(T_grad=T_grad, T_power=T_power, I_gamma=I_gamma,
                          flux_L1=flux_L1, flux_L2=flux_L2)


def profile_rigidity(profile) -> RigidityReport:
    """RigidityReport from a radial oracle profile (exact identities inside)."""
    f_rim = profile.metric.f(profile.radius)
    slope2 = profile.boundary_slope ** 2
    return RigidityReport(
        T_grad=profile.torsion, T_power=profile.i_one_plus_gamma,
        I_gamma=profile.i_gamma, flux_L1=profile.flux_l1,
        flux_L2=float(2.0 * np.pi * f_rim * slope2),
    )


@dataclasses.dataclass(frozen=True)
class IsoperimetryRatio:
    """lhs = int u^(1+gamma) dA against rhs = ((1+gamma)/(2 tau)) (int u^gamma dA)^2.

    ratio = lhs/rhs is at most 1 when tau is the true isoperimetric
    constant, with equality exactly on flat disks.  The flux variant
    replaces the moment by the boundary flux, which equals it in the
    continuum by the Green identity.
    """

    lhs: float
    rhs: float
    ratio: float
    rhs_flux: float
    ratio_flux: float
    gamma: float
    tau: float


def isoperimetry_ratio(report: RigidityReport, gamma: float,
                       tau) -> IsoperimetryRatio:
    tau_v = tau_value(tau)
    coef = (1.0 + gamma) / (2.0 * tau_v)
    rhs = coef * report.I_gamma ** 2
    rhs_flux = coef * report.flux_L1 ** 2
    if rhs <= 0.0 or rhs_flux <= 0.0:
        raise ValueError("degenerate report: zero moment or flux")
    return IsoperimetryRatio(
        lhs=report.T_power, rhs=rhs, ratio=report.T_power / rhs,
        rhs_flux=rhs_flux, ratio_flux=report.T_power / rhs_flux,
        gamma=float(gamma), tau=tau_v,
    )


@dataclasses.dataclass(frozen=True)
class EigenIsoperimetryRatio:
    """lhs = int u^2 dA against rhs = (lam/tau) (int u dA)^2; ratio <= 1."""

    lhs: float
    rhs: float
    ratio: float
    lam: float
    tau: float


def eigen_isoperimetry_ratio(eig, tau) -> EigenIsoperimetryRatio:
    """Works on a FEM ground mode or a radial oracle eigen profile."""
    tau_v = tau_value(tau)
    if hasattr(eig, "i1"):
        lhs, i1, lam = 1.0, eig.i1, eig.lam
    else:
        u_mid = midpoint_values(eig.mesh, eig.u)
        w_mid = midpoint_values(eig.mesh, eig.weight)
        lhs = integrate_midpoint(eig.mesh, u_mid * u_mid, w_mid)
        i1 = integrate_midpoint(eig.mesh, u_mid, w_mid)
        lam = eig.lam
    rhs = (lam / tau_v) * i1 * i1
    if rhs <= 0.0:
        raise ValueError("degenerate eigen solution: zero mean")
    return EigenIsoperimetryRatio(lhs=lhs, rhs=rhs, ratio=lhs / rhs,
                                  lam=float(lam), tau=tau_v)


def kappa_gamma(report: RigidityReport, gamma: float) -> float:
    """Constrained-minimum constant: T_power^(-(1-gamma)/(1+gamma)).

    Rescaling v = c u with the unit power constraint c^(1+gamma) T = 1
    turns the source into c^(1-gamma) v^gamma, whence the exponent.
    """
    if report.T_power <= 0.0:
        raise ValueError(f"degenerate rigidity T_power={report.T_power}")
    return float(report.T_power ** (-(1.0 - gamma) / (1.0 + gamma)))


# The clipped polygon {u > t} of a triangle with one or two corners above t,
# keyed by the bits of the corners above (corner q adds 2^q).  Its vertices
# index the three corners (0-2) and the level crossings (3-5), crossing 3+q
# lying on the edge from corner q to corner q+1.  They run in the local
# order 0, 1, 2 and the polygon is fanned from its first vertex: a
# quadrilateral (two corners above) is split along the diagonal from that
# vertex, and a corner triangle (one above) repeats its last vertex, so its
# second fan triangle is empty.
_CLIPPED_POLYGON = np.array([
    [0, 0, 0, 0],  # no corner above: never straddles
    [0, 3, 5, 5],  # corner 0
    [3, 1, 4, 4],  # corner 1
    [0, 1, 4, 5],  # corners 0, 1
    [4, 2, 5, 5],  # corner 2
    [0, 3, 4, 2],  # corners 0, 2
    [3, 1, 2, 5],  # corners 1, 2
    [0, 0, 0, 0],  # all corners above: never straddles
])
_NEXT = [1, 2, 0]


def _midpoint_terms(p, u, w, gamma):
    """Edge-midpoint rule on a batch of triangles, u and w linear on each.

    ``p`` holds the vertices on its last two axes (..., 3, 2) and ``u``,
    ``w`` the vertex values (..., 3).  Returns the area terms (area/3) w and
    the moment terms (area/3) w max(u, 0)^gamma at the midpoints of the
    edges (q, q+1), both of shape (..., 3).
    """
    e1 = p[..., 1, :] - p[..., 0, :]
    e2 = p[..., 2, :] - p[..., 0, :]
    cross = e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1]
    third = 0.5 * np.abs(cross) / 3.0
    a = third[..., None] * (0.5 * (w + w[..., _NEXT]))
    return a, a * np.maximum(0.5 * (u + u[..., _NEXT]), 0.0) ** gamma


def _sum_in_order(terms):
    """Sum along the last axis strictly left to right, as a loop adds."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _slicer(solution):
    """t -> superlevel row of ``solution``, see :func:`superlevel_slice`.

    The per-triangle values that do not depend on t are computed here, once:
    the extremes of u, the quadrature of the triangles wholly above a level,
    and |grad u|.  Each level then sums the triangles above it and clips
    only the straddling ones, all at once.  The straddling terms are added
    in triangle order, one at a time, so that the rows equal those of a
    loop over the triangles bit for bit, up to the last bit of u^gamma.
    """
    mesh, u, gamma = solution.mesh, solution.u, solution.gamma
    tris = mesh.triangles
    u_nod = u[tris]
    u_min = u_nod.min(axis=1)
    u_max = u_nod.max(axis=1)
    third = mesh.triangle_areas() / 3.0
    u_mid = np.maximum(midpoint_values(mesh, u), 0.0)
    w_mid = midpoint_values(mesh, solution.weight)
    a_tri = third * w_mid.sum(axis=1)
    i_tri = third * (w_mid * u_mid ** gamma).sum(axis=1)
    grads = p1_gradients(mesh, u)
    grad_norm = np.hypot(grads[:, 0], grads[:, 1])

    def slice_at(t):
        full = u_min > t
        cut = np.flatnonzero(~full & (u_max > t))
        tri = tris[cut]
        pts, vals, wts = mesh.vertices[tri], u[tri], solution.weight[tri]
        above = vals > t
        crossed = above != above[:, _NEXT]
        # the level crossing on edge q, interpolated from corner q to q+1
        s = np.divide(t - vals, vals[:, _NEXT] - vals,
                      out=np.zeros_like(vals), where=crossed)
        cross_p = pts + s[:, :, None] * (pts[:, _NEXT] - pts)
        cross_w = wts + s * (wts[:, _NEXT] - wts)

        poly = _CLIPPED_POLYGON[above @ np.array([1, 2, 4])]
        p6 = np.concatenate([pts, cross_p], axis=1)
        u6 = np.concatenate([vals, np.full_like(vals, t)], axis=1)
        w6 = np.concatenate([wts, cross_w], axis=1)
        # the two fan triangles of each clipped polygon, shape (k, 2, 3)
        fan = (np.arange(len(cut))[:, None, None],
               poly[:, [[0, 1, 2], [0, 2, 3]]])
        a_terms, i_terms = _midpoint_terms(p6[fan], u6[fan], w6[fan], gamma)
        a_cut = _sum_in_order(a_terms.reshape(len(cut), 6))
        i_cut = _sum_in_order(i_terms.reshape(len(cut), 6))
        # the level line crosses exactly two edges of a straddling triangle
        chord = np.diff(cross_p[crossed].reshape(-1, 2, 2), axis=1)[:, 0]
        flux = np.hypot(chord[:, 0], chord[:, 1]) * grad_norm[cut]
        return {"t": float(t),
                "a": float(_sum_in_order(np.r_[a_tri[full].sum(), a_cut])),
                "I": float(_sum_in_order(np.r_[i_tri[full].sum(), i_cut])),
                "flux": float(_sum_in_order(np.r_[0.0, flux]))}

    return slice_at


def superlevel_slice(solution, t: float) -> dict:
    """One row of the level diagnostics: {t, a, I, flux}.

    a = metric area of {u > t}, I = int_{u>t} u^gamma dA_g, flux = metric
    line integral of |grad u| along the level polyline {u = t} (equal to
    its Euclidean value by conformal invariance).  A vertex at exactly t
    counts as below it.
    """
    return _slicer(solution)(t)


def level_set_profile(solution, n_levels: int) -> list:
    """Level diagnostics on a uniform grid of n_levels values in (0, max u)."""
    if n_levels < 2:
        raise ValueError(f"n_levels must be at least 2, got {n_levels}")
    u_max = float(solution.u.max())
    if u_max <= 0.0:
        raise ValueError("solution has no positive values to slice")
    levels = np.linspace(0.0, u_max, n_levels + 2)[1:-1]
    slice_at = _slicer(solution)
    return [slice_at(t) for t in levels]


def level_flux_defect(rows, i_gamma_full: float) -> float:
    """Worst |I(t) - flux(t)| across rows, relative to the full moment."""
    if i_gamma_full <= 0.0:
        raise ValueError("full moment must be positive")
    return max(abs(row["I"] - row["flux"]) for row in rows) / i_gamma_full
