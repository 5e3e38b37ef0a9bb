"""Integral functionals of discrete torsion and eigen solutions.

Everything here is a read-only reduction of a converged solution: the two
forms of the rigidity T (gradient energy and source power), the moment of
u^gamma, boundary fluxes recovered from one-sided P1 gradients, the
isoperimetric ratios, the constrained-minimum constant kappa, and level-set
diagnostics built by polygonal clipping of the P1 interpolant.

Conformal bookkeeping: in two dimensions |grad u|_g^2 dA_g and
|grad u|_g dL_g equal their Euclidean counterparts, so T_grad, flux_L1 and
the level flux are weight-free; dA_g carries e^{2 phi}, dL_g carries
e^{phi}, and |grad u|_g^2 dL_g carries e^{-phi}.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import tau_value
from .mesh import boundary_geometry
from .solver import (integrate_midpoint, midpoint_values, nodal_weight,
                     p1_gradients, weight_midpoints)


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
    grads = p1_gradients(mesh, u)[mesh.boundary_edge_tri]
    _, normals, lengths = boundary_geometry(mesh)
    return np.einsum("ed,ed->e", grads, normals), lengths


def _boundary_weight(mesh, w_nodal):
    """Nodal metric weight e^{2 phi} averaged onto the boundary edges."""
    return 0.5 * (w_nodal[mesh.boundary_edges[:, 0]]
                  + w_nodal[mesh.boundary_edges[:, 1]])


def area(mesh, weight=None) -> float:
    """Metric area of the meshed domain."""
    w_mid = weight_midpoints(mesh, weight)
    return float((mesh.triangle_areas() / 3.0) @ w_mid.sum(axis=1))


def boundary_length(mesh, weight=None) -> float:
    """Metric length of the boundary polygon (dL_g = e^{phi} dL_e)."""
    lengths = boundary_geometry(mesh)[2]
    w_b = _boundary_weight(mesh, nodal_weight(mesh, weight))
    return float(np.sum(lengths * np.sqrt(w_b)))


def rigidity(solution) -> RigidityReport:
    """All rigidity functionals of a torsion solution in one sweep.

    An identically zero field short-circuits to an all-zero report rather
    than reporting the area as the gamma = 0 moment.
    """
    mesh, u, gamma = solution.mesh, solution.u, solution.gamma
    if float(np.abs(u).max()) == 0.0:
        return RigidityReport(0.0, 0.0, 0.0, 0.0, 0.0)
    grads = p1_gradients(mesh, u)
    areas = mesh.triangle_areas()
    T_grad = float(areas @ (grads * grads).sum(axis=1))

    u_mid = np.maximum(midpoint_values(mesh, u), 0.0)
    T_power = integrate_midpoint(mesh, u_mid ** (1.0 + gamma), solution.w_mid)
    I_gamma = integrate_midpoint(mesh, u_mid ** gamma, solution.w_mid)

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
        lhs = integrate_midpoint(eig.mesh, u_mid * u_mid, eig.w_mid)
        i1 = integrate_midpoint(eig.mesh, u_mid, eig.w_mid)
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


def _clip_above(points, values, w_values, t):
    """Polygon {u > t} of one triangle with u, w interpolated at new vertices.

    Returns (poly_points, poly_u, poly_w, chord) where chord is the pair of
    crossing points of the level line, or None when the triangle does not
    straddle t.
    """
    above = [v > t for v in values]
    n_above = sum(above)
    if n_above == 0:
        return None
    if n_above == 3:
        return points, values, w_values, None
    poly_p, poly_u, poly_w, chord = [], [], [], []
    for i in range(3):
        j = (i + 1) % 3
        if above[i]:
            poly_p.append(points[i])
            poly_u.append(values[i])
            poly_w.append(w_values[i])
        if above[i] != above[j]:
            s = (t - values[i]) / (values[j] - values[i])
            pt = points[i] + s * (points[j] - points[i])
            poly_p.append(pt)
            poly_u.append(t)
            poly_w.append(w_values[i] + s * (w_values[j] - w_values[i]))
            chord.append(pt)
    return np.asarray(poly_p), poly_u, poly_w, (chord[0], chord[1])


def _polygon_quadrature(poly_p, poly_u, poly_w, gamma):
    """(area, moment of u^gamma) over a convex polygon, u and w linear.

    Fan triangulation from vertex 0 with the edge-midpoint rule.
    """
    a_sum = 0.0
    i_sum = 0.0
    p0, u0, w0 = poly_p[0], poly_u[0], poly_w[0]
    for k in range(1, len(poly_p) - 1):
        p1, p2 = poly_p[k], poly_p[k + 1]
        tri_area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                             - (p2[0] - p0[0]) * (p1[1] - p0[1]))
        if tri_area == 0.0:
            continue
        u1, u2 = poly_u[k], poly_u[k + 1]
        mids_u = (0.5 * (u0 + u1), 0.5 * (u1 + u2), 0.5 * (u2 + u0))
        w1, w2 = poly_w[k], poly_w[k + 1]
        mids_w = (0.5 * (w0 + w1), 0.5 * (w1 + w2), 0.5 * (w2 + w0))
        for um, wm in zip(mids_u, mids_w):
            a_sum += tri_area / 3.0 * wm
            i_sum += tri_area / 3.0 * wm * max(um, 0.0) ** gamma
    return a_sum, i_sum


def superlevel_slice(solution, t: float) -> dict:
    """One row of the level diagnostics: {t, a, I, flux}.

    a = metric area of {u > t}, I = int_{u>t} u^gamma dA_g, flux = metric
    line integral of |grad u| along the level polyline {u = t} (equal to
    its Euclidean value by conformal invariance).
    """
    mesh, u, gamma = solution.mesh, solution.u, solution.gamma
    u_nod = u[mesh.triangles]
    u_min = u_nod.min(axis=1)
    u_max = u_nod.max(axis=1)
    full = u_min > t
    straddle = ~full & (u_max > t)

    areas = mesh.triangle_areas()
    u_mid = np.maximum(midpoint_values(mesh, u), 0.0)
    a_tri = (areas / 3.0) * solution.w_mid.sum(axis=1)
    i_tri = (areas / 3.0) * (solution.w_mid * u_mid ** gamma).sum(axis=1)
    a_val = float(a_tri[full].sum())
    i_val = float(i_tri[full].sum())
    flux = 0.0

    grads = p1_gradients(mesh, u)
    verts = mesh.vertices
    for ti in np.nonzero(straddle)[0]:
        tri = mesh.triangles[ti]
        pts = verts[tri]
        vals = u[tri]
        clipped = _clip_above(pts, list(vals), list(solution.weight[tri]), t)
        if clipped is None:
            continue
        poly_p, poly_u, poly_w, chord = clipped
        da, di = _polygon_quadrature(poly_p, poly_u, poly_w, gamma)
        a_val += da
        i_val += di
        if chord is not None:
            seg = chord[1] - chord[0]
            flux += float(np.hypot(seg[0], seg[1])) * float(
                np.hypot(grads[ti, 0], grads[ti, 1]))
    return {"t": float(t), "a": a_val, "I": i_val, "flux": flux}


def level_set_profile(solution, n_levels: int) -> list:
    """Level diagnostics on a uniform grid of n_levels values in (0, max u)."""
    if n_levels < 2:
        raise ValueError(f"n_levels must be at least 2, got {n_levels}")
    u_max = float(solution.u.max())
    if u_max <= 0.0:
        raise ValueError("solution has no positive values to slice")
    levels = np.linspace(0.0, u_max, n_levels + 2)[1:-1]
    return [superlevel_slice(solution, t) for t in levels]


def level_flux_defect(rows, i_gamma_full: float) -> float:
    """Worst |I(t) - flux(t)| across rows, relative to the full moment."""
    if i_gamma_full <= 0.0:
        raise ValueError("full moment must be positive")
    return max(abs(row["I"] - row["flux"]) for row in rows) / i_gamma_full
