"""Domain flows and first variations of T and of the ground eigenvalue.

A flow moves the domain through a velocity field Xi; only its normal
component on the boundary enters the variation formulas:

    dT/dt  = ((1+gamma)/(1-gamma)) * sum_edges (d_nu u)^2 <Xi, nu> dL
    dLam/dt = -sum_edges (d_nu u)^2 <Xi, nu> dL

Both pairings are evaluated in Euclidean boundary quantities; on a
conformal chart the factors e^{phi} of the metric normal derivative,
normal speed and length element cancel exactly, so the same expression is
valid for weighted solves.  Each formula is validated against centered
finite differences of full re-solves on deformed meshes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DeformationError
from .functionals import boundary_normal_derivative, rigidity
from .mesh import boundary_geometry
from .solver import solve_eigen, solve_torsion


@dataclasses.dataclass(frozen=True)
class FlowSpec:
    """Velocity field on the chart."""

    name: str
    velocity: object

    def __call__(self, points):
        return np.asarray(self.velocity(np.asarray(points, dtype=float)),
                          dtype=float)


def _radial_velocity(points):
    # unit outward field x/|x|; the center vertex stays put
    norms = np.hypot(points[:, 0], points[:, 1])
    safe = np.where(norms > 0.0, norms, 1.0)
    return points / safe[:, None]


def radial_flow() -> FlowSpec:
    """Unit-speed normal growth of a centered disk: radius r -> r + t."""
    return FlowSpec(name="radial", velocity=_radial_velocity)


def translate_flow(dx: float, dy: float) -> FlowSpec:
    shift = np.array([float(dx), float(dy)])
    if not np.all(np.isfinite(shift)):
        raise ValueError(f"translation must be finite, got ({dx}, {dy})")
    return FlowSpec(name=f"translate:{dx:g},{dy:g}",
                    velocity=lambda p: np.broadcast_to(shift, p.shape))


def stretch_x_flow() -> FlowSpec:
    """Xi = (x, 0): one-axis dilation with genuinely varying normal speed."""
    return FlowSpec(name="stretch-x",
                    velocity=lambda p: np.column_stack(
                        [p[:, 0], np.zeros(len(p))]))


def flow_from_spec(spec: str) -> FlowSpec:
    """Parse a registry string: radial | translate:dx,dy | stretch-x."""
    if spec == "radial":
        return radial_flow()
    if spec == "stretch-x":
        return stretch_x_flow()
    if spec.startswith("translate:"):
        try:
            dx, dy = spec.split(":", 1)[1].split(",")
            return translate_flow(float(dx), float(dy))
        except ValueError as exc:
            raise ValueError(f"unrecognized flow spec {spec!r}") from exc
    raise ValueError(f"unrecognized flow spec {spec!r}")


def _as_flow(flow) -> FlowSpec:
    if isinstance(flow, FlowSpec):
        return flow
    if isinstance(flow, str):
        return flow_from_spec(flow)
    if callable(flow):
        return FlowSpec(name="custom", velocity=flow)
    raise TypeError(f"flow must be a FlowSpec, name, or callable, got {flow!r}")


def boundary_tangents(mesh) -> np.ndarray:
    """Unit tangent of each boundary edge, in loop orientation."""
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    tangent = b - a
    return tangent / np.hypot(tangent[:, 0], tangent[:, 1])[:, None]


def boundary_velocity(mesh, flow) -> np.ndarray:
    """Velocity vectors at the boundary edge midpoints, shape (E, 2)."""
    if isinstance(flow, np.ndarray):
        if flow.shape != (len(mesh.boundary_edges), 2):
            raise ValueError("velocity array must have one row per boundary edge")
        return flow
    mids = boundary_geometry(mesh)[0]
    return _as_flow(flow)(mids)


def normal_speed(mesh, flow) -> np.ndarray:
    """Normal component <Xi, nu> per boundary edge (at the edge midpoint)."""
    vel = boundary_velocity(mesh, flow)
    normals = boundary_geometry(mesh)[1]
    return np.einsum("ed,ed->e", vel, normals)


def deform_mesh(mesh, flow, t: float):
    """Single forward-Euler transport x -> x + t Xi(x) of all vertices.

    Exact for the radial and linear flows used in the experiments.  Raises
    DeformationError if the motion inverts or degenerates a triangle.
    """
    vel = _as_flow(flow)(mesh.vertices)
    try:
        return mesh.replace_vertices(mesh.vertices + float(t) * vel)
    except ValueError as exc:
        raise DeformationError(f"flow step t={t:g} broke the mesh: {exc}") from exc


def _flux_pairing(solution, flow):
    """sum (d_nu u)^2 <Xi, nu> dL over the boundary edges, and the same sum
    with |<Xi, nu>|, which no cancellation between edges can shrink."""
    dn, lengths = boundary_normal_derivative(solution.mesh, solution.u)
    v = normal_speed(solution.mesh, flow)
    return (float(np.sum(dn * dn * v * lengths)),
            float(np.sum(dn * dn * np.abs(v) * lengths)))


def _torsion_factor(gamma) -> float:
    if gamma >= 1.0:
        raise ValueError("the first-variation factor diverges at gamma = 1")
    return (1.0 + gamma) / (1.0 - gamma)


def shape_derivative_torsion(solution, flow) -> float:
    """First variation of T under the flow.

    ((1+gamma)/(1-gamma)) sum (d_nu u)^2 <Xi, nu> dL over boundary edges,
    with the normal derivative recovered from the adjacent triangle.  The
    flow may also be given as per-edge velocity vectors.
    """
    factor = _torsion_factor(solution.gamma)
    return factor * _flux_pairing(solution, flow)[0]


def shape_derivative_eigen(eig, flow) -> float:
    """First variation of the ground eigenvalue: -sum (d_nu u)^2 <Xi, nu> dL."""
    return -_flux_pairing(eig, flow)[0]


@dataclasses.dataclass(frozen=True)
class VariationReport:
    """Analytic first variation against a centered finite difference."""

    analytic: float
    fd: float
    rel_err: float
    step: float
    flow: str
    kind: str


def _fd_step(mesh, step) -> float:
    """The finite-difference step: ``step`` if given (a negative one gives
    the same centred difference), else 1e-3 of the mesh diameter."""
    if step is not None:
        step = float(step)
        if step == 0.0 or not np.isfinite(step):
            raise ValueError(f"finite-difference step must be finite and "
                             f"nonzero, got {step}")
        return step
    diameter = float(np.hypot(np.ptp(mesh.vertices[:, 0]),
                              np.ptp(mesh.vertices[:, 1])))
    return 1e-3 * diameter


def _relative_error(analytic, fd, h, scale) -> float:
    """|analytic - fd| relative to |fd|, floored at the resolution h^2 scale
    of the centred difference.

    ``scale`` is the boundary integral of the variation taken without
    cancellation, |factor| sum (d_nu u)^2 |<Xi, nu>| dL.  For a rigid motion
    the true derivative is zero and both numbers are roundoff; the floor
    keeps their difference from reading as a relative error of order one.
    """
    return abs(analytic - fd) / max(abs(fd), h * h * scale, 1e-12)


def _fd_check(kind, mesh, flow, step, solve, value, factor_of) -> VariationReport:
    """Centered difference of value(solution) against factor_of(base) times
    the boundary pairing of the base solution.

    ``solve(mesh, **kw)`` runs on the base mesh and on the meshes moved by
    +-h, started from the base solution and preconditioned by the solver
    with the factor of the base's topology: they differ from it by O(h).
    """
    flow = _as_flow(flow)
    h = _fd_step(mesh, step)
    base = solve(mesh)
    factor = factor_of(base)
    pairing, pairing_abs = _flux_pairing(base, flow)
    values = [value(solve(deform_mesh(mesh, flow, sign * h), initial=base.u))
              for sign in (1.0, -1.0)]
    fd = (values[0] - values[1]) / (2.0 * h)
    analytic = factor * pairing
    rel_err = _relative_error(analytic, fd, h, abs(factor) * pairing_abs)
    return VariationReport(analytic=analytic, fd=fd, rel_err=rel_err,
                           step=h, flow=flow.name, kind=kind)


def fd_validate_torsion(mesh, gamma, flow, step=None, weight=None,
                        **solve_kw) -> VariationReport:
    """Centered-difference check of the torsion variation.

    Solves on the base mesh and on both deformed meshes (starting Newton on
    each from the base solution) and compares the gradient-form T
    difference quotient with the boundary formula.  ``weight`` is None or a
    callable, sampled afresh at the vertices of each moved mesh.
    """
    return _fd_check(
        "torsion", mesh, flow, step,
        lambda m, **kw: solve_torsion(m, gamma, weight=weight, **kw, **solve_kw),
        lambda sol: rigidity(sol).T_grad, lambda base: _torsion_factor(base.gamma))


def fd_validate_eigen(mesh, flow, step=None, weight=None,
                      **solve_kw) -> VariationReport:
    """Centered-difference check of the eigenvalue variation; ``solve_kw``
    (tol, max_iter) goes to each :func:`solve_eigen`."""
    return _fd_check("eigen", mesh, flow, step,
                     lambda m, **kw: solve_eigen(m, weight=weight, **kw,
                                                 **solve_kw),
                     lambda sol: sol.lam, lambda base: -1.0)
