"""Command-line experiments and the acceptance battery.

Every subcommand builds a JSON payload with the same skeleton:

    {"schema_version": 1, "experiment": ..., "inputs": ..., "outputs": ...,
     "verdicts": [...], "pass": bool}

The payload goes to stdout with sorted keys and repr-exact floats, so two
runs with the same inputs produce byte-identical reports.  Wall-clock time
is printed to stderr only; it never enters the payload.  Tabular results
(sweeps, level-set profiles) are written as CSV when --out is given and
--format is csv or both.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 bad usage, 3 the
numerics did not converge, 4 any other exception (a defect in the program),
reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

# radial_oracle is imported inside each subcommand and criterion that
# shoots: its scipy.integrate and scipy.optimize serve no FEM subcommand
from . import conformal, functionals, geometry, shape, solver
from . import mesh as meshmod
from .errors import ConvergenceError, DeformationError, OracleError

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

_J0_SQUARED = geometry.FLAT_DISK_EIGENVALUE


def _py(obj):
    """Recursively convert numpy scalars/arrays so json.dumps can emit them."""
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    return obj


def _rel(value: float, target: float) -> float:
    return abs(value - target) / max(abs(target), 1e-300)


def _check(name: str, measured: float, tolerance: float, ok=None) -> dict:
    """One named verdict; default rule is measured <= tolerance."""
    passed = bool(measured <= tolerance) if ok is None else bool(ok)
    return {"name": name, "measured": float(measured),
            "tolerance": float(tolerance), "pass": passed}


def _monotone(name: str, values, tol: float, increasing: bool = True) -> dict:
    """:func:`conformal.monotonicity_verdict` that ``values`` never fall
    (rise, if not ``increasing``) by over tol * max|values|; measured is the
    worst step; max diff(v) is exactly 0.0 - min diff(-v), signed zeros too."""
    v = np.asarray(values, dtype=float)
    verdict = conformal.monotonicity_verdict(v if increasing else -v, tol)
    worst = verdict["min_forward_diff"]
    return _check(name, -worst if increasing else 0.0 - worst, verdict["tol"])


def _payload(experiment: str, inputs: dict, outputs: dict, verdicts: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "inputs": inputs,
        "outputs": outputs,
        "verdicts": verdicts,
        "pass": all(v["pass"] for v in verdicts),
    }


def _parse_grid(text: str) -> np.ndarray:
    """Grid spec start:stop:count -> linspace, or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:
            raise ValueError("grid needs at least two points")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"grid values must be finite, got {text!r}")
        return np.linspace(start, stop, count)
    values = np.array([float(v) for v in text.split(",") if v.strip()])
    if values.size < 2:
        raise ValueError("grid needs at least two points")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    return values


def _resolve_tau(metric: geometry.RadialMetric, tau_arg, r_grid) -> float:
    """Explicit --tau wins, then the metric's exact constant, then the
    geodesic-circle upper bound on the grid."""
    if tau_arg is not None:
        return geometry.tau_value(tau_arg)
    if metric.tau is not None:
        return metric.tau
    return geometry.tau_circle_upper_bound(metric, r_grid)


def _solver_kwargs(args) -> dict:
    return {"tol": args.tol, "max_iter": args.max_iter}


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (payload, tables, files) where tables maps a
# CSV basename to (header, rows) and files maps a basename to raw text.
# ---------------------------------------------------------------------------


def _cmd_solve(args):
    m = meshmod.mesh_from_spec(args.mesh)
    sol = solver.solve_torsion(m, args.gamma, **_solver_kwargs(args))
    rep = functionals.rigidity(sol)
    outputs = {
        "gamma": args.gamma,
        "T_grad": rep.T_grad,
        "T_power": rep.T_power,
        "I_gamma": rep.I_gamma,
        "flux_L1": rep.flux_L1,
        "flux_L2": rep.flux_L2,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "n_vertices": m.vertices.shape[0],
        "n_triangles": m.triangles.shape[0],
    }
    verdicts = [
        _check("two-form-agreement",
               abs(rep.T_grad - rep.T_power) / max(rep.T_grad, 1e-300), 5e-3),
        _check("newton-converged", sol.residual, args.tol),
    ]
    files = {}
    if args.out:
        lines = [f"{i} {float(u)!r}" for i, u in enumerate(sol.u)]
        files["solution.txt"] = "\n".join(lines) + "\n"
    # Newton has no damping factor; the null key keeps schema-1 reports whole
    inputs = {"mesh": args.mesh, "gamma": args.gamma, "tol": args.tol,
              "max_iter": args.max_iter, "damping": None}
    return _payload("solve", inputs, outputs, verdicts), {}, files


def _cmd_isoperimetry(args):
    m = meshmod.mesh_from_spec(args.mesh)
    tau = geometry.tau_value(geometry.flat_tau() if args.tau is None else args.tau)
    sol = solver.solve_torsion(m, args.gamma, **_solver_kwargs(args))
    rep = functionals.rigidity(sol)
    iso = functionals.isoperimetry_ratio(rep, args.gamma, tau)
    kappa = functionals.kappa_gamma(rep, args.gamma)
    length = functionals.boundary_length(m)
    outputs = {
        "gamma": args.gamma,
        "tau": tau,
        "T_grad": rep.T_grad,
        "T_power": rep.T_power,
        "I_gamma": rep.I_gamma,
        "flux_L1": rep.flux_L1,
        "flux_L2": rep.flux_L2,
        "iso_ratio_eq2": iso.ratio,
        "iso_ratio_eq3": iso.ratio_flux,
        "kappa": kappa,
    }
    verdicts = [
        _check("two-form-agreement",
               abs(rep.T_grad - rep.T_power) / max(rep.T_grad, 1e-300), 5e-3),
        _check("green-identity", _rel(rep.flux_L1, rep.I_gamma), 1e-2),
        _check("isoperimetric-upper-bound", iso.ratio, 1.0 + 1e-2),
        _check("flux-form-agreement", _rel(iso.ratio_flux, iso.ratio), 1.5e-2),
        # Discrete Cauchy-Schwarz: the L1 flux squared never exceeds
        # boundary length times the L2 flux, up to roundoff.
        _check("cauchy-schwarz",
               rep.flux_L1**2 - length * rep.flux_L2,
               1e-12 * max(rep.flux_L1**2, 1.0)),
    ]
    inputs = {"mesh": args.mesh, "gamma": args.gamma, "tau": tau,
              "tol": args.tol, "max_iter": args.max_iter, "damping": None}
    return _payload("isoperimetry", inputs, outputs, verdicts), {}, {}


def _cmd_eigen_isoperimetry(args):
    m = meshmod.mesh_from_spec(args.mesh)
    tau = geometry.tau_value(geometry.flat_tau() if args.tau is None else args.tau)
    eig = solver.solve_eigen(m, tol=args.tol, max_iter=args.max_iter)
    ratio = functionals.eigen_isoperimetry_ratio(eig, tau)
    outputs = {
        "tau": tau,
        "lam": eig.lam,
        "lhs": ratio.lhs,
        "rhs": ratio.rhs,
        "ratio": ratio.ratio,
        "iterations": eig.iterations,
        "residual": eig.residual,
    }
    verdicts = [
        _check("eigen-isoperimetric-upper-bound", ratio.ratio, 1.0 + 1e-2),
        _check("inverse-iteration-converged", eig.residual, args.tol),
    ]
    inputs = {"mesh": args.mesh, "tau": tau, "tol": args.tol,
              "max_iter": args.max_iter}
    return _payload("eigen-isoperimetry", inputs, outputs, verdicts), {}, {}


def _cmd_variation(args):
    if not (math.isfinite(args.tol_rel) and args.tol_rel > 0.0):
        raise ValueError(f"tol-rel must be finite and positive, "
                         f"got {args.tol_rel}")
    # --tol and --max-iter default to those of the solver that runs
    defaults = _EIGEN_SOLVER if args.eigen else _SOLVER
    if args.tol is None:
        args.tol = defaults["tol"]
    if args.max_iter is None:
        args.max_iter = defaults["max-iter"]
    m = meshmod.mesh_from_spec(args.mesh)
    flow = shape.flow_from_spec(args.flow)
    solve_kw = _solver_kwargs(args)
    if args.eigen:
        rep = shape.fd_validate_eigen(m, flow, step=args.h, **solve_kw)
    else:
        rep = shape.fd_validate_torsion(m, args.gamma, flow, step=args.h,
                                        **solve_kw)
    outputs = {
        "kind": rep.kind,
        "flow": rep.flow,
        "analytic": rep.analytic,
        "fd": rep.fd,
        "rel_err": rep.rel_err,
        "step": rep.step,
    }
    verdicts = [_check("analytic-matches-fd", rep.rel_err, args.tol_rel)]
    inputs = {"mesh": args.mesh, "gamma": None if args.eigen else args.gamma,
              "flow": args.flow, "h": args.h, "eigen": args.eigen,
              "tol_rel": args.tol_rel}
    return _payload("variation", inputs, outputs, verdicts), {}, {}


def _cmd_radial(args):
    from . import radial_oracle
    metric = geometry.metric_from_spec(args.metric)
    prof = radial_oracle.shoot_torsion(metric, args.gamma, args.radius)
    outputs = {
        "alpha": prof.alpha,
        "T": prof.torsion,
        "I_gamma": prof.i_gamma,
        "flux": prof.boundary_slope,
        "flux_L1": prof.flux_l1,
        "area": prof.area,
        "length": prof.length,
    }
    verdicts = [
        _check("green-identity", _rel(prof.flux_l1, prof.i_gamma), 1e-6),
    ]
    # The Q sweep is the monotonicity subcommand; its grid and tau inputs
    # stay null here so that schema-1 radial reports keep their keys.
    inputs = {"metric": args.metric, "gamma": args.gamma,
              "radius": args.radius, "grid": None, "tau": None}
    return _payload("radial", inputs, outputs, verdicts), {}, {}


def _cmd_monotonicity(args):
    from . import radial_oracle
    metric = geometry.metric_from_spec(args.metric)
    r_grid = _parse_grid(args.grid)
    tau = _resolve_tau(metric, args.tau, r_grid)
    rows = radial_oracle.sweep_Q(metric, args.gamma, tau, r_grid)
    check = _monotone("Q-nondecreasing", [row["Q"] for row in rows], 1e-9)
    bg = geometry.bishop_gromov_check(metric, r_grid)
    outputs = {
        "tau": tau,
        "rows": rows,
        "min_forward_diff": -check["measured"],
        "bishop_gromov": {
            "monotone_ok": bg.monotone_ok,
            "bound_ok": bg.bound_ok,
            "worst_violation": bg.worst_violation,
        },
    }
    verdicts = [
        check,
        _check("warp-comparison-monotone", 0.0, 0.5, ok=bg.monotone_ok),
        _check("warp-below-flat", 0.0, 0.5, ok=bg.bound_ok),
    ]
    tables = {"sweep.csv": (("r", "T", "Q"),
                            [(row["r"], row["T"], row["Q"]) for row in rows])}
    inputs = {"metric": args.metric, "gamma": args.gamma, "tau": tau,
              "grid": args.grid}
    return _payload("monotonicity", inputs, outputs, verdicts), tables, {}


def _cmd_eigen_monotonicity(args):
    from . import radial_oracle
    metric = geometry.metric_from_spec(args.metric)
    r_grid = _parse_grid(args.grid)
    tau = _resolve_tau(metric, args.tau, r_grid)
    rows = radial_oracle.sweep_eigen_Q(metric, tau, r_grid)
    check = _monotone("Q-nonincreasing", [row["Q"] for row in rows], 1e-9,
                      increasing=False)
    outputs = {"tau": tau, "rows": rows, "max_forward_diff": check["measured"]}
    verdicts = [check]
    tables = {"sweep.csv": (("r", "lam", "Q"),
                            [(row["r"], row["lam"], row["Q"]) for row in rows])}
    inputs = {"metric": args.metric, "tau": tau, "grid": args.grid}
    return _payload("eigen-monotonicity", inputs, outputs, verdicts), tables, {}


def _cmd_schwarz(args):
    cmap = conformal.map_from_spec(args.map)
    r_grid = _parse_grid(args.grid)
    rows = conformal.schwarz_ratio_sweep(cmap, args.gamma, r_grid,
                                         n_rings=args.n_rings, route=args.route)
    phis = np.array([row["Phi"] for row in rows])
    verdict = conformal.monotonicity_verdict(phis)
    limit = conformal.phi_small_r_limit(cmap, args.gamma)
    outputs = {
        "rows": rows,
        "phi_small_r_limit": limit,
        "min_forward_diff": verdict["min_forward_diff"],
        "strictly_increasing": verdict["strict"],
    }
    verdicts = [
        _check("phi-nondecreasing", 0.0, 0.5, ok=verdict["nondecreasing"]),
        _check("phi-small-r-limit", _rel(phis[0], limit), 5e-2),
    ]
    tables = {"sweep.csv": (("r", "T_image", "T_disk", "Phi"),
                            [(row["r"], row["T_image"], row["T_disk"], row["Phi"])
                             for row in rows])}
    inputs = {"map": args.map, "gamma": args.gamma, "grid": args.grid,
              "n_rings": args.n_rings, "route": args.route}
    return _payload("schwarz", inputs, outputs, verdicts), tables, {}


def _cmd_scaling(args):
    from . import radial_oracle
    metric = geometry.metric_from_spec(args.metric)
    if metric.name != "flat":
        raise ValueError("the scaling law is exact only for the flat metric")
    radii = [float(v) for v in args.radii.split(",") if v.strip()]
    if not radii:
        raise ValueError("need at least one radius")
    t_base, *ts = [row["T"] for row in radial_oracle.sweep_Q(
        metric, args.gamma, metric.tau, [args.base_radius, *radii])]
    power = 4.0 / (1.0 - args.gamma)
    rows, worst = [], 0.0
    for r, T in zip(radii, ts):
        predicted = (r / args.base_radius) ** power
        measured = T / t_base
        err = _rel(measured, predicted)
        worst = max(worst, err)
        rows.append({"r": r, "T": T, "ratio": measured,
                     "predicted": predicted, "rel_err": err})
    outputs = {"base_radius": args.base_radius, "T_base": t_base,
               "power": power, "rows": rows, "worst_rel_err": worst}
    verdicts = [_check("scaling-law", worst, 1e-6)]
    tables = {"sweep.csv": (("r", "T", "ratio", "predicted", "rel_err"),
                            [(row["r"], row["T"], row["ratio"],
                              row["predicted"], row["rel_err"]) for row in rows])}
    inputs = {"metric": args.metric, "gamma": args.gamma, "radii": args.radii,
              "base_radius": args.base_radius}
    return _payload("scaling", inputs, outputs, verdicts), tables, {}


def _cmd_levelsets(args):
    m = meshmod.mesh_from_spec(args.mesh)
    sol = solver.solve_torsion(m, args.gamma, **_solver_kwargs(args))
    rep = functionals.rigidity(sol)
    rows = functionals.level_set_profile(sol, n_levels=args.levels)
    defect = functionals.level_flux_defect(rows, rep.I_gamma)
    outputs = {"rows": rows, "flux_defect": defect, "I_gamma": rep.I_gamma}
    verdicts = [
        _check("coarea-flux-defect", defect, 2e-2),
        _monotone("superlevel-area-nonincreasing", [row["a"] for row in rows],
                  1e-12, increasing=False),
        _monotone("superlevel-mass-nonincreasing", [row["I"] for row in rows],
                  1e-12, increasing=False),
    ]
    tables = {"levels.csv": (("t", "a", "I", "flux"),
                             [(row["t"], row["a"], row["I"], row["flux"])
                              for row in rows])}
    inputs = {"mesh": args.mesh, "gamma": args.gamma, "levels": args.levels}
    return _payload("levelsets", inputs, outputs, verdicts), tables, {}


# ---------------------------------------------------------------------------
# Acceptance battery
# ---------------------------------------------------------------------------

# Reference resolutions.  The one-sided boundary-flux recovery carries an
# O(h) bias of roughly (h/2)|u_nn| per edge, so the meshes quoted below are
# sized to keep the Green-identity defect under 1e-2 with margin: the square
# is the worst case (mean |du/dn| is only 1/4 there) and needs nx = 256,
# the disk used for flux-sensitive checks gets 140 rings, the 2:1 ellipse
# 100 rings.  disk:1:60 stays as the pinned coarse reference.
_DISK_SPEC = "disk:1:60"
_FINE_DISK_SPEC = "disk:1:140"
_ELLIPSE_SPEC = "ellipse:1:0.5:100"
_SQUARE_SPEC = "rect:1:1:256:256"
_EIGEN_SQUARE_SPEC = "rect:1:1:64:64"
_VAR_DISK_SPEC = _FINE_DISK_SPEC
_VAR_EIGEN_SPEC = "disk:1:160"
_GAMMAS = (0.0, 0.3, 0.6)
_TAU = 4.0 * math.pi

_REFERENCE_DOMAINS = (
    ("disk", _DISK_SPEC),
    ("fine-disk", _FINE_DISK_SPEC),
    ("ellipse", _ELLIPSE_SPEC),
    ("square", _SQUARE_SPEC),
)


class _Workbench:
    """Caches meshes and solves shared across acceptance criteria.  The
    finite-difference checks and c04's square build meshes of their own,
    which go with their operators and factors when the criterion ends."""

    def __init__(self):
        self._meshes = {}
        self._torsion = {}

    def mesh(self, spec: str) -> meshmod.TriMesh:
        if spec not in self._meshes:
            self._meshes[spec] = meshmod.mesh_from_spec(spec)
        return self._meshes[spec]

    def torsion(self, spec: str, gamma: float):
        key = (spec, gamma)
        if key not in self._torsion:
            sol = solver.solve_torsion(self.mesh(spec), gamma)
            self._torsion[key] = (sol, functionals.rigidity(sol))
        return self._torsion[key]


def _criterion(num: int, title: str, checks: list) -> dict:
    return {"id": f"criterion-{num:02d}", "title": title, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _c01_reference_disk(bench):
    from . import radial_oracle
    prof = radial_oracle.shoot_torsion(geometry.flat_metric(), 0.0, 1.0)
    sol, rep = bench.torsion(_DISK_SPEC, 0.0)
    t_exact = math.pi / 8.0
    checks = [
        _check("oracle-torsion-pi-over-8", _rel(prof.torsion, t_exact), 1e-8),
        _check("oracle-center-one-quarter", _rel(prof.alpha, 0.25), 1e-8),
        _check("fem-torsion-pi-over-8", _rel(rep.T_grad, t_exact), 5e-3),
        _check("fem-center-one-quarter", _rel(sol.u[0], 0.25), 5e-3),
    ]
    return _criterion(1, "flat unit disk anchors", checks)


def _c02_two_form(bench):
    checks = []
    for label, spec in _REFERENCE_DOMAINS:
        for g in _GAMMAS:
            _, rep = bench.torsion(spec, g)
            dev = abs(rep.T_grad - rep.T_power) / max(rep.T_grad, 1e-300)
            checks.append(_check(f"two-form-{label}-gamma-{g:g}", dev, 5e-3))
    return _criterion(2, "gradient and power forms of the torsion agree", checks)


def _c03_isoperimetry(bench):
    checks = []
    for g in _GAMMAS:
        _, rep = bench.torsion(_FINE_DISK_SPEC, g)
        iso = functionals.isoperimetry_ratio(rep, g, _TAU)
        checks.append(_check(f"disk-ratio-near-one-gamma-{g:g}",
                             abs(iso.ratio - 1.0), 1e-2))
        checks.append(_check(f"disk-flux-form-gamma-{g:g}",
                             _rel(iso.ratio_flux, iso.ratio), 1.5e-2))
    for label, spec in (("ellipse", _ELLIPSE_SPEC), ("square", _SQUARE_SPEC)):
        _, rep = bench.torsion(spec, 0.0)
        iso = functionals.isoperimetry_ratio(rep, 0.0, _TAU)
        checks.append(_check(f"{label}-ratio-below-0.99", iso.ratio, 0.99))
    return _criterion(3, "isoperimetric ratio: equality on disks, slack elsewhere",
                      checks)


def _c04_eigen_isoperimetry(bench):
    eig_d = solver.solve_eigen(bench.mesh(_DISK_SPEC))
    ratio_d = functionals.eigen_isoperimetry_ratio(eig_d, _TAU)
    eig_s = solver.solve_eigen(meshmod.mesh_from_spec(_EIGEN_SQUARE_SPEC))
    ratio_s = functionals.eigen_isoperimetry_ratio(eig_s, _TAU)
    checks = [
        _check("disk-eigen-ratio-near-one", abs(ratio_d.ratio - 1.0), 1e-2),
        _check("disk-eigenvalue", _rel(eig_d.lam, _J0_SQUARED), 5e-3),
        _check("square-eigenvalue", _rel(eig_s.lam, 2.0 * math.pi**2), 1e-2),
        _check("square-eigen-ratio-below-one", ratio_s.ratio, 1.0,
               ok=ratio_s.ratio < 1.0),
    ]
    return _criterion(4, "eigenvalue isoperimetry: disk saturates, square does not",
                      checks)


def _c05_green_identity(bench):
    checks = []
    for label, spec in _REFERENCE_DOMAINS:
        for g in _GAMMAS:
            _, rep = bench.torsion(spec, g)
            checks.append(_check(f"green-{label}-gamma-{g:g}",
                                 _rel(rep.flux_L1, rep.I_gamma), 1e-2))
    return _criterion(5, "boundary flux balances the interior source", checks)


def _c06_level_sets(bench):
    sol, rep = bench.torsion(_DISK_SPEC, 0.0)
    rows = functionals.level_set_profile(sol, n_levels=10)
    worst = 0.0
    for row in rows:
        if row["t"] <= 0.2:
            worst = max(worst, _rel(row["a"], math.pi * (1.0 - 4.0 * row["t"])))
    defect = functionals.level_flux_defect(rows, rep.I_gamma)
    checks = [
        _check("superlevel-area-matches-exact", worst, 2e-2),
        _check("level-flux-defect", defect, 2e-2),
    ]
    return _criterion(6, "superlevel geometry of the disk solution", checks)


def _c07_torsion_variation(bench):
    checks = []
    m = bench.mesh(_VAR_DISK_SPEC)
    for g in _GAMMAS:
        rep = shape.fd_validate_torsion(m, g, shape.radial_flow(), step=1e-3)
        checks.append(_check(f"radial-flow-gamma-{g:g}", rep.rel_err, 1e-2))
        if g == 0.0:
            checks.append(_check("radial-flow-analytic-value",
                                 _rel(rep.analytic, math.pi / 2.0), 2e-2))
    ell = meshmod.mesh_from_spec(_ELLIPSE_SPEC)
    rep = shape.fd_validate_torsion(ell, 0.3, shape.stretch_x_flow(), step=1e-3)
    checks.append(_check("stretch-flow-ellipse", rep.rel_err, 2e-2))

    # Tangential fields must not register at all: adding a multiple of the
    # boundary tangent to the velocity leaves the derivative bit-unchanged.
    sol, _ = bench.torsion(_VAR_DISK_SPEC, 0.3)
    vel = shape.boundary_velocity(m, shape.radial_flow())
    tang = shape.boundary_tangents(m)
    d0 = shape.shape_derivative_torsion(sol, vel)
    d1 = shape.shape_derivative_torsion(sol, vel + 0.7 * tang)
    checks.append(_check("tangential-invariance", _rel(d1, d0), 1e-12))
    return _criterion(7, "first variation of the torsion", checks)


def _c08_eigen_variation(bench):
    m = meshmod.mesh_from_spec(_VAR_EIGEN_SPEC)
    rep = shape.fd_validate_eigen(m, shape.radial_flow(), step=1e-3)
    checks = [
        _check("radial-flow-eigen", rep.rel_err, 1e-2),
        _check("radial-flow-eigen-value",
               _rel(rep.analytic, -2.0 * _J0_SQUARED), 1e-2),
    ]
    return _criterion(8, "first variation of the principal eigenvalue", checks)


def _c09_scaling(bench):
    from . import radial_oracle
    flat = geometry.flat_metric()
    checks = []
    for g in _GAMMAS:
        t_base, *ts = [row["T"] for row in radial_oracle.sweep_Q(
            flat, g, flat.tau, [1.0, 0.5, 2.0])]
        power = 4.0 / (1.0 - g)
        for r, T in zip((0.5, 2.0), ts):
            err = _rel(T / t_base, r**power)
            checks.append(_check(f"scaling-gamma-{g:g}-r-{r:g}", err, 1e-6))
    return _criterion(9, "torsion scales with the dilation power", checks)


def _c10_monotonicity(bench):
    from . import radial_oracle
    flat = geometry.flat_metric()
    grid = np.linspace(0.5, 3.0, 6)
    checks = []
    for g in (0.0, 0.5):
        rows = radial_oracle.sweep_Q(flat, g, _TAU, grid)
        qs = np.array([row["Q"] for row in rows])
        spread = float((qs.max() - qs.min()) / qs.max())
        checks.append(_check(f"flat-Q-constant-gamma-{g:g}", spread, 1e-3))
    beta = 0.5
    # eps = 0.02 keeps the tip cap's extra area (~pi*(1-beta)*eps^2) from
    # polluting T at r = 0.5, where the power-law comparison starts
    cone = geometry.cone_metric(beta, eps=0.02)
    rows = radial_oracle.sweep_Q(cone, 0.0, cone.tau, grid)
    qs = np.array([row["Q"] for row in rows])
    checks.append(_monotone("cone-Q-nondecreasing", qs, 1e-9))
    power = 4.0 * (1.0 - beta) / (1.0 - 0.0)
    predicted = (grid / grid[0]) ** power
    dev = np.abs(qs / qs[0] - predicted) / predicted
    checks.append(_check("cone-Q-power-law", float(dev.max()), 2e-2))
    for label, metric in (("flat", flat), ("cone", cone),
                          ("sphere", geometry.sphere_metric())):
        bg = geometry.bishop_gromov_check(metric, grid)
        checks.append(_check(f"warp-comparison-{label}", 0.0, 0.5,
                             ok=bg.monotone_ok and bg.bound_ok))
    bg = geometry.bishop_gromov_check(geometry.hyperbolic_metric(), grid)
    checks.append(_check("warp-comparison-rejects-hyperbolic", 0.0, 0.5,
                         ok=not bg.monotone_ok))
    return _criterion(10, "radial monotonicity of the normalized torsion", checks)


def _c11_eigen_monotonicity(bench):
    from . import radial_oracle
    flat = geometry.flat_metric()
    rows = radial_oracle.sweep_eigen_Q(flat, _TAU, np.array([0.5, 1.0, 2.0]))
    qs = np.array([row["Q"] for row in rows])
    spread = float((qs.max() - qs.min()) / qs.max())
    checks = [_check("flat-lambda-r2-constant", spread, 1e-3)]
    cone = geometry.cone_metric(0.5, eps=0.02)
    rows = radial_oracle.sweep_eigen_Q(cone, cone.tau,
                                       np.array([0.5, 1.0, 2.0, 3.0]))
    checks.append(_monotone("cone-eigen-Q-nonincreasing",
                            [row["Q"] for row in rows], 1e-9, increasing=False))
    return _criterion(11, "radial monotonicity of the normalized eigenvalue",
                      checks)


def _c12_schwarz(bench):
    checks = []
    lin = conformal.linear_map(3.0)
    rows = conformal.schwarz_ratio_sweep(lin, 0.0, np.array([0.2, 0.5, 0.8]),
                                         n_rings=40)
    worst = max(_rel(row["Phi"], 81.0) for row in rows)
    checks.append(_check("linear-map-constant-81", worst, 1e-2))

    quad = conformal.quad_map(0.2)
    grid = np.linspace(0.2, 0.9, 8)
    for g in (0.0, 0.5):
        rows = conformal.schwarz_ratio_sweep(quad, g, grid, n_rings=40)
        phis = np.array([row["Phi"] for row in rows])
        verdict = conformal.monotonicity_verdict(phis)
        checks.append(_check(f"quad-phi-strictly-increasing-gamma-{g:g}",
                             0.0, 0.5, ok=verdict["strict"]))
        limit = conformal.phi_small_r_limit(quad, g)
        checks.append(_check(f"quad-phi-small-r-gamma-{g:g}",
                             _rel(phis[0], limit), 2e-2))
        direct = conformal.rigidity_of_image(quad, float(grid[3]), g,
                                             n_rings=40, route="direct")
        checks.append(_check(f"quad-pullback-vs-direct-gamma-{g:g}",
                             _rel(rows[3]["T_image"], direct), 1e-2))
    return _criterion(12, "distortion ratio under conformal images", checks)


_CRITERIA = (
    _c01_reference_disk,
    _c02_two_form,
    _c03_isoperimetry,
    _c04_eigen_isoperimetry,
    _c05_green_identity,
    _c06_level_sets,
    _c07_torsion_variation,
    _c08_eigen_variation,
    _c09_scaling,
    _c10_monotonicity,
    _c11_eigen_monotonicity,
    _c12_schwarz,
)


def _acceptance_pass() -> list:
    bench = _Workbench()
    return [fn(bench) for fn in _CRITERIA]


def run_acceptance() -> dict:
    """Run every criterion twice and fold the double-run comparison in as the
    final determinism criterion."""
    first = _acceptance_pass()
    second = _acceptance_pass()
    text1 = json.dumps(_py(first), sort_keys=True)
    text2 = json.dumps(_py(second), sort_keys=True)
    identical = text1 == text2
    checks = [_check("double-run-byte-identical", 0.0 if identical else 1.0,
                     0.0)]
    criteria = first + [_criterion(13, "reports are deterministic", checks)]
    inputs = {
        "disk": _DISK_SPEC,
        "fine_disk": _FINE_DISK_SPEC,
        "ellipse": _ELLIPSE_SPEC,
        "square": _SQUARE_SPEC,
        "eigen_square": _EIGEN_SQUARE_SPEC,
        "variation_eigen_disk": _VAR_EIGEN_SPEC,
        "gammas": list(_GAMMAS),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": "acceptance",
        "inputs": inputs,
        "criteria": criteria,
        "pass": all(c["pass"] for c in criteria),
    }


def _cmd_acceptance(args):
    payload = run_acceptance()
    for crit in payload["criteria"]:
        status = "PASS" if crit["pass"] else "FAIL"
        print(f"{crit['id']} {status} - {crit['title']}", file=sys.stderr)
    return payload, {}, {}


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def _params_argv(path: str, options) -> list:
    """The key=value lines of a --params file as option tokens, in file
    order.  ``options`` is the subcommand's option table.  A flag option
    reads 1/true/yes/on as present and 0/false/no/off as absent.  A value
    is checked against its option's type and choices here, so that a bad
    one is reported at its line of the file."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = key.replace("_", "-")
            if flag not in options:
                raise ValueError(f"{where}: unknown parameter {key!r}")
            spec = _OPTIONS[flag]
            if spec.get("action") == "store_true":
                if value.lower() in ("1", "true", "yes", "on"):
                    tokens.append(f"--{flag}")
                elif value.lower() not in ("0", "false", "no", "off"):
                    raise ValueError(f"{where}: cannot read {value!r} as a flag")
                continue
            # argparse (Python 3.11) reads "--flag=--" as an empty list
            if value in ("", "--"):
                raise ValueError(f"{where}: {key} needs a value")
            convert = spec.get("type", str)
            try:
                convert(value)
            except ValueError:
                raise ValueError(f"{where}: {key}: invalid {convert.__name__} "
                                 f"value: {value!r}") from None
            choices = spec.get("choices")
            if choices and value not in choices:
                raise ValueError(f"{where}: {key}: invalid choice: {value!r} "
                                 f"(choose from {', '.join(choices)})")
            tokens.append(f"--{flag}={value}")
    return tokens


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def _emit(args, payload, tables, files):
    text = json.dumps(_py(payload), indent=2, sort_keys=True)
    print(text)
    if not args.out:
        return
    os.makedirs(args.out, exist_ok=True)
    if args.format in ("json", "both"):
        with open(os.path.join(args.out, f"{args.command}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.format in ("csv", "both"):
        for name, (header, rows) in tables.items():
            _write_csv(os.path.join(args.out, name), header, rows)
    for name, content in files.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(content)


# Every option a subcommand may take: flag -> argparse keywords.  Defaults
# differ between subcommands, so each table entry below supplies its own.
_OPTIONS = {
    "mesh": {},
    "metric": {},
    "map": {"help": "linear:a[:b] | quad:c | cubic:c | moebius:c"},
    "gamma": {"type": float},
    "tau": {"type": float,
            "help": "isoperimetric constant (default: 4*pi on meshes; the "
                    "exact value on flat and cone metrics, else the "
                    "geodesic-circle upper bound)"},
    "radius": {"type": float},
    "grid": {"help": "start:stop:count or comma list of radii"},
    "tol": {"type": float,
            "help": "stopping tolerance (default: 1e-10 for a torsion "
                    "solve, 1e-12 for an eigensolve)"},
    "max-iter": {"type": int,
                 "help": "iteration cap (default: 200 for a torsion solve, "
                         "500 for an eigensolve)"},
    "flow": {"help": "radial | translate:dx,dy | stretch-x"},
    "h": {"type": float},
    "eigen": {"action": "store_true",
              "help": "vary the principal eigenvalue instead of the torsion"},
    "tol-rel": {"type": float},
    "n-rings": {"type": int},
    "route": {"choices": ("pullback", "direct")},
    "radii": {},
    "base-radius": {"type": float},
    "levels": {"type": int},
    "out": {"help": "directory for report and table files"},
    "format": {"choices": ("json", "csv", "both"),
               "help": "what to write under --out (stdout is always JSON)"},
    "params": {"help": "key=value file of defaults; options given on the "
                       "command line win"},
}

# Option groups shared by several subcommands: flag -> default.
_TORSION = {"mesh": "disk:1:60", "gamma": 0.0}
_SOLVER = {"tol": 1e-10, "max-iter": 200}
_EIGEN_SOLVER = {"tol": 1e-12, "max-iter": 500}
_COMMON = {"out": None, "format": "json", "params": None}

# One entry per subcommand: name, help, options with defaults, handler.
_SUBCOMMANDS = (
    ("solve", "solve one torsion problem and report its functionals",
     {**_TORSION, **_SOLVER}, _cmd_solve),
    ("isoperimetry", "test the torsion isoperimetric inequality",
     {**_TORSION, "tau": None, **_SOLVER}, _cmd_isoperimetry),
    ("eigen-isoperimetry", "test the eigenvalue form of the inequality",
     {"mesh": "disk:1:60", "tau": None, **_EIGEN_SOLVER},
     _cmd_eigen_isoperimetry),
    ("variation", "compare the boundary-integral first variation against "
                  "finite differences",
     {"mesh": "disk:1:80", "gamma": 0.3, "flow": "radial", "h": 1e-3,
      "eigen": False, "tol-rel": 2e-2, "tol": None, "max-iter": None},
     _cmd_variation),
    ("radial", "radial oracle: one shooting solve on a geodesic disk",
     {"metric": "flat", "gamma": 0.5, "radius": 1.0}, _cmd_radial),
    ("monotonicity", "sweep the normalized torsion along radii",
     {"metric": "cone:0.5", "gamma": 0.0, "tau": None, "grid": "0.5:3:6"},
     _cmd_monotonicity),
    ("eigen-monotonicity", "sweep the normalized eigenvalue along radii",
     {"metric": "cone:0.5", "tau": None, "grid": "0.5:2:4"},
     _cmd_eigen_monotonicity),
    ("schwarz", "sweep the image-to-disk torsion ratio of a conformal map",
     {"map": "quad:0.2", "gamma": 0.5, "grid": "0.2:0.9:8", "n-rings": 40,
      "route": "pullback"}, _cmd_schwarz),
    ("scaling", "check the dilation power law for the torsion",
     {"metric": "flat", "gamma": 0.5, "radii": "0.5,2", "base-radius": 1.0},
     _cmd_scaling),
    ("levelsets", "superlevel areas, masses, and level-line fluxes",
     {**_TORSION, "levels": 10, **_SOLVER}, _cmd_levelsets),
    ("acceptance", "run the full verification battery twice and check "
                   "determinism", {}, _cmd_acceptance),
)

_COMMANDS = {name: handler for name, _, _, handler in _SUBCOMMANDS}
_OPTION_TABLES = {name: {**options, **_COMMON}
                  for name, _, options, _ in _SUBCOMMANDS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsion-lab",
        description="Numerical experiments for the semilinear torsion problem "
                    "on flat, conic, and conformally mapped domains.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="experiment")
    for name, help_text, _, _ in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, default in _OPTION_TABLES[name].items():
            sp.add_argument(f"--{flag}", default=default, **_OPTIONS[flag])
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse argv with the --params file's options ahead of the command
    line's own, so that those win and file values are checked like them."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.params:
        at = argv.index(args.command) + 1
        tokens = _params_argv(args.params, _OPTION_TABLES[args.command])
        args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
    # argparse (Python 3.11) reads "--flag=--" as an empty list
    empty = [flag for flag, value in vars(args).items() if value == []]
    if empty:
        raise ValueError(f"--{empty[0].replace('_', '-')} needs a value")
    if args.format in ("csv", "both") and not args.out:
        raise ValueError("--format csv/both requires --out")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.perf_counter()
    try:
        args = _parse(argv)
        payload, tables, files = _COMMANDS[args.command](args)
        _emit(args, payload, tables, files)
    except (ConvergenceError, OracleError, DeformationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect, not a verdict: keep it off exit 1
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed = time.perf_counter() - started
    print(f"# runtime {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
