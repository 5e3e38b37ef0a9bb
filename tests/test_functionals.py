"""Rigidity functionals, isoperimetric ratios, and level-set diagnostics."""

import math

import numpy as np
import pytest

import torsionlab as tl
from torsionlab import functionals, solver


def test_rigidity_disk_anchors(disk40_g0):
    rep = tl.rigidity(disk40_g0)
    assert rep.T_grad == pytest.approx(math.pi / 8, rel=5e-3)
    assert rep.T_power == pytest.approx(math.pi / 8, rel=5e-3)
    # gamma = 0 moment is just the area, flux recovers it one-sidedly
    assert rep.I_gamma == pytest.approx(math.pi, rel=5e-3)
    assert rep.flux_L1 == pytest.approx(math.pi, rel=3e-2)
    assert rep.flux_L2 == pytest.approx(math.pi / 2, rel=3e-2)


def test_rigidity_zero_solution(disk40):
    sol = solver.Solution(
        mesh=disk40, u=np.zeros(len(disk40.vertices)),
        weight=solver.nodal_weight(disk40, None), iterations=0,
        residuals=(), gamma=0.3)
    rep = tl.rigidity(sol)
    assert rep == functionals.RigidityReport(0.0, 0.0, 0.0, 0.0, 0.0)


def test_ellipse_closed_form():
    # gamma = 0 on x^2/a^2 + y^2/b^2 < 1 has the exact solution
    # u = (a^2 b^2 / (2 (a^2 + b^2))) (1 - x^2/a^2 - y^2/b^2)
    m = tl.mesh_from_spec("ellipse:1:0.5:60")
    sol = tl.solve_torsion(m, 0.0)
    assert sol.u[0] == pytest.approx(0.1, rel=3e-3)
    rep = tl.rigidity(sol)
    # T = int u = pi a^3 b^3 / (4 (a^2 + b^2)) = pi/40 at a=1, b=0.5
    assert rep.T_grad == pytest.approx(math.pi / 40, rel=5e-3)


def test_isoperimetry_ratio_arithmetic():
    rep = functionals.RigidityReport(
        T_grad=2.0, T_power=2.0, I_gamma=3.0, flux_L1=4.0, flux_L2=1.0)
    iso = tl.isoperimetry_ratio(rep, 0.5, 3.0)
    # rhs = ((1+gamma)/(2 tau)) I^2 = (1.5/6) * 9 = 2.25
    assert iso.rhs == pytest.approx(2.25)
    assert iso.ratio == pytest.approx(2.0 / 2.25)
    assert iso.rhs_flux == pytest.approx(4.0)
    assert iso.ratio_flux == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tl.isoperimetry_ratio(rep, 0.5, -1.0)
    with pytest.raises(ValueError):
        tl.isoperimetry_ratio(
            functionals.RigidityReport(0.0, 0.0, 0.0, 0.0, 0.0), 0.5, 3.0)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_disk_saturates_isoperimetry(disk40, gamma):
    sol = tl.solve_torsion(disk40, gamma)
    iso = tl.isoperimetry_ratio(tl.rigidity(sol), gamma, 4 * math.pi)
    # flat disks are the equality case
    assert iso.ratio == pytest.approx(1.0, abs=2e-2)
    assert iso.ratio <= 1.0 + 2e-2


def test_eigen_isoperimetry_both_routes(disk40_eigen, flat):
    fem = tl.eigen_isoperimetry_ratio(disk40_eigen, 4 * math.pi)
    oracle = tl.eigen_isoperimetry_ratio(tl.shoot_eigen(flat, 1.0), 4 * math.pi)
    assert oracle.ratio == pytest.approx(1.0, rel=1e-8)
    assert fem.ratio == pytest.approx(oracle.ratio, rel=5e-3)
    assert fem.ratio <= 1.0
    with pytest.raises(ValueError):
        tl.eigen_isoperimetry_ratio(disk40_eigen, -2.0)


def test_kappa_gamma(disk40_g0):
    rep = tl.rigidity(disk40_g0)
    # gamma = 0: kappa = 1/T = 8/pi on the unit disk
    assert tl.kappa_gamma(rep, 0.0) == pytest.approx(8 / math.pi, rel=5e-3)
    with pytest.raises(ValueError):
        tl.kappa_gamma(functionals.RigidityReport(0.0, 0.0, 1.0, 1.0, 1.0), 0.3)


def test_flux_cauchy_schwarz_chain(disk40_g03):
    rep = tl.rigidity(disk40_g03)
    length = tl.boundary_length(disk40_g03.mesh)
    # (int |dn u|)^2 <= L * int |dn u|^2, exactly as quadrature sums
    assert rep.flux_L1**2 <= length * rep.flux_L2 * (1 + 1e-12)


def test_boundary_length_weighted(disk40):
    assert tl.boundary_length(disk40) == pytest.approx(2 * math.pi, rel=5e-3)
    # stereographic hemisphere chart: the rim maps to the equator, length 2 pi
    w = lambda p: 4.0 / (1.0 + (p**2).sum(axis=1)) ** 2
    assert tl.boundary_length(disk40, w) == pytest.approx(
        2 * math.pi, rel=5e-3)


def test_level_set_profile_disk(disk40_g0):
    rows = tl.level_set_profile(disk40_g0, 8)
    assert all(set(r) == {"t", "a", "I", "flux"} for r in rows)
    t = np.array([r["t"] for r in rows])
    a = np.array([r["a"] for r in rows])
    # u = (1 - r^2)/4, so {u > t} is the disk of area pi (1 - 4t)
    assert a == pytest.approx(math.pi * (1 - 4 * t), rel=2e-2)
    assert np.all(np.diff(a) < 0.0)
    i_vals = np.array([r["I"] for r in rows])
    assert np.all(np.diff(i_vals) < 0.0)
    rep = tl.rigidity(disk40_g0)
    assert tl.level_flux_defect(rows, rep.I_gamma) < 2e-2


def test_level_set_validation(disk40_g0, disk40):
    with pytest.raises(ValueError):
        tl.level_set_profile(disk40_g0, 1)
    zero = solver.Solution(
        mesh=disk40, u=np.zeros(len(disk40.vertices)),
        weight=solver.nodal_weight(disk40, None), iterations=0,
        residuals=(), gamma=0.0)
    with pytest.raises(ValueError):
        tl.level_set_profile(zero, 5)
    # slicing above the max leaves nothing
    top = functionals.superlevel_slice(disk40_g0, float(disk40_g0.u.max()))
    assert top["a"] == pytest.approx(0.0, abs=1e-12)
    assert top["flux"] == pytest.approx(0.0, abs=1e-12)


def test_level_flux_defect_arithmetic():
    rows = [{"t": 0.1, "a": 1.0, "I": 2.0, "flux": 2.5},
            {"t": 0.2, "a": 0.5, "I": 1.0, "flux": 0.9}]
    assert tl.level_flux_defect(rows, 5.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        tl.level_flux_defect(rows, 0.0)


def test_profile_rigidity_matches_fem(flat, disk40_g03):
    oracle = tl.profile_rigidity(tl.shoot_torsion(flat, 0.3, 1.0))
    fem = tl.rigidity(disk40_g03)
    assert fem.T_grad == pytest.approx(oracle.T_grad, rel=5e-3)
    assert fem.T_power == pytest.approx(oracle.T_power, rel=5e-3)
    assert fem.I_gamma == pytest.approx(oracle.I_gamma, rel=5e-3)
    assert fem.flux_L1 == pytest.approx(oracle.flux_L1, rel=3e-2)
    # oracle report satisfies the continuum identities to ODE accuracy
    assert oracle.flux_L1 == pytest.approx(oracle.I_gamma, rel=1e-9)
    assert oracle.T_grad == pytest.approx(oracle.T_power, rel=1e-9)
