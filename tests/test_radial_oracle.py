"""Shooting solver against closed forms on the flat disk and the hemisphere."""

import math

import numpy as np
import pytest

import torsionlab as tl
from torsionlab.errors import DomainError, OracleError


def test_flat_linear_closed_form(oracle_flat_g0):
    # gamma = 0 on the unit disk: u = (1 - r^2)/4
    prof = oracle_flat_g0
    assert prof.alpha == pytest.approx(0.25, abs=1e-11)
    assert prof.torsion == pytest.approx(math.pi / 8, rel=1e-9)
    assert prof.boundary_slope == pytest.approx(-0.5, rel=1e-9)
    assert prof.i_gamma == pytest.approx(math.pi, rel=1e-9)
    assert prof.flux_l1 == pytest.approx(math.pi, rel=1e-9)
    assert prof.area == pytest.approx(math.pi, rel=1e-10)
    assert prof.length == pytest.approx(2 * math.pi, rel=1e-10)


@pytest.mark.parametrize("gamma", [0.3, 0.7])
def test_flat_torsion_slope_identity(flat, gamma):
    # integrating u'' + u'/r = -u^gamma against f = r twice gives
    # T = (1+gamma) * pi/2 * u'(1)^2 on the unit disk
    prof = tl.shoot_torsion(flat, gamma, 1.0)
    predicted = (1 + gamma) * math.pi / 2 * prof.boundary_slope**2
    assert prof.torsion == pytest.approx(predicted, rel=1e-9)
    # the two faces of the energy agree to the ODE tolerance
    assert prof.torsion == pytest.approx(prof.i_one_plus_gamma, rel=1e-9)
    assert prof.flux_l1 == pytest.approx(prof.i_gamma, rel=1e-9)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9, 0.95])
def test_flat_scaling_law(flat, gamma):
    # the integration tolerance is relative to the centre value, which is
    # ~3.5e-8 at gamma 0.9 on the unit disk
    t1 = tl.shoot_torsion(flat, gamma, 1.0).torsion
    t = {r: tl.shoot_torsion(flat, gamma, r).torsion for r in (0.5, 2.0)}
    for r, tr in t.items():
        assert tr / t1 == pytest.approx(r ** (4.0 / (1.0 - gamma)), rel=1e-11)
    # the cached closed form rides on the same homogeneity
    assert tl.flat_disk_torsion(gamma, 2.0) == pytest.approx(t[2.0], rel=1e-9)
    assert tl.flat_disk_torsion(gamma, 1.0) == pytest.approx(t1, rel=1e-12)


def test_flat_disk_torsion_validation():
    with pytest.raises(ValueError):
        tl.flat_disk_torsion(1.0, 1.0)
    with pytest.raises(ValueError):
        tl.flat_disk_torsion(-0.2, 1.0)
    with pytest.raises(ValueError):
        tl.flat_disk_torsion(0.3, 0.0)


def test_flat_eigenvalue(flat):
    eig = tl.shoot_eigen(flat, 1.0)
    # square of the first zero of J0
    assert eig.lam == pytest.approx(5.783185962946785, rel=1e-9)
    # unit weighted L2 norm and the divergence identity lam * i1 = flux
    assert eig.flux_l1 == pytest.approx(eig.lam * eig.i1, rel=1e-8)
    assert eig.alpha > 0.0


def test_hemisphere_eigenvalue():
    # geodesic hemisphere of S^2: ground mode u = cos(r), lam = 2
    eig = tl.shoot_eigen(tl.sphere_metric(), math.pi / 2)
    assert eig.lam == pytest.approx(2.0, rel=1e-9)
    assert eig.boundary_slope < 0.0


def test_profile_evaluation(oracle_flat_g03):
    prof = oracle_flat_g03
    r = prof.r_nodes
    assert np.all(np.diff(r) > 0.0)
    assert float(prof.value(0.0)) == pytest.approx(prof.alpha, rel=1e-12)
    assert abs(float(prof.value(prof.radius))) < 1e-9
    assert float(prof.slope(prof.radius)) == pytest.approx(
        prof.boundary_slope, rel=1e-10)
    # u decreasing away from the center
    grid = np.linspace(0.0, 1.0, 20)
    vals = prof.value(grid)
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(DomainError):
        prof.value(1.5)
    with pytest.raises(DomainError):
        prof.value(-0.1)


def test_setup_validation(flat):
    with pytest.raises(DomainError):
        tl.shoot_torsion(flat, 0.3, -1.0)
    with pytest.raises(DomainError):
        tl.shoot_torsion(flat, 0.3, 1e9)  # beyond r_max
    with pytest.raises(ValueError):
        tl.shoot_torsion(flat, 1.2, 1.0)
    # hemisphere cap: radius past the equator leaves the chart
    with pytest.raises(DomainError):
        tl.shoot_torsion(tl.sphere_metric(), 0.0, 3.2)
    with pytest.raises(DomainError):
        tl.shoot_torsion(flat, 0.3, math.nan)
    with pytest.raises(DomainError):
        tl.shoot_eigen(flat, math.nan)


def test_sweep_q_flat_constant(flat):
    rows = tl.sweep_Q(flat, 0.3, 4 * math.pi, [0.5, 1.0, 2.0])
    assert [set(row) for row in rows] == [{"r", "T", "Q"}] * 3
    q = np.array([row["Q"] for row in rows])
    assert np.ptp(q) / q[0] < 1e-8
    t = [row["T"] for row in rows]
    assert t == sorted(t)


def test_sweep_eigen_q_flat_constant(flat):
    rows = tl.sweep_eigen_Q(flat, 4 * math.pi, [0.5, 1.0, 2.0])
    assert [set(row) for row in rows] == [{"r", "lam", "Q"}] * 3
    q = np.array([row["Q"] for row in rows])
    assert np.ptp(q) / q[0] < 1e-8
    lam = np.array([row["lam"] for row in rows])
    assert np.all(np.diff(lam) < 0.0)


def test_sweep_tau_validation(flat):
    with pytest.raises(ValueError):
        tl.sweep_Q(flat, 0.3, -1.0, [1.0])
    # gamma = 1 is refused before the exponent tau / (pi (1 - gamma))
    with pytest.raises(ValueError, match="gamma"):
        tl.sweep_Q(flat, 1.0, 4 * math.pi, [1.0])
