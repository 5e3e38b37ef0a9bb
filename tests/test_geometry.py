import math

import numpy as np
import pytest

import torsionlab as tl
from torsionlab import geometry
from torsionlab.errors import DomainError


def test_tau_constants():
    assert tl.flat_tau() == 4 * math.pi
    assert tl.cone_tau(0.5) == pytest.approx(2 * math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        tl.cone_tau(0.0)
    with pytest.raises(ValueError):
        tl.cone_tau(1.3)


def test_gauss_curvature_of_model_warps():
    r = np.linspace(0.3, 1.5, 7)
    assert np.allclose(tl.gauss_curvature(tl.flat_metric(), r), 0.0, atol=1e-14)
    assert np.allclose(tl.gauss_curvature(tl.sphere_metric(), r), 1.0, atol=1e-12)
    assert np.allclose(tl.gauss_curvature(tl.hyperbolic_metric(), r), -1.0,
                       atol=1e-12)
    # outside the smoothing collar the cone is flat
    cone = tl.cone_metric(0.5, eps=0.05)
    assert np.allclose(tl.gauss_curvature(cone, np.array([1.0, 2.0])), 0.0,
                       atol=1e-12)


def test_lengths_and_areas():
    flat = tl.flat_metric()
    assert tl.circle_length(flat, 2.0) == pytest.approx(4 * math.pi)
    assert tl.disk_area(flat, 2.0) == pytest.approx(4 * math.pi)
    sph = tl.sphere_metric()
    # spherical cap area 2*pi*(1 - cos r)
    assert tl.disk_area(sph, 1.0) == pytest.approx(2 * math.pi * (1 - math.cos(1.0)),
                                                   rel=1e-9)
    assert tl.circle_length(sph, math.pi / 2) == pytest.approx(2 * math.pi)


def test_cone_warp_shape():
    cone = tl.cone_metric(0.5, eps=0.05)
    # smooth tip: f ~ r at the origin, f ~ beta*r far out
    assert cone.f(1e-9) / 1e-9 == pytest.approx(1.0, abs=1e-6)
    assert cone.f(3.0) == pytest.approx(1.5, rel=1e-12)
    assert cone.df(3.0) == pytest.approx(0.5, rel=1e-10)


def test_bishop_gromov_verdicts():
    grid = np.linspace(0.5, 3.0, 6)
    for metric in (tl.flat_metric(), tl.cone_metric(0.5), tl.sphere_metric()):
        rep = tl.bishop_gromov_check(metric, grid)
        assert rep.monotone_ok and rep.bound_ok
        assert rep.worst_violation == 0.0
    rep = tl.bishop_gromov_check(tl.hyperbolic_metric(), grid)
    assert not rep.monotone_ok
    assert not rep.bound_ok
    assert rep.worst_violation > 1.0  # sinh(3) - 3


def test_bishop_gromov_grid_validation():
    with pytest.raises(ValueError):
        tl.bishop_gromov_check(tl.flat_metric(), [2.0, 1.0])
    with pytest.raises(ValueError):
        tl.bishop_gromov_check(tl.sphere_metric(), [1.0, 10.0])  # beyond r_max


def test_tau_circle_upper_bound():
    grid = np.linspace(0.5, 2.0, 4)
    flat = tl.tau_circle_upper_bound(tl.flat_metric(), grid)
    assert flat == pytest.approx(4 * math.pi, rel=1e-9)
    # on the sphere L^2/A shrinks with r, so the bound drops below 4*pi
    sph = tl.tau_circle_upper_bound(tl.sphere_metric(), grid)
    assert sph < 4 * math.pi


def test_metric_from_spec_registry():
    assert geometry.metric_from_spec("flat").name == "flat"
    assert geometry.metric_from_spec("sphere").name == "sphere"
    assert geometry.metric_from_spec("hyperbolic").name == "hyperbolic"
    m = geometry.metric_from_spec("cone:0.7:0.1")
    assert m.f(2.0) == pytest.approx(1.4, rel=1e-4)
    for bad in ("flatx", "cone", "cone:0.5:0.1:9", "sphere:1"):
        with pytest.raises(ValueError):
            geometry.metric_from_spec(bad)


def test_user_metric_table(tmp_path):
    r = np.linspace(0.0, 2.0, 41)
    path = tmp_path / "warp.txt"
    np.savetxt(path, np.column_stack([r, np.sin(r)]))
    m = geometry.metric_from_spec(f"user:{path}")
    assert m.f(1.0) == pytest.approx(math.sin(1.0), rel=1e-8)
    assert tl.gauss_curvature(m, 1.0) == pytest.approx(1.0, rel=1e-3)
    # f' and f'' are the spline's own derivatives
    grid = np.linspace(0.2, 1.8, 9)
    np.testing.assert_allclose(m.df(grid), np.cos(grid), atol=1e-5)
    np.testing.assert_allclose(m.d2f(grid), -np.sin(grid), atol=2e-3)
    bad = tmp_path / "bad.txt"
    np.savetxt(bad, np.column_stack([r[::-1], np.sin(r)]))
    with pytest.raises(ValueError):
        geometry.user_metric(str(bad))
    # the quintic spline needs six rows
    short = tmp_path / "short.txt"
    np.savetxt(short, np.column_stack([r[:5], np.sin(r[:5])]))
    with pytest.raises(ValueError, match=">= 6 rows"):
        geometry.user_metric(str(short))


def test_warp_pair_is_warp_and_dwarp():
    # the cone's pair forms exp(-(r/eps)^2) once, and still gives the floats
    # of f and f' written out in full, through the collar (r ~ eps) and out
    # to r_max
    grid = np.concatenate([np.geomspace(1e-9, 0.2, 400),
                           np.linspace(0.2, 64.0, 400)])
    for beta, eps in ((0.5, 0.02), (0.25, 0.05)):
        f, df = tl.cone_metric(beta, eps=eps).warp_pair(grid)
        g = np.exp(-((grid / eps) ** 2))
        assert np.array_equal(f, grid * (beta + (1.0 - beta) * g))
        assert np.array_equal(
            df, beta + (1.0 - beta) * g * (1.0 - 2.0 * grid**2 / eps**2))


def test_tau_value_coercion():
    assert geometry.tau_value(tl.flat_tau()) == 4 * math.pi
    assert geometry.tau_value(2.5) == 2.5
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            geometry.tau_value(bad)


def test_metrics_carry_their_exact_tau():
    assert tl.flat_metric().tau == 4 * math.pi
    assert tl.cone_metric(0.1234567).tau == 4 * math.pi * 0.1234567
    assert tl.cone_metric(0.5, eps=0.02).tau == tl.cone_tau(0.5)
    assert geometry.metric_from_spec("cone:0.25:0.1").tau == math.pi
    for metric in (tl.sphere_metric(), tl.hyperbolic_metric()):
        assert metric.tau is None
    sphere = tl.sphere_metric()
    warps = {"warp_pair": sphere.warp_pair, "d2warp": sphere.d2warp,
             "r_max": 1.0}
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            geometry.RadialMetric(**warps, tau=bad)
    assert geometry.RadialMetric(**warps, tau=3.0).tau == 3.0


def test_radius_check_rejects_nan():
    flat = tl.flat_metric()
    for fn in (tl.disk_area, tl.circle_length, tl.gauss_curvature):
        for bad in (math.nan, np.array([0.5, math.nan]), 0.0, 65.0):
            with pytest.raises(DomainError):
                fn(flat, bad)
    with pytest.raises(DomainError):
        tl.bishop_gromov_check(flat, [0.5, math.nan])


def test_check_gamma():
    # one check for the FEM solver and the radial oracle alike
    assert geometry.check_gamma(0) == 0.0 and geometry.check_gamma("0.5") == 0.5
    for bad in (1.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
            geometry.check_gamma(bad)
    for solve in (lambda g: tl.solve_torsion(tl.mesh_from_spec("disk:1:4"), g),
                  lambda g: tl.shoot_torsion(geometry.flat_metric(), g, 1.0)):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
            solve(1.0)
