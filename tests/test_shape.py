"""Boundary shape derivatives against centered finite differences."""

import math

import numpy as np
import pytest

import torsionlab as tl
from torsionlab import shape, solver
from torsionlab.errors import DeformationError


def test_flow_from_spec():
    assert tl.flow_from_spec("radial").name == "radial"
    assert tl.flow_from_spec("stretch-x").name == "stretch-x"
    fl = tl.flow_from_spec("translate:0.5,-1")
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(fl(pts), [[0.5, -1.0], [0.5, -1.0]])
    with pytest.raises(ValueError):
        tl.flow_from_spec("spiral")
    with pytest.raises(ValueError):
        tl.flow_from_spec("translate:1")


def test_radial_flow_velocity():
    fl = tl.flow_from_spec("radial")
    vel = fl(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, -3.0]]))
    np.testing.assert_allclose(vel, [[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]])


def test_deform_mesh_radial(disk40):
    grown = tl.deform_mesh(disk40, tl.flow_from_spec("radial"), 0.25)
    rb = np.hypot(*grown.vertices[grown.boundary_vertices].T)
    assert rb == pytest.approx(1.25, rel=1e-12)
    # center fixed, h rescaled with the geometry
    assert grown.vertices[0] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert grown.h > disk40.h
    with pytest.raises(DeformationError):
        tl.deform_mesh(disk40, tl.flow_from_spec("radial"), -1.0)


def test_disk_radial_derivative_value(disk40_g0):
    # gamma = 0 unit disk: T(r) = pi r^6 / 8, so dT/dr at r=1 is 6T = 3 pi/4...
    # but with the boundary formula dT = ((1+gamma)/(1-gamma)) (du)^2 L:
    # du = -1/2, L = 2 pi gives dT = pi/2, matching d/dt of the gradient
    # form under unit normal growth (exponent 4/(1-gamma) = 4, dT = 4T = pi/2)
    # one-sided normal-derivative recovery biases (du)^2 by about 2/n
    d = tl.shape_derivative_torsion(disk40_g0, tl.flow_from_spec("radial"))
    assert d == pytest.approx(math.pi / 2, rel=3e-2)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6])
def test_radial_consistency_with_homogeneity(disk40, gamma):
    sol = tl.solve_torsion(disk40, gamma)
    d = tl.shape_derivative_torsion(sol, tl.flow_from_spec("radial"))
    T = tl.rigidity(sol).T_grad
    # T(B_r) = r^(4/(1-gamma)) T(B_1) implies dT = 4 T / (1-gamma) at r = 1
    assert d == pytest.approx(4.0 * T / (1.0 - gamma), rel=3e-2)


def test_translation_invariance(disk40_g03, disk40_eigen):
    for fl in (tl.flow_from_spec("translate:1,0"),
               tl.flow_from_spec("translate:0,1")):
        assert abs(tl.shape_derivative_torsion(disk40_g03, fl)) < 1e-10
        assert abs(tl.shape_derivative_eigen(disk40_eigen, fl)) < 1e-10


def test_tangential_component_exact_zero(disk40_g03):
    # <t, nu> is computed as t_x n_x + t_y n_y with n the rotated tangent,
    # so the tangential field's normal speed cancels in exact arithmetic
    mesh = disk40_g03.mesh
    vel = shape.boundary_velocity(mesh, tl.flow_from_spec("radial"))
    tangents = shape.boundary_tangents(mesh)
    d0 = tl.shape_derivative_torsion(disk40_g03, vel)
    d1 = tl.shape_derivative_torsion(disk40_g03, vel + 0.7 * tangents)
    assert d1 == d0  # bitwise: the tangential part contributes exactly 0.0


def test_eigen_derivative_sign(disk40_eigen):
    # growing the domain lowers the eigenvalue
    d = tl.shape_derivative_eigen(disk40_eigen, tl.flow_from_spec("radial"))
    assert d < 0.0
    # lam(r) = j0^2 / r^2 gives dlam = -2 j0^2 at r = 1; the one-sided
    # flux recovery inflates (du)^2 by roughly 2.4/n on the mode
    assert d == pytest.approx(-2.0 * 5.783185962946785, rel=5e-2)


def test_fd_validate_torsion_small():
    m = tl.build_disk_mesh(1.0, 24)
    rep = tl.fd_validate_torsion(m, 0.3, tl.flow_from_spec("radial"))
    assert rep.kind == "torsion"
    assert rep.flow == "radial"
    # default step: 1e-3 * hypot of the bounding-box extents
    assert rep.step == pytest.approx(1e-3 * math.hypot(2.0, 2.0), rel=1e-6)
    assert rep.rel_err < 5e-2
    assert rep.analytic == pytest.approx(rep.fd, rel=5e-2)


def test_fd_validate_eigen_small():
    m = tl.build_disk_mesh(1.0, 24)
    rep = tl.fd_validate_eigen(m, tl.flow_from_spec("stretch-x"), step=1e-3)
    assert rep.kind == "eigen"
    assert rep.rel_err < 5e-2


def _fd_checks(m):
    return (lambda: tl.fd_validate_torsion(m, 0.3, "radial"),
            lambda: tl.fd_validate_torsion(m, 0.6, "stretch-x",
                                           weight=lambda p: 1.0 + p[:, 0] ** 2),
            lambda: tl.fd_validate_eigen(m, "stretch-x"))


def test_fd_check_factors_once(monkeypatch):
    # with no factor kept, a check factors its base mesh once and the moved
    # copies share it; with the base's factor kept, a check factors nothing
    m = tl.build_disk_mesh(1.0, 16)
    calls, factor = [], solver._factor

    def counting(K):
        calls.append(K.shape)
        return factor(K)

    monkeypatch.setattr(solver, "_factor", counting)
    for check in _fd_checks(m):
        solver._FACTORS.clear()
        calls.clear()
        check()
        assert calls == [(len(m.interior_vertices),) * 2]
        check()
        assert calls == [(len(m.interior_vertices),) * 2]


def test_shared_factor_matches_fresh_factors(monkeypatch):
    # the shared factor only preconditions CG: values match solves that each
    # factor their own mesh, down to the solver tolerances
    m = tl.build_disk_mesh(1.0, 24)
    shared = [check() for check in _fd_checks(m)]
    monkeypatch.setattr(solver, "_preconditioner",
                        lambda mesh: solver._factor(solver._operator(mesh).K))
    fresh = [check() for check in _fd_checks(m)]
    for a, b in zip(shared, fresh):
        assert a.analytic == pytest.approx(b.analytic, rel=1e-10)
        assert a.fd == pytest.approx(b.fd, rel=1e-10)


def test_rigid_translation_fd_verdict():
    # the true derivative is zero: analytic and fd are both roundoff, and
    # the relative error is floored at the resolution of the difference
    m = tl.build_disk_mesh(1.0, 24)
    flow = tl.flow_from_spec("translate:1,0")
    for rep, base in (
            (tl.fd_validate_torsion(m, 0.3, flow), tl.solve_torsion(m, 0.3)),
            (tl.fd_validate_eigen(m, flow), tl.solve_eigen(m))):
        assert rep.rel_err < 2e-2
        scale = shape._flux_pairing(base, flow)[1]
        if rep.kind == "torsion":
            scale *= shape._torsion_factor(base.gamma)
        # a wrong analytic value well above roundoff still fails
        wrong = shape._relative_error(1e-3 * scale, rep.fd, rep.step, scale)
        assert wrong > 2e-2


def test_fd_weightfield_rejected():
    # a callable weight is sampled afresh on each moved mesh ...
    m = tl.build_disk_mesh(1.0, 16)
    rep = tl.fd_validate_torsion(m, 0.0, "radial",
                                 weight=lambda p: np.ones(len(p)))
    assert rep.rel_err < 1e-1
    # ... and validated there: this one vanishes once the rim moves out
    inside = lambda p: np.where(np.hypot(*p.T) <= 1.0 + 1e-12, 1.0, 0.0)
    tl.solve_torsion(m, 0.0, weight=inside)
    with pytest.raises(ValueError):
        tl.fd_validate_torsion(m, 0.0, "radial", weight=inside)
