"""Conformal maps, pullback weights, and the image-torsion ratio sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import conformal, solver
from torsionlab.errors import ConvergenceError, DomainError


def test_map_registry_radii():
    assert tl.map_from_spec("quad:0.8").univalence_radius == pytest.approx(0.625)
    assert tl.map_from_spec("quad:0.3").univalence_radius == pytest.approx(1.0)
    assert tl.map_from_spec("moebius:2").univalence_radius == pytest.approx(0.5)
    assert tl.map_from_spec("cubic:3").univalence_radius == pytest.approx(
        1.0 / math.sqrt(9.0))
    assert tl.map_from_spec("linear:2").univalence_radius == math.inf
    with pytest.raises(ValueError):
        tl.map_from_spec("linear:0")
    with pytest.raises(ValueError):
        tl.map_from_spec("spiral:1")


def test_certify_rejects_colliding_images():
    # z -> z^2 identifies z and -z, which are both on the even polar grid
    with pytest.raises(ValueError, match="images collide"):
        conformal._build("square", lambda z: z * z, lambda z: 2.0 * z, 1.0)


@pytest.mark.parametrize("spec", ["quad:nan", "cubic:inf", "moebius:nan,0",
                                  "linear:1:nan"])
def test_map_with_non_finite_parameter_rejected(spec):
    with pytest.raises(ValueError):
        tl.map_from_spec(spec)


def test_map_param_parsing():
    cm = tl.map_from_spec("quad:0.1,0.2")
    z = np.array([0.5 + 0.0j])
    assert complex(np.asarray(cm.eval(z))[0]) == pytest.approx(
        0.5 + complex(0.1, 0.2) * 0.25)
    shift = tl.map_from_spec("linear:1:3,4")
    assert complex(np.asarray(shift.eval(np.array([0j])))[0]) == pytest.approx(
        complex(3, 4))


def test_pullback_weight(disk40):
    cm = tl.map_from_spec("quad:0.2")
    m = tl.build_disk_mesh(0.5, 10)
    w = tl.pullback_weight(cm)(m.vertices)
    # |f'(z)|^2 = |1 + 2 c z|^2, equals 1 at the center vertex
    assert w[0] == pytest.approx(1.0)
    z = m.vertices[:, 0] + 1j * m.vertices[:, 1]
    np.testing.assert_allclose(w, np.abs(1 + 0.4 * z) ** 2, rtol=1e-12)
    # unit disk reaches the univalence radius of moebius:2
    with pytest.raises(DomainError):
        tl.solve_torsion(disk40, 0.0,
                         weight=tl.pullback_weight(tl.map_from_spec("moebius:2")))


def test_rigidity_of_image_routes_agree():
    cm = tl.map_from_spec("quad:0.2")
    t_pull = tl.rigidity_of_image(cm, 0.5, 0.0, n_rings=24)
    t_direct = tl.rigidity_of_image(cm, 0.5, 0.0, n_rings=24, route="direct")
    assert t_pull == pytest.approx(t_direct, rel=1e-2)
    with pytest.raises(ValueError):
        tl.rigidity_of_image(cm, 0.5, 0.0, route="sideways")
    with pytest.raises(DomainError):
        tl.rigidity_of_image(tl.map_from_spec("moebius:2"), 0.7, 0.0)


def test_linear_map_ratio_constant():
    # f = 2z scales the disk: Phi = 2^(4/(1-gamma)) = 16 at gamma = 0, all r
    rows = tl.schwarz_ratio_sweep(tl.map_from_spec("linear:2"), 0.0,
                                  [0.3, 0.6], n_rings=24)
    assert [set(r) for r in rows] == [{"r", "T_image", "T_disk", "Phi"}] * 2
    for row in rows:
        assert row["Phi"] == pytest.approx(16.0, rel=1e-2)
    assert tl.phi_small_r_limit(tl.map_from_spec("linear:2"), 0.0) == 16.0


def test_schwarz_sweep_validation():
    cm = tl.map_from_spec("quad:0.2")
    with pytest.raises(ValueError):
        tl.schwarz_ratio_sweep(cm, 0.0, [0.5, 0.4])
    with pytest.raises(ValueError):
        tl.schwarz_ratio_sweep(cm, 0.0, [])
    with pytest.raises(DomainError):
        tl.schwarz_ratio_sweep(tl.map_from_spec("moebius:2"), 0.0, [0.2, 0.6])


def test_phi_small_r_limit_values():
    cm = tl.map_from_spec("linear:3")
    assert tl.phi_small_r_limit(cm, 0.0) == pytest.approx(81.0)
    assert tl.phi_small_r_limit(cm, 0.5) == pytest.approx(3.0**8)
    # f'(0) = 1 for the normalized maps
    assert tl.phi_small_r_limit(tl.map_from_spec("quad:0.4"), 0.3) == 1.0


def test_monotonicity_verdict_units():
    up = tl.monotonicity_verdict([1.0, 1.1, 1.25])
    assert up["nondecreasing"] and up["strict"]
    flat = tl.monotonicity_verdict([1.0, 1.0 + 2e-5, 1.0 - 2e-5])
    assert flat["nondecreasing"] and not flat["strict"]
    down = tl.monotonicity_verdict([1.0, 0.9])
    assert not down["nondecreasing"]
    assert down["min_forward_diff"] == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        tl.monotonicity_verdict([1.0])


def test_quad_map_phi_grows(oracle_flat_g0):
    # Phi(r) = 1 + 4 |c|^2 r^2 + O(r^4) for f = z + c z^2; check growth
    # and the leading coefficient on a short grid
    cm = tl.map_from_spec("quad:0.3")
    rows = tl.schwarz_ratio_sweep(cm, 0.0, [0.3, 0.5, 0.7], n_rings=32)
    phi = np.array([row["Phi"] for row in rows])
    verdict = tl.monotonicity_verdict(phi)
    assert verdict["nondecreasing"] and verdict["strict"]
    assert phi[0] == pytest.approx(1.0 + 4 * 0.09 * 0.09, rel=2e-2)
    # T_disk comes from the radial oracle: pi r^4 / 8 at gamma = 0
    assert rows[1]["T_disk"] == pytest.approx(math.pi * 0.5**4 / 8, rel=1e-9)


def test_image_variation_diagnostic():
    # one-sided flux recovery dominates the defect, about 2/n relative
    rep = tl.image_variation_diagnostic(tl.map_from_spec("quad:0.2"), 0.0,
                                        0.5, n_rings=24)
    assert rep.rel_err < 6e-2
    with pytest.raises(DomainError):
        tl.image_variation_diagnostic(tl.map_from_spec("moebius:2"), 0.0, 0.9)


def _image_rigidity_per_radius(cmap, r, gamma, n_rings, route):
    """T(f(B_r)) from a mesh of B_r itself, solved cold: the weighted disk
    for "pullback", the pushed-forward mesh for "direct"."""
    disk = tl.build_disk_mesh(r, n_rings)
    if route == "pullback":
        sol = tl.solve_torsion(disk, gamma, weight=tl.pullback_weight(cmap))
    else:
        sol = tl.solve_torsion(tl.map_mesh(disk, cmap), gamma)
    return tl.rigidity(sol).T_power


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(["linear:2:0.5,1", "quad:0.3", "cubic:0.5",
                             "moebius:0.8,0.3"]),
       gamma=st.floats(min_value=0.0, max_value=0.9),
       fracs=st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2,
                      max_size=5, unique=True),
       n_rings=st.integers(min_value=4, max_value=12),
       route=st.sampled_from(["pullback", "direct"]))
def test_sweep_matches_per_radius_solves(spec, gamma, fracs, n_rings, route):
    # the sweep solves every radius on one unit-disk mesh, warm from the
    # last radius; each T_image is that of B_r's own mesh solved cold
    cmap = tl.map_from_spec(spec)
    radii = min(1.0, cmap.univalence_radius) * np.sort(fracs)
    rows = tl.schwarz_ratio_sweep(cmap, gamma, radii, n_rings=n_rings,
                                  route=route)
    for row in rows:
        ref = _image_rigidity_per_radius(cmap, row["r"], gamma, n_rings, route)
        assert abs(row["T_image"] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("route", ["pullback", "direct"])
def test_sweep_newton_step_budget(route, monkeypatch):
    # warm starts scaled by (r / r_prev)^(2 / (1 - gamma)) take 35 Newton
    # steps over this sweep; solving every radius cold takes 51, so a warm
    # start that fell back to the cold one would break the budget
    steps = []
    solve = conformal.solve_torsion

    def counting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        steps.append(sol.iterations)
        return sol

    monkeypatch.setattr(conformal, "solve_torsion", counting)
    tl.schwarz_ratio_sweep(tl.map_from_spec("quad:0.2"), 0.5,
                           np.linspace(0.2, 0.9, 8), n_rings=40, route=route)
    assert len(steps) == 8
    assert sum(steps) <= 36


@pytest.mark.parametrize("route", ["pullback", "direct"])
def test_sweep_factors_once(route, monkeypatch):
    # every mesh of a sweep is on the unit mesh's topology, so one float32
    # factor preconditions every radius on both routes: the unit mesh's on
    # the pullback route, the first image's on the direct route, which
    # solves nothing on the unit mesh
    factors = []
    factor = solver._factor

    def counting(K):
        factors.append(K)
        return factor(K)

    monkeypatch.setattr(solver, "_factor", counting)
    tl.schwarz_ratio_sweep(tl.map_from_spec("quad:0.2"), 0.5,
                           np.linspace(0.2, 0.9, 8), n_rings=10, route=route)
    assert len(factors) == 1
    tl.rigidity_of_image(tl.map_from_spec("cubic:0.3"), 0.5, 0.0,
                         n_rings=10, route=route)
    assert len(factors) == 2


def test_sweep_start_out_of_range_starts_cold():
    # f = 4000 z at gamma 0.98: u is ~7e151 at r = 0.02, in range, and
    # (0.9 / 0.02)^100 times that at r = 0.9, past float64; the scaled start
    # overflows, the cold start runs and fails as a numerical failure, not
    # as an invalid start guess (ValueError)
    with pytest.raises(ConvergenceError):
        tl.schwarz_ratio_sweep(tl.map_from_spec("linear:4000"), 0.98,
                               [0.02, 0.9], n_rings=4)
