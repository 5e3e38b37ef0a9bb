"""Shooting solver against closed forms on the flat disk and the hemisphere."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import torsionlab as tl
from torsionlab import radial_oracle
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
    # r^(4 / (1 - gamma)) underflows, is subnormal, or overflows
    for radius in (0.02, 0.06, 40.0):
        with pytest.raises(tl.OracleError, match="leaves float64 range"):
            tl.flat_disk_torsion(0.98, radius)


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


def test_user_table_shoots_like_the_sphere(tmp_path):
    # a 41-row table of sin, read through its quintic spline, lands every
    # shot and matches the closed-form sphere to about 1e-10
    table = tmp_path / "sin.txt"
    r = np.linspace(0.0, 2.0, 41)
    np.savetxt(table, np.column_stack([r, np.sin(r)]))
    user, sphere = tl.user_metric(str(table)), tl.sphere_metric()
    radii = np.linspace(0.5, 1.9, 5)
    for sweep, key in ((lambda m: tl.sweep_Q(m, 0.0, 1.0, radii), "T"),
                       (lambda m: tl.sweep_Q(m, 0.5, 1.0, radii), "T"),
                       (lambda m: tl.sweep_eigen_Q(m, 1.0, radii), "lam")):
        np.testing.assert_allclose([row[key] for row in sweep(user)],
                                   [row[key] for row in sweep(sphere)],
                                   rtol=5e-10)
    prof = tl.shoot_torsion(user, 0.3, 1.2)
    exact = tl.shoot_torsion(sphere, 0.3, 1.2)
    assert prof.torsion == pytest.approx(exact.torsion, rel=5e-10)
    assert prof.alpha == pytest.approx(exact.alpha, rel=5e-10)


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


def test_landing_check_raises(flat):
    # no shot lands within 1e-300 of zero at the rim
    with pytest.raises(OracleError, match="landed"):
        tl.shoot_torsion(flat, 0.3, 1.0, tol=1e-300)
    with pytest.raises(OracleError, match="landed"):
        tl.shoot_eigen(flat, 1.0, tol=1e-300)


def test_sweep_q_flat_constant(flat):
    rows = tl.sweep_Q(flat, 0.3, 4 * math.pi, [0.5, 1.0, 2.0])
    assert [set(row) for row in rows] == [{"r", "T", "Q"}] * 3
    q = np.array([row["Q"] for row in rows])
    # in s = r / R the flat radii are similarity copies of one another, so
    # Q is constant to roundoff: 1.7e-16 here, 1.5e-14 at gamma 0.95
    assert np.ptp(q) / q[0] < 1e-13
    t = [row["T"] for row in rows]
    assert t == sorted(t)


def test_sweep_eigen_q_flat_constant(flat):
    rows = tl.sweep_eigen_Q(flat, 4 * math.pi, [0.5, 1.0, 2.0])
    assert [set(row) for row in rows] == [{"r", "lam", "Q"}] * 3
    q = np.array([row["Q"] for row in rows])
    # in s = r / R the flat radii are similarity copies, and j_0^2 / R^2
    # starts each search at the same lam R^2: Q is constant to roundoff,
    # 1.5e-16 here
    assert np.ptp(q) / q[0] < 1e-13
    lam = np.array([row["lam"] for row in rows])
    assert np.all(np.diff(lam) < 0.0)


def test_sweep_tau_validation(flat):
    with pytest.raises(ValueError):
        tl.sweep_Q(flat, 0.3, -1.0, [1.0])
    # gamma = 1 is refused before the exponent tau / (pi (1 - gamma))
    with pytest.raises(ValueError, match="gamma"):
        tl.sweep_Q(flat, 1.0, 4 * math.pi, [1.0])


_METRICS = {"flat": tl.flat_metric(), "sphere": tl.sphere_metric(),
            "hyperbolic": tl.hyperbolic_metric()}


@settings(max_examples=12, deadline=None)
@given(spec=st.sampled_from(["flat", "sphere", "hyperbolic", "cone"]),
       beta=st.floats(min_value=0.2, max_value=0.9),
       gamma=st.floats(min_value=0.0, max_value=0.95),
       radii=st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1,
                      max_size=6, unique=True).map(sorted))
def test_sweep_matches_one_radius_shots(spec, beta, gamma, radii):
    # the lockstep sweep and the one-radius shot are the same integrator at
    # tolerances sqrt(n) apart; they differed by at most 2.3e-12 over 150
    # random draws and a grid of these metrics, gamma and radii
    metric = _METRICS.get(spec) or tl.cone_metric(beta, eps=0.02)
    rows = tl.sweep_Q(metric, gamma, 4 * math.pi, radii)
    assert [row["r"] for row in rows] == radii
    for row in rows:
        T = tl.shoot_torsion(metric, gamma, row["r"]).torsion
        assert row["T"] == pytest.approx(T, rel=1e-11, abs=0.0)


@settings(max_examples=12, deadline=None)
@given(spec=st.sampled_from(["flat", "sphere", "hyperbolic", "cone"]),
       beta=st.floats(min_value=0.2, max_value=0.9),
       radii=st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1,
                      max_size=6, unique=True).map(sorted))
def test_eigen_sweep_matches_one_radius_shots(spec, beta, radii):
    # the eigen counterpart of test_sweep_matches_one_radius_shots
    metric = _METRICS.get(spec) or tl.cone_metric(beta, eps=0.02)
    rows = tl.sweep_eigen_Q(metric, 4 * math.pi, radii)
    assert [row["r"] for row in rows] == radii
    for row in rows:
        lam = tl.shoot_eigen(metric, row["r"]).lam
        assert row["lam"] == pytest.approx(lam, rel=1e-11, abs=0.0)


def test_long_sweep_in_batches(flat):
    # 70 radii go out as two lockstep shots; at gamma = 0 the flat T is
    # pi R^4 / 8
    radii = np.linspace(0.1, 3.0, 70)
    rows = tl.sweep_Q(flat, 0.0, 4 * math.pi, radii)
    T = np.array([row["T"] for row in rows])
    assert [row["r"] for row in rows] == list(radii)
    np.testing.assert_allclose(T, math.pi * radii ** 4 / 8.0, rtol=1e-12)


def test_sweep_integration_budget(monkeypatch):
    # one solve_ivp per root-finding round for all six radii, and one final
    # shot: 11 integrations, where one-radius shots took 79
    calls = []
    ivp = radial_oracle.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return ivp(*args, **kwargs)

    monkeypatch.setattr(radial_oracle, "solve_ivp", counted)
    cone = tl.cone_metric(0.5, eps=0.02)
    tl.sweep_Q(cone, 0.5, cone.tau, np.linspace(0.5, 3.0, 6))
    assert len(calls) <= 20


def test_eigen_sweep_integration_budget(monkeypatch):
    # one solve_ivp per search round for all four radii, and one final shot:
    # 12 integrations, where one-radius shots took 65
    calls = []
    ivp = radial_oracle.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return ivp(*args, **kwargs)

    monkeypatch.setattr(radial_oracle, "solve_ivp", counted)
    cone = tl.cone_metric(0.5, eps=0.02)
    tl.sweep_eigen_Q(cone, cone.tau, np.linspace(0.5, 2.0, 4))
    assert len(calls) <= 20


def _drive(search, fn):
    """Run a root-search generator on ``fn``; returns (root, trial points)."""
    points = [next(search)]
    try:
        while True:
            points.append(search.send(fn(points[-1])))
    except StopIteration as done:
        return done.value, points


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                      max_size=3),
       lo=st.floats(min_value=-3.0, max_value=-2.5),
       hi=st.floats(min_value=2.5, max_value=3.0))
def test_brent_generator_is_brentq(roots, lo, hi):
    # step for step scipy's brentq, given the bracket's end values
    def fn(x):
        return float(np.prod([x - r for r in roots]))

    if fn(lo) * fn(hi) >= 0.0:
        return
    seen = []
    search = radial_oracle._brent(lo, fn(lo), hi, fn(hi), "the root")
    try:
        expected = brentq(lambda x: seen.append(x) or fn(x), lo, hi,
                          xtol=1e-300, rtol=radial_oracle._BRENT_RTOL)
    except RuntimeError:  # a root at 0 is out of reach of xtol = 1e-300
        with pytest.raises(OracleError, match="did not converge"):
            _drive(search, fn)
        return
    root, points = _drive(search, fn)
    assert root == expected and points == seen[2:]


def test_center_value_brackets_from_the_guess():
    # u(R; alpha) is increasing in alpha: the guess is halved while the
    # trial lands above zero, doubled while below, and Brent's method takes
    # over on the last bracket
    for guess, root in ((1.0, 0.1), (1.0, 5.0), (0.3, 0.3)):
        found, points = _drive(radial_oracle._center_value(guess),
                               lambda a: a - root)
        assert found == pytest.approx(root, rel=1e-15)
        assert points[0] == guess


@pytest.mark.parametrize("what", ["the torsion center value",
                                  "the ground eigenvalue"])
def test_brent_failure_names_its_root(what):
    # a triple root at 0 is out of reach of xtol = 1e-300
    search = radial_oracle._brent(-3.0, -27.0, 2.5, 15.625, what)
    with pytest.raises(OracleError, match=f"did not converge on {what}$"):
        _drive(search, lambda x: x ** 3)


def test_ground_value_shoots_each_trial_once():
    # zero counts grow with lam as for a Sturm-Liouville ground mode: lo is
    # halved until zero-free, hi doubled until it has a zero, the bracket
    # bisected on the zero count and Brent's method run on the end values;
    # the guess and the bracket ends are not shot again
    def shot(lam):
        return int(lam >= root) + int(lam >= 4.0 * root), root - lam

    for guess, root in ((1.0, 0.1), (1.0, 5.0), (1.0, 1.1), (0.3, 0.3)):
        found, points = _drive(radial_oracle._ground_value(guess), shot)
        assert found == pytest.approx(root, rel=1e-15)
        assert points[0] == guess
        assert len(set(points)) == len(points)


def test_center_value_out_of_range_raises(flat):
    # the flat-law start (R^2/4)^(1/(1-gamma)) underflows here
    with pytest.raises(OracleError, match="float64 range"):
        tl.shoot_torsion(flat, 0.99, 1e-3)
