"""Rigidity functionals, isoperimetric ratios, and level-set diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("spec", ["disk:1:40", "ellipse:1:0.5:30",
                                  "rect:1:2:24:16"])
def test_boundary_normal_derivative_matches_full_gradients(spec):
    # the boundary triangles' gradients alone are those of the whole mesh
    # restricted to them, bit for bit
    mesh = tl.mesh_from_spec(spec)
    u = np.random.default_rng(7).random(len(mesh.vertices))
    dn, lengths = functionals.boundary_normal_derivative(mesh, u)
    grads = solver.p1_gradients(mesh, u)[mesh.boundary_edge_tri]
    _, normals, ref_lengths = tl.boundary_geometry(mesh)
    assert np.array_equal(dn, np.einsum("ed,ed->e", grads, normals))
    assert np.array_equal(lengths, ref_lengths)


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


# Reference for the vectorised clip: the per-triangle loop it replaced,
# clipping one triangle at a time and fanning the clipped polygon from its
# first vertex.

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


def _reference_slice(solution, t):
    """``superlevel_slice`` clipping one straddling triangle at a time."""
    mesh, u, gamma = solution.mesh, solution.u, solution.gamma
    u_nod = u[mesh.triangles]
    full = u_nod.min(axis=1) > t
    straddle = ~full & (u_nod.max(axis=1) > t)
    areas = mesh.triangle_areas()
    u_mid = np.maximum(solver.midpoint_values(mesh, u), 0.0)
    w_mid = solver.midpoint_values(mesh, solution.weight)
    a_val = float(((areas / 3.0) * w_mid.sum(axis=1))[full].sum())
    i_val = float(((areas / 3.0) * (w_mid * u_mid ** gamma)
                   .sum(axis=1))[full].sum())
    flux = 0.0
    grads = solver.p1_gradients(mesh, u)
    for ti in np.nonzero(straddle)[0]:
        tri = mesh.triangles[ti]
        clipped = _clip_above(mesh.vertices[tri], list(u[tri]),
                              list(solution.weight[tri]), t)
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


def _assert_rows_match(rows, ref_rows):
    for key in ("t", "a", "I", "flux"):
        np.testing.assert_allclose([r[key] for r in rows],
                                   [r[key] for r in ref_rows],
                                   rtol=1e-12, atol=0.0)


def _hemisphere(p):
    return 4.0 / (1.0 + (p**2).sum(axis=1)) ** 2


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("spec, weight", [
    ("disk:1:30", None), ("ellipse:1:0.5:20", None),
    ("rect:1:1:16:16", None), ("disk:1:30", _hemisphere)])
def test_level_set_profile_matches_loop(spec, weight, gamma):
    sol = tl.solve_torsion(tl.mesh_from_spec(spec), gamma, weight=weight)
    rows = tl.level_set_profile(sol, 9)
    ref_rows = [_reference_slice(sol, r["t"]) for r in rows]
    _assert_rows_match(rows, ref_rows)
    if gamma == 0.0:  # the same operations in the same order, and u^0 = 1
        assert rows == ref_rows


def _linear_weight(p):
    return 1.0 + p[:, 0] + 2.0 * p[:, 1]


def _triangle_solution(values, gamma=0.6):
    m = tl.TriMesh.from_arrays([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]],
                               [[0, 1, 2]])
    return solver.Solution(mesh=m, u=np.array(values, dtype=float),
                           weight=solver.nodal_weight(m, _linear_weight),
                           iterations=0, residuals=(), gamma=gamma)


@pytest.mark.parametrize("lone", [0, 1, 2])
@pytest.mark.parametrize("values, t", [
    ((1.0, 0.1, 0.25), 0.4),   # lone vertex above t
    ((0.05, 0.8, 0.6), 0.4),   # lone vertex below t: a clipped quadrilateral
])
def test_single_triangle_clip_matches_loop(values, t, lone):
    sol = _triangle_solution(np.roll(values, lone))
    row = functionals.superlevel_slice(sol, t)
    assert row["a"] > 0.0 and row["flux"] > 0.0
    _assert_rows_match([row], [_reference_slice(sol, t)])


@pytest.mark.parametrize("values", [
    (0.5, 0.2, 0.9), (0.9, 0.5, 0.2), (0.5, 0.9, 0.7), (0.5, 0.5, 0.9),
    (0.5, 0.5, 0.5)])
def test_vertex_at_level_counts_below(values):
    sol = _triangle_solution(values)
    row = functionals.superlevel_slice(sol, 0.5)
    _assert_rows_match([row], [_reference_slice(sol, 0.5)])
    if values == (0.5, 0.5, 0.9):  # crossings at corners 0, 1: all of it
        assert row["a"] == pytest.approx(tl.area(sol.mesh, _linear_weight),
                                         rel=1e-14)
    if values == (0.5, 0.5, 0.5):  # nothing lies above
        assert row == {"t": 0.5, "a": 0.0, "I": 0.0, "flux": 0.0}


# Properties that hold exactly for the clipped P1 interpolant, up to roundoff.

SMALL = tl.build_disk_mesh(1.0, 12)
SMALL_SOLUTIONS = {(gamma, weight): tl.solve_torsion(SMALL, gamma, weight)
                   for gamma in (0.0, 0.3, 0.6)
                   for weight in (None, _hemisphere)}
SOLUTION_KEYS = st.sampled_from(sorted(SMALL_SOLUTIONS, key=repr))


@settings(max_examples=40, deadline=None)
@given(key=SOLUTION_KEYS, frac=st.floats(min_value=-0.1, max_value=1.1))
def test_superlevel_and_sublevel_areas_add_up(key, frac):
    sol = SMALL_SOLUTIONS[key]
    t = frac * float(sol.u.max())
    below = solver.Solution(mesh=sol.mesh, u=-sol.u, weight=sol.weight,
                            iterations=0, residuals=(), gamma=sol.gamma)
    total = (functionals.superlevel_slice(sol, t)["a"]
             + functionals.superlevel_slice(below, -t)["a"])
    assert total == pytest.approx(tl.area(SMALL, key[1]), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(key=SOLUTION_KEYS, t=st.floats(min_value=-10.0, max_value=-1e-12))
def test_negative_level_covers_the_domain(key, t):
    sol = SMALL_SOLUTIONS[key]
    row = functionals.superlevel_slice(sol, t)
    assert row["a"] == pytest.approx(tl.area(SMALL, key[1]), rel=1e-12)
    assert row["I"] == pytest.approx(tl.rigidity(sol).I_gamma, rel=1e-12)
    assert row["flux"] == 0.0


@settings(max_examples=40, deadline=None)
@given(key=SOLUTION_KEYS,
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                      max_size=30))
def test_superlevel_area_and_mass_nonincreasing(key, fracs):
    # a(t) integrates the linear weight exactly over nested polygons.  I(t)
    # samples u^gamma at the midpoints of the clipped polygons, and for
    # gamma > 0 it rises by up to ~1e-3 relative as t leaves 0: chord
    # midpoints at u = t replace boundary midpoints at u = 0.  Only at
    # gamma = 0, where I = a, is it monotone exactly.
    sol = SMALL_SOLUTIONS[key]
    rows = [functionals.superlevel_slice(sol, f * float(sol.u.max()))
            for f in sorted(fracs)]
    for name in ("a", "I") if sol.gamma == 0.0 else ("a",):
        vals = np.array([r[name] for r in rows])
        assert np.diff(vals).max() <= 1e-12 * vals.max()
