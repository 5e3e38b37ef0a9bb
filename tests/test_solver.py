import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import solver
from torsionlab.errors import ConvergenceError


def test_cg_solves_spd_system():
    n = 40
    main = np.full(n, 2.0)
    A = sp.diags([np.full(n - 1, -1.0), main, np.full(n - 1, -1.0)],
                 [-1, 0, 1], format="csr")
    b = np.sin(np.linspace(0, 3, n))
    x, iters = solver.cg_solve(A, b, tol=1e-13)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    x2, iters2 = solver.cg_solve(A, b, x0=x, tol=1e-13)
    assert iters2 <= 1  # warm start from the answer
    z, it0 = solver.cg_solve(A, np.zeros(n))
    assert not z.any() and it0 == 0


def test_cg_raises_on_iteration_starvation():
    n = 400
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                 [-1, 0, 1], format="csr")
    with pytest.raises(ConvergenceError) as err:
        solver.cg_solve(A, np.ones(n), tol=1e-14, max_iter=3)
    assert len(err.value.history) == 3


def test_cg_breakdown_raises_convergence_error():
    # an indefinite matrix with p.Ap = 0 on the first direction
    A = sp.diags([1.0, -1.0], format="csr")
    with pytest.raises(ConvergenceError, match="broke down"):
        solver.cg_solve(A, np.ones(2))
    with pytest.raises(ConvergenceError, match="broke down"):
        solver.cg_solve(sp.identity(2, format="csr"), np.array([1.0, np.nan]))
    # negative curvature, p.Ap < 0 on the first direction (-0.5, as b is
    # scaled to 1/2): CG is for SPD matrices, and on this one it used to run
    # on to a saddle point
    with pytest.raises(ConvergenceError, match=r"p\.Ap = -0\.5") as err:
        solver.cg_solve(sp.diags([1.0, -3.0], format="csr"), np.ones(2))
    assert len(err.value.history) == 1


@pytest.mark.parametrize("n", [5_000, 66_049, 200_000])
def test_dot_agrees_with_blas_and_repeats_bit_for_bit(n):
    # the solver's reductions; sizes past OpenBLAS's 10^4-entry threading
    # threshold, up to the largest meshes of the benchmark and beyond
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    scale = np.abs(a) @ np.abs(b)  # the forward error bound's scale
    assert abs(solver._dot(a, b) - np.dot(a, b)) <= 1e-14 * scale
    assert solver._norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)
    first = solver._dot(a, b)
    assert all(solver._dot(a, b) == first for _ in range(5))
    # nor does the sum depend on where the vectors sit in memory
    shifted = np.empty((2, n + 1))[:, 1:]
    shifted[:] = a, b
    assert solver._dot(*shifted) == first


def _full_rows(m, op, u):
    """Interior rows of the full stiffness matrix times the nodal field u:
    the operator's K u on the interior plus the reference's couplings to
    the boundary times u there."""
    interior, boundary = op.interior, m.boundary_vertices
    K_full = _coo_reference(m, np.ones(m.triangles.shape))[0]
    return op.K @ u[interior] + K_full[interior][:, boundary] @ u[boundary]


def test_stiffness_on_reference_triangle():
    # the reference triangle split at its centroid, the one interior
    # vertex: K = sum |e|^2 / (4 A) over the three opposite edges, A = 1/6
    m = tl.TriMesh.from_arrays(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1 / 3, 1 / 3]]),
        np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]]))
    op = solver.assemble_stiffness(m)
    assert op.K.toarray() == pytest.approx(np.array([[6.0]]), rel=1e-15)
    # constants are in the kernel of the full matrix, whose couplings of
    # the centroid to the corners are -2 each
    assert abs(_full_rows(m, op, np.ones(4))[0]) <= 1e-15


def test_mass_matrix_quadrature_identities():
    m = tl.build_disk_mesh(1.0, 6)
    w = solver.nodal_weight(m, _varying)
    op = solver.assemble_stiffness(m)
    M = solver.assemble_mass(op, w)
    assert (M != M.T).nnz == 0
    # M 1 = F(w): the full rows of M, boundary couplings included, sum to
    # the load, and their total to the weighted area
    M_full = _coo_reference(m, solver.midpoint_values(m, w))[1]
    F = solver.load_vector(op, w)
    rows = M_full @ np.ones(len(m.vertices))
    assert np.abs(rows[op.interior] - F).max() <= 1e-15 * F.max()
    assert rows.sum() == pytest.approx(tl.area(m, _varying), rel=1e-14)
    # M x . x equals the midpoint quadrature of the interpolant squared
    u = np.zeros(len(m.vertices))
    u[op.interior] = np.random.default_rng(7).standard_normal(op.m)
    quad = solver.integrate_midpoint(m, solver.midpoint_values(m, u) ** 2,
                                     solver.midpoint_values(m, w))
    x = u[op.interior]
    assert float(x @ (M @ x)) == pytest.approx(quad, rel=1e-12)


def test_gamma_zero_linear_solve(disk40_g0, oracle_flat_g0):
    sol = disk40_g0
    assert sol.iterations == 1
    assert sol.u[0] == pytest.approx(oracle_flat_g0.alpha, rel=1e-3)
    interior = sol.mesh.interior_vertices
    assert np.all(sol.u[interior] > 0.0)
    assert np.all(sol.u[sol.mesh.boundary_vertices] == 0.0)


def _counting_cg(monkeypatch):
    """Patch solver.cg_solve to append each call's iteration count to the
    list returned; a call that raises counts the residuals it checked."""
    iters = []
    cg = solver.cg_solve

    def counting(*args, **kwargs):
        try:
            x, it = cg(*args, **kwargs)
        except ConvergenceError as err:
            iters.append(len(err.history))
            raise
        iters.append(it)
        return x, it

    monkeypatch.setattr(solver, "cg_solve", counting)
    return iters


def test_gamma_zero_returns_the_linear_solve(disk40, monkeypatch):
    calls = _counting_cg(monkeypatch)
    sol = tl.solve_torsion(disk40, 0.0)
    assert len(calls) == 1
    assert sol.iterations == 1
    # the returned residual is that of the equation, computed as the solver
    # computes it; the independent load of _equation_residual agrees
    op = solver.assemble_stiffness(disk40)
    F0 = solver.load_vector(op, sol.weight)
    res = solver._norm(F0 - op.K @ sol.u[op.interior]) / solver._norm(F0)
    assert sol.residuals == (res,)
    assert _equation_residual(sol) <= 1e-11
    assert sol.residual <= 1e-11
    # a Newton step from the returned start moves it by roundoff only
    stepped = tl.solve_torsion(disk40, 0.0, initial=sol.u)
    assert len(calls) == 2 and stepped.iterations == 1
    assert np.abs(sol.u - stepped.u).max() <= 1e-12 * sol.u.max()
    # a tol below the start's residual still takes that step
    strict = tl.solve_torsion(disk40, 0.0, tol=0.5 * sol.residual)
    assert len(calls) == 4
    assert strict.residuals == stepped.residuals
    assert np.array_equal(strict.u, stepped.u)


def test_newton_matches_oracle_profile(disk40_g03):
    # frozen radial-oracle values, flat gamma=0.3 unit disk
    assert disk40_g03.u[0] == pytest.approx(0.11829895722304683, rel=2e-3)
    assert disk40_g03.residual <= 1e-10
    r = np.hypot(*disk40_g03.mesh.vertices.T)
    ring = np.abs(r - 0.5) < 1e-9
    prof = tl.shoot_torsion(tl.flat_metric(), 0.3, 1.0)
    assert np.allclose(disk40_g03.u[ring], prof.value(0.5), rtol=3e-3)


def test_newton_gamma_06(disk40):
    sol = tl.solve_torsion(disk40, 0.6)
    assert sol.u[0] == pytest.approx(0.01810930539468011, rel=5e-3)
    # genuinely nonlinear regime: several steps, the last ones quadratic
    assert 4 <= sol.iterations <= 10  # damped Picard took 47
    assert sol.residuals[-2] <= sol.residuals[-3] ** 1.5  # quadratic tail


def _equation_residual(sol):
    """||K u - F(u)|| / ||F(u)|| on the interior unknowns."""
    m, interior = sol.mesh, sol.mesh.interior_vertices
    K = solver.assemble_stiffness(m).K
    rho = np.maximum(solver.midpoint_values(m, sol.u), 0.0) ** sol.gamma
    w_mid = solver.midpoint_values(m, sol.weight)
    F = _midpoint_load(m, rho * w_mid)[interior]
    return np.linalg.norm(K @ sol.u[interior] - F) / np.linalg.norm(F)


@pytest.mark.parametrize("gamma, steps", [(0.8, 9), (0.9, 12), (0.95, 17)])
def test_newton_converges_near_gamma_one(gamma, steps):
    # damped Picard needed 106 steps at gamma = 0.8 and stalled at 0.9, 0.95
    m = tl.build_disk_mesh(1.0, 80)
    sol = tl.solve_torsion(m, gamma)
    assert sol.iterations <= steps + 3
    assert sol.residual <= 1e-10
    assert np.all(sol.u[m.interior_vertices] > 0.0)
    assert _equation_residual(sol) <= 1e-9


@pytest.mark.parametrize("radius, gamma", [(5.0, 0.6), (20.0, 0.6), (5.0, 0.9),
                                           (0.2, 0.9), (1e-7, 0.5)])
def test_torsion_scales_with_radius(radius, gamma):
    # u_R(x) = R^(2/(1-gamma)) u_1(x/R) exactly on the scaled mesh.  On a
    # large disk the gamma = 0 start exceeds 1, and an unscaled start left
    # the positive branch and ended at u = 0.  On the small disks u is of
    # order 1e-14 and 1e-28 and Newton's right-hand sides fall below
    # float32 range; the degeneracy test of the mesh is relative to its size
    big = tl.solve_torsion(tl.build_disk_mesh(radius, 24), gamma)
    unit = tl.solve_torsion(tl.build_disk_mesh(1.0, 24), gamma)
    expected = radius ** (2.0 / (1.0 - gamma)) * unit.u
    assert np.abs(big.u - expected).max() <= 1e-8 * expected.max()


def test_gamma_validation(disk40):
    for bad in (-0.1, 1.0, 1.7, float("nan")):
        with pytest.raises(ValueError):
            tl.solve_torsion(disk40, bad)


def test_stopping_validation(disk40):
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            tl.solve_torsion(disk40, 0.3, tol=bad)
        with pytest.raises(ValueError):
            tl.solve_eigen(disk40, tol=bad)
    with pytest.raises(ValueError):
        tl.solve_torsion(disk40, 0.3, max_iter=0)
    with pytest.raises(ValueError):
        tl.solve_eigen(disk40, max_iter=0)


def test_warm_start_cuts_iterations(disk40, disk40_g03):
    cold = disk40_g03.iterations
    warm = tl.solve_torsion(disk40, 0.3, initial=disk40_g03.u)
    assert warm.iterations < cold
    assert not (warm.restarted or disk40_g03.restarted)
    assert np.allclose(warm.u, disk40_g03.u, atol=1e-8)


def test_warm_start_below_the_solution_restarts_cold(monkeypatch):
    # the Schwarz pullback weight r^2 |f'(r y)|^2 of quad:0.2 at gamma 0.5
    # on the unit disk: the r = 0.2 solution lies below the r = 0.3 one,
    # where J is indefinite.  PCG used to grind through 27 Newton steps and
    # 28,469 iterations from it; now u.J u < (1 - gamma) u.K u / 2 there, so
    # the solve starts cold before any linear solve from it
    mesh = tl.build_disk_mesh(1.0, 40)
    base = tl.pullback_weight(tl.map_from_spec("quad:0.2"))

    def weight(r):
        return lambda points: r * r * base(r * points)

    start = tl.solve_torsion(mesh, 0.5, weight=weight(0.2))
    iters = _counting_cg(monkeypatch)
    cold = tl.solve_torsion(mesh, 0.5, weight=weight(0.3))
    assert cold.iterations == 7
    cold_iters = list(iters)
    iters.clear()
    warm = tl.solve_torsion(mesh, 0.5, weight=weight(0.3), initial=start.u)
    assert warm.iterations == 7
    assert iters == cold_iters and sum(iters) <= 40
    assert np.array_equal(warm.u, cold.u)
    assert warm.restarted and not cold.restarted


def test_warm_start_breaking_down_restarts_cold(disk40, monkeypatch):
    # u* scaled by 1e-6 on the half x <= 0: u.J u passes the start check,
    # but J is indefinite on that half, the first PCG iteration breaks down
    # and the cold start takes over
    init = np.where(disk40.vertices[:, 0] > 0.0, 1.0, 1e-6)
    iters = _counting_cg(monkeypatch)
    cold = tl.solve_torsion(disk40, 0.5)
    cold_iters = list(iters)
    iters.clear()
    warm = tl.solve_torsion(disk40, 0.5, initial=init * cold.u)
    assert iters == [1] + cold_iters
    assert np.array_equal(warm.u, cold.u)
    assert warm.restarted and not cold.restarted


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(("disk:1:{}", "ellipse:1:0.5:{}", "rect:1:1:{}:{}")),
       n=st.integers(min_value=3, max_value=16),
       gamma=st.floats(min_value=0.0, max_value=0.95),
       c=st.floats(min_value=1e-6, max_value=1.0),
       a=st.none() | st.floats(min_value=0.0, max_value=0.9))
# J(c u*) is singular along u* at c = gamma^(1/(1-gamma)): these two starts
# on that line took 2 and 4 linear solves more than the cold start before
# the start check
@example(kind="disk:1:{}", n=7, gamma=1e-6, c=1e-6, a=None)
@example(kind="disk:1:{}", n=16, gamma=0.5607196725956207,
         c=0.26793669159732897, a=0.4314965694489284)
def test_warm_starts_below_the_solution_converge(kind, n, gamma, c, a):
    # from c u*, below the solution u*, Newton converges to u* with at most
    # one linear solve more than the cold start.  Measured over 1,500 random
    # draws of these meshes and weights, gamma down to 1e-8 and c
    # log-uniform down to 1e-6, on and within 1e-12..1 of the singular line
    # above: the excess was 1 in 43 draws and never more
    m = tl.mesh_from_spec(kind.format(n, n))
    weight = None if a is None else (
        lambda p: 1.0 + a * np.sin(2.0 * p[:, 0]) * np.cos(3.0 * p[:, 1]))
    with pytest.MonkeyPatch.context() as mp:
        solves = _counting_cg(mp)
        cold = tl.solve_torsion(m, gamma, weight=weight)
        cold_solves = len(solves)
        solves.clear()
        warm = tl.solve_torsion(m, gamma, weight=weight, initial=c * cold.u)
    assert len(solves) <= cold_solves + 1
    assert np.abs(warm.u - cold.u).max() <= 1e-8 * cold.u.max()


def test_convergence_error_carries_history(disk40):
    with pytest.raises(ConvergenceError) as err:
        tl.solve_torsion(disk40, 0.6, max_iter=3)
    assert len(err.value.history) == 3


def test_solution_convergence_order():
    errs = []
    for n in (10, 20, 40):
        m = tl.build_disk_mesh(1.0, n)
        rep = tl.rigidity(tl.solve_torsion(m, 0.0))
        errs.append(abs(rep.T_grad - math.pi / 8) / (math.pi / 8))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) > 1.8  # T converges at second order


def test_eigen_disk(disk40_eigen):
    eig = disk40_eigen
    # j0^2, first Dirichlet eigenvalue of the unit disk
    assert eig.lam == pytest.approx(5.783185962946785, rel=1e-3)
    interior = eig.mesh.interior_vertices
    assert np.all(eig.u[interior] > 0.0)
    u_mid = solver.midpoint_values(eig.mesh, eig.u)
    w_mid = solver.midpoint_values(eig.mesh, eig.weight)
    norm = solver.integrate_midpoint(eig.mesh, u_mid * u_mid, w_mid)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_eigen_square():
    m = tl.build_rectangle_mesh(1.0, 1.0, 24, 24)
    eig = tl.solve_eigen(m)
    assert eig.lam == pytest.approx(2 * math.pi**2, rel=5e-3)


def test_hemisphere_chart_cross_checks(disk40):
    """Stereographic chart of the hemisphere: weight 4/(1+|x|^2)^2 on the
    unit disk reproduces geodesic-ball results from the radial oracle."""
    w = lambda p: 4.0 / (1.0 + (p**2).sum(axis=1)) ** 2
    eig = tl.solve_eigen(disk40, weight=w)
    assert eig.lam == pytest.approx(2.0, rel=2e-3)  # oracle: 2.0000000000006635
    sol = tl.solve_torsion(disk40, 0.3, weight=w)
    rep = tl.rigidity(sol)
    # frozen oracle values for the geodesic half-sphere, gamma = 0.3
    assert rep.T_grad == pytest.approx(1.2644371319706278, rel=5e-3)
    assert sol.u[0] == pytest.approx(0.5160832422455011, rel=5e-3)


# Properties of the one weight path: None or a callable sampled at the
# vertices.

DISK = tl.build_disk_mesh(1.0, 12)
GAMMAS = st.sampled_from((0.0, 0.3, 0.6))
CONSTANTS = st.floats(min_value=0.1, max_value=10.0)


def _constant(c):
    return lambda points: np.full(len(points), c)


@settings(max_examples=15, deadline=None)
@given(gamma=GAMMAS, c=CONSTANTS)
def test_constant_weight_scales_torsion(gamma, c):
    # lap u = -c u^gamma is solved by c^(1/(1-gamma)) times the plane solution
    plain = tl.solve_torsion(DISK, gamma).u
    weighted = tl.solve_torsion(DISK, gamma, weight=_constant(c)).u
    expected = c ** (1.0 / (1.0 - gamma)) * plain
    assert np.abs(weighted - expected).max() <= 1e-8 * np.abs(expected).max()


SMALL_MESHES = {spec: tl.mesh_from_spec(spec)
                for spec in ("disk:1:6", "ellipse:1:0.5:6", "rect:1:1:6:6")}


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(sorted(SMALL_MESHES)),
       a=st.floats(-5.0, 5.0), b=st.tuples(st.floats(-5.0, 5.0),
                                           st.floats(-5.0, 5.0)))
def test_stiffness_annihilates_affine_fields(spec, a, b):
    # grad u is constant for affine u, and a hat function at an interior
    # vertex integrates its gradient to zero, so the full interior rows of
    # K u vanish: constants, and linear fields, are in the kernel
    m = SMALL_MESHES[spec]
    op = solver.assemble_stiffness(m)
    u = a + m.vertices @ np.array(b)
    scale = np.abs(op.K.data).max() * max(np.abs(u).max(), 1.0)
    assert np.abs(_full_rows(m, op, u)).max() <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(sorted(SMALL_MESHES)),
       gamma=st.floats(min_value=0.0, max_value=0.9),
       a=st.floats(min_value=0.2, max_value=5.0),
       angle=st.floats(min_value=-math.pi, max_value=math.pi),
       b=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_torsion_scales_under_similarities(spec, gamma, a, angle, b):
    # x -> a R x + b leaves the P1 stiffness matrix unchanged and scales the
    # load by a^2, so the discrete solution scales by a^(2/(1-gamma))
    m = SMALL_MESHES[spec]
    c, s = math.cos(angle), math.sin(angle)
    image = m.replace_vertices(a * m.vertices @ np.array([[c, s], [-s, c]])
                               + np.array(b))
    t = tl.rigidity(tl.solve_torsion(m, gamma)).T_grad
    t_image = tl.rigidity(tl.solve_torsion(image, gamma)).T_grad
    assert t_image == pytest.approx(a ** (4.0 / (1.0 - gamma)) * t, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(min_value=0.0, max_value=0.95))
def test_newton_solves_discrete_equation(gamma):
    # measured worst case over 96 gammas on this mesh: 1e-14
    assert _equation_residual(tl.solve_torsion(DISK, gamma)) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(c=CONSTANTS)
def test_constant_weight_scales_eigenvalue(c):
    lam_1 = tl.solve_eigen(DISK).lam
    lam_c = tl.solve_eigen(DISK, weight=_constant(c)).lam
    assert c * lam_c == pytest.approx(lam_1, rel=1e-12)


def _corrupt(kind, index, c):
    def weight(points):
        w = np.full(len(points), c)
        if kind == "short":
            return w[:-1]
        if kind == "long":
            return np.append(w, c)
        if kind == "column":
            return w[:, None]
        w[index % len(w)] = {"nan": np.nan, "inf": np.inf, "zero": 0.0,
                             "negative": -c}[kind]
        return w

    return weight


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(("nan", "inf", "zero", "negative", "short",
                             "long", "column")),
       index=st.integers(min_value=0, max_value=10**6), c=CONSTANTS)
def test_weight_field_validation(kind, index, c):
    # the sampled field of a valid weight is frozen
    assert not solver.nodal_weight(DISK, _constant(c)).flags.writeable
    weight = _corrupt(kind, index, c)
    with pytest.raises(ValueError):
        tl.solve_torsion(DISK, 0.3, weight=weight)
    with pytest.raises(ValueError):
        tl.solve_eigen(DISK, weight=weight)
    with pytest.raises(ValueError):
        tl.fd_validate_torsion(DISK, 0.3, "radial", weight=weight)


def test_factor_preconditioned_cg():
    m = tl.mesh_from_spec("rect:1:1:64:64")
    op = solver.assemble_stiffness(m)
    K, F = op.K, solver.load_vector(op, np.ones(len(m.vertices)))
    x, iters = solver.cg_solve(K, F, tol=1e-12, precond=solver._factor(K))
    assert iters <= 4
    assert np.linalg.norm(F - K @ x) <= 1e-12 * np.linalg.norm(F)
    x_plain, _ = solver.cg_solve(K, F, tol=1e-12)
    assert np.abs(x - x_plain).max() <= 1e-10 * np.abs(x_plain).max()


def test_cg_scales_the_right_hand_side_exactly():
    # cg_solve scales b by a power of two into [0.5, 1) and the result back,
    # so a scaled b gives the exactly scaled solve, through the float32
    # factor too, and a tiny or huge b neither underflows nor overflows
    m = tl.mesh_from_spec("rect:1:1:16:16")
    K = solver.assemble_stiffness(m).K
    precond = solver._factor(K)
    b = np.random.default_rng(5).uniform(-1.0, 1.0, K.shape[0])
    x, iters = solver.cg_solve(K, b, precond=precond)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
    for k in range(-1000, 901):
        xk, iters_k = solver.cg_solve(K, np.ldexp(b, k), precond=precond)
        assert iters_k == iters and np.array_equal(xk, np.ldexp(x, k))


def test_underflowed_torsion_solution_raises(disk40):
    # a weight this small makes the load, and so u, underflow to zero
    with pytest.raises(ConvergenceError, match="underflows"):
        solver.solve_torsion(disk40, 0.3,
                             weight=lambda p: np.full(len(p), 5e-324))


def test_subnormal_torsion_solution_raises():
    # the true u is ~w^(1/(1-gamma)) ~ 1e-429 here; Newton's increment test
    # used to pass on a subnormal u (max u = 2e-323 after 2 steps for 1e-300)
    m = tl.mesh_from_spec("disk:1:8")
    for w in (1e-300, 1e-310):
        with pytest.raises(ConvergenceError, match="underflows"):
            solver.solve_torsion(m, 0.3, weight=lambda p: np.full(len(p), w))
    # at gamma = 0 the solve is linear and u ~ w / 4 stays normal
    sol = solver.solve_torsion(m, 0.0, weight=lambda p: np.full(len(p), 1e-300))
    assert np.abs(sol.u).max() == pytest.approx(2.5e-301, rel=0.1)


def test_preconditioned_cg_raises_on_iteration_starvation():
    n = 400
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                 [-1, 0, 1], format="csr")
    with pytest.raises(ConvergenceError) as err:
        solver.cg_solve(A, np.ones(n), tol=1e-14, max_iter=1,
                        precond=solver._factor(A))
    assert len(err.value.history) == 1


def _dense_reference(m, w_mid):
    """Stiffness, mass and load accumulated triangle by triangle into dense
    arrays."""
    n = len(m.vertices)
    K, M, F = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    for t, tri in enumerate(m.triangles):
        p = m.vertices[tri]
        (ax, ay), (bx, by) = p[1] - p[0], p[2] - p[0]
        area = 0.5 * (ax * by - ay * bx)
        e = [p[2] - p[1], p[0] - p[2], p[1] - p[0]]
        w = w_mid[t]
        for i in range(3):
            F[tri[i]] += area * (w.sum() - w[i]) / 6.0
            for j in range(3):
                K[tri[i], tri[j]] += e[i] @ e[j] / (4.0 * area)
                wij = w.sum() - w[i] if i == j else w[3 - i - j]
                M[tri[i], tri[j]] += area * wij / 12.0
    return K, M, F


def _coo_reference(m, w_mid):
    """Full stiffness and mass matrices from the 3 x 3 local blocks of every
    triangle, summed by scipy's COO to CSR conversion."""
    p = m.vertices[m.triangles]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], 1)
    areas = m.triangle_areas()
    kloc = np.einsum("tid,tjd->tij", e, e) / (4.0 * areas)[:, None, None]
    mloc = np.empty_like(kloc)
    for i in range(3):
        for j in range(3):
            mloc[:, i, j] = (w_mid.sum(axis=1) - w_mid[:, i] if i == j
                             else w_mid[:, 3 - i - j])
    mloc *= (areas / 12.0)[:, None, None]
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, 3).ravel()
    n = len(m.vertices)
    return tuple(sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
                 for loc in (kloc, mloc))


def _midpoint_load(mesh, rho_mid):
    """Nodal load F_i = int rho phi_i of a source given at the edge
    midpoints, summed triangle by triangle."""
    rho = np.asarray(rho_mid, dtype=float)
    floc = (rho.sum(axis=1)[:, None] - rho) * (mesh.triangle_areas() / 6.0)[:, None]
    return np.bincount(mesh.triangles.ravel(), weights=floc.ravel(),
                       minlength=len(mesh.vertices))


def _varying(points):
    # varies along the boundary of every test mesh, unlike _hemisphere on
    # the unit disk, so a boundary merged into one vertex would show
    return 1.0 + points[:, 0] ** 2


def _hemisphere(points):
    return 4.0 / (1.0 + (points**2).sum(axis=1)) ** 2


@pytest.mark.parametrize("spec", ["disk:1:4", "rect:2:1:3:5", "ellipse:1:0.5:5",
                                  "rect:1:1:2:2"])
def test_assembly_matches_dense_reference(spec):
    m = tl.mesh_from_spec(spec)
    op = solver.assemble_stiffness(m)
    interior = m.interior_vertices
    assert np.array_equal(op.interior, interior)
    block = np.ix_(interior, interior)
    touched = np.zeros((len(m.vertices),) * 2, dtype=bool)
    for tri in m.triangles:
        touched[np.ix_(tri, tri)] = True
    for weight in (_varying, _hemisphere):
        w = solver.nodal_weight(m, weight)
        K_ref, M_ref, F_ref = _dense_reference(m, solver.midpoint_values(m, w))
        M = solver.assemble_mass(op, w)
        for A, ref in ((op.K, K_ref[block]), (M, M_ref[block])):
            assert A.indices.dtype == A.indptr.dtype == np.int32
            coo = A.tocoo()  # stored entries, explicit zeros included
            pattern = np.zeros(ref.shape, dtype=bool)
            pattern[coo.row, coo.col] = True
            assert np.array_equal(pattern, touched[block])
            assert np.abs(A.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()
        F = solver.load_vector(op, w)
        assert np.abs(F - F_ref[interior]).max() <= 1e-15 * np.abs(F_ref).max()


@pytest.mark.parametrize("spec", ["disk:1:6", "rect:2:1:3:5", "ellipse:1:0.5:5",
                                  "rect:1:1:2:2"])
def test_interior_assembly_matches_slice(spec):
    # the interior system is the slice of the full one, in the same
    # canonical CSR layout, and M shares K's index arrays
    m = tl.mesh_from_spec(spec)
    interior = m.interior_vertices
    w = solver.nodal_weight(m, _varying)
    op = solver.assemble_stiffness(m)
    M = solver.assemble_mass(op, w)
    assert np.shares_memory(M.indices, op.K.indices)
    assert np.shares_memory(M.indptr, op.K.indptr)
    full = _coo_reference(m, solver.midpoint_values(m, w))
    for A, ref in zip((op.K, M), full):
        ref = ref[interior][:, interior]
        assert A.shape == ref.shape == (len(interior), len(interior))
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.abs(A.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


def test_one_edge_sort_per_topology(monkeypatch):
    # the first solve on a mesh sorts its edges and assembles K once; later
    # solves on it assemble nothing, and a moved copy assembles its own
    # values on the base's edge numbering and K's index arrays, sorting
    # nothing
    sorts, assemblies = [], []
    number_edges, assemble = solver._number_edges, solver.assemble_stiffness

    def counting_sort(mesh):
        sorts.append(1)
        return number_edges(mesh)

    def counting_assembly(mesh):
        assemblies.append(1)
        return assemble(mesh)

    monkeypatch.setattr(solver, "_number_edges", counting_sort)
    monkeypatch.setattr(solver, "assemble_stiffness", counting_assembly)
    m = tl.mesh_from_spec("disk:0.8:8")
    image = tl.map_mesh(m, tl.map_from_spec("quad:0.2"))
    for mesh, counts in ((m, (1, 1)), (image, (0, 1))):
        for solve in (lambda: tl.solve_torsion(mesh, 0.0),
                      lambda: tl.solve_torsion(mesh, 0.6, weight=_varying),
                      lambda: tl.solve_eigen(mesh, weight=_varying)):
            sorts.clear()
            assemblies.clear()
            solve()
            assert (len(sorts), len(assemblies)) == counts
            counts = (0, 0)
    op, image_op = solver._operator(m), solver._operator(image)
    for name in ("order", "lo", "hi", "up", "low", "diag"):
        assert getattr(image_op, name) is getattr(op, name)
    assert np.shares_memory(image_op.K.indices, op.K.indices)
    assert np.shares_memory(image_op.K.indptr, op.K.indptr)
    assert not np.array_equal(image_op.K.data, op.K.data)


_MOVED_SPECS = ("disk:1:{}", "ellipse:1:0.5:{}", "rect:1:1:{}:{}")


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(_MOVED_SPECS), n=st.integers(2, 12),
       angle=st.floats(-math.pi, math.pi), stretch=st.floats(0.25, 4.0),
       shift=st.floats(-10.0, 10.0), jitter=st.floats(0.0, 0.2),
       seed=st.integers(0, 2**32 - 1))
def test_moved_copy_operator_is_a_fresh_assembly(spec, n, angle, stretch,
                                                 shift, jitter, seed):
    # an orientation-preserving move: a rotation, a stretch, a shift and a
    # jitter of each vertex by up to a tenth of the longest edge.  The
    # copy's cached operator shares the base's position-independent half
    # and sums only share and K's values itself, in the same order as a
    # mesh rebuilt from the moved vertices, so every array is bit-identical
    base = tl.mesh_from_spec(spec.format(n, n))
    base_op = solver._operator(base)
    c, s = math.cos(angle), math.sin(angle)
    A = np.array([[c, -s], [s, c]]) @ np.diag([stretch, 1.0 / stretch])
    rng = np.random.default_rng(seed)
    moved = (base.vertices @ A.T + shift
             + jitter * base.h * rng.uniform(-0.5, 0.5, base.vertices.shape))
    try:
        copy = base.replace_vertices(moved)
    except ValueError:
        assume(False)
    cached = solver._operator(copy)
    assert np.shares_memory(cached.K.indices, base_op.K.indices)
    fresh = solver.assemble_stiffness(
        tl.TriMesh.from_arrays(moved, base.triangles))
    assert cached.m == fresh.m
    for name in ("order", "lo", "hi", "share", "up", "low", "diag"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(cached.K, name), getattr(fresh.K, name))


def test_operator_tables_drop_with_the_mesh():
    # a mesh's operator goes when the mesh does, and the edge numbering and
    # the factor of its topology when the last mesh on it does, with no
    # collection cycle
    before = len(solver._OPERATORS), len(solver._EDGES)
    m = tl.build_disk_mesh(1.0, 6)
    copy = m.replace_vertices(1.5 * m.vertices)
    sols = [tl.solve_torsion(m, 0.3), tl.solve_eigen(copy)]
    assert len(solver._OPERATORS) == before[0] + 2
    assert len(solver._EDGES) == before[1] + 1
    assert list(solver._FACTORS.keys()) == [m.topology]
    topology = weakref.ref(m.topology)
    del m, sols
    assert len(solver._OPERATORS) == before[0] + 1
    assert len(solver._EDGES) == before[1] + 1
    assert list(solver._FACTORS.keys()) == [copy.topology]
    del copy
    assert topology() is None
    assert (len(solver._OPERATORS), len(solver._EDGES)) == before
    assert len(solver._FACTORS) == 0


def test_one_factor_at_a_time():
    # the table keeps the factor of the last topology solved on: a moved
    # copy shares it, another topology replaces it, and solving A again
    # after B factors A afresh and gives A's u bit for bit
    a, b = tl.build_disk_mesh(1.0, 10), tl.mesh_from_spec("rect:1:1:9:7")
    copy = a.replace_vertices(1.5 * a.vertices)
    runs = []
    for mesh in (a, copy, b, a):
        runs.append((solver._preconditioner(mesh),
                     tl.solve_torsion(mesh, 0.4).u, tl.solve_eigen(mesh).u))
        assert list(solver._FACTORS.keys()) == [mesh.topology]
    assert runs[1][0] is runs[0][0]
    assert runs[3][0] is not runs[0][0]
    assert np.array_equal(runs[3][1], runs[0][1])
    assert np.array_equal(runs[3][2], runs[0][2])


def test_shared_operator_arrays_are_read_only():
    m = tl.build_disk_mesh(1.0, 5)
    op = solver._operator(m)
    edges = solver._EDGES[m.topology]
    arrays = [getattr(op, name) for name in ("order", "lo", "hi", "up", "low",
                                              "diag")]
    arrays += [op.K.data, op.K.indices, op.K.indptr, edges.terms, edges.first,
               m.interior_vertices]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6])
def test_single_unknown_mesh(gamma):
    # rect:1:1:2:2 has one interior vertex and no interior edge: K = [4],
    # M = [1/8], and the torsion fixed point solves 16 u = (u/2)^gamma
    m = tl.mesh_from_spec("rect:1:1:2:2")
    assert m.interior_vertices.tolist() == [4]
    sol = tl.solve_torsion(m, gamma)
    exact = (2.0 ** -gamma / 16.0) ** (1.0 / (1.0 - gamma))
    assert abs(sol.u[4] - exact) <= 1e-9 * exact
    assert np.count_nonzero(sol.u) == 1
    eig = tl.solve_eigen(m)
    assert abs(eig.lam - 32.0) <= 1e-13 * 32.0
    assert abs(eig.u[4] - np.sqrt(8.0)) <= 1e-13


@pytest.mark.parametrize("spec", ["disk:1:140", "rect:1:1:256:256",
                                  "ellipse:1:0.5:60"])
def test_load_vector_matches_add_at(spec):
    # edge by edge against triangle by triangle: the same terms, summed in
    # another order
    m = tl.mesh_from_spec(spec)
    w = np.random.default_rng(3).uniform(0.1, 2.0, len(m.vertices))
    wt = w[m.triangles]
    rho = 0.5 * (wt[:, [1, 2, 0]] + wt[:, [2, 0, 1]])
    floc = (rho.sum(axis=1)[:, None] - rho) * (m.triangle_areas() / 6.0)[:, None]
    ref = np.zeros(len(m.vertices))
    np.add.at(ref, m.triangles.ravel(), floc.ravel())
    ref = ref[m.interior_vertices]
    F = solver.load_vector(solver.assemble_stiffness(m), w)
    assert np.abs(F - ref).max() <= 1e-15 * ref.max()


# The Newton Jacobian J = K - M_c, assembled once per step in K's pattern,
# against the matrix-free product it replaced.

def _matrix_free_newton(mesh, K, u, gamma, w_mid):
    """Load, Jacobian product and midpoint c = gamma w_mid u_mid^(gamma-1) of
    a Newton step, as solve_torsion formed them before J was assembled: the
    product p -> K p - S^T diag(q c) S p runs a load assembly of c times the
    midpoint values of p."""
    interior = mesh.interior_vertices
    u_mid = solver.midpoint_values(mesh, u)
    rho = np.maximum(u_mid, 0.0) ** gamma * w_mid
    c = np.divide(gamma * rho, u_mid, out=np.zeros_like(u_mid),
                  where=u_mid > 0.0)
    p_full = np.zeros(len(mesh.vertices))

    def product(p):
        p_full[interior] = p
        term = _midpoint_load(mesh, c * solver.midpoint_values(mesh, p_full))
        return K @ p - term[interior]

    return _midpoint_load(mesh, rho)[interior], product, c


def _newton_step(spec, gamma, weight, seed=0):
    """A Newton system on ``spec`` at a random u of either sign."""
    m = tl.mesh_from_spec(spec)
    op = solver.assemble_stiffness(m)
    w = solver.nodal_weight(m, weight)
    u = np.zeros(len(m.vertices))
    u[op.interior] = np.random.default_rng(seed).uniform(-0.2, 1.0, op.m)
    F, J = op.newton(w, u, gamma)
    return m, op.K, u, solver.midpoint_values(m, w), F, J


JACOBIAN_MESHES = ["disk:1:30", "ellipse:1:0.5:20", "rect:1:1:16:16",
                   "rect:1:1:2:2", "rect:1:1:3:3"]


@pytest.mark.parametrize("spec", JACOBIAN_MESHES)
@pytest.mark.parametrize("gamma", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("weight", [None, _hemisphere], ids=["plane", "hemisphere"])
def test_assembled_jacobian_matches_matrix_free_product(spec, gamma, weight):
    m, K, u, w_mid, F, J = _newton_step(spec, gamma, weight)
    F_ref, product, _ = _matrix_free_newton(m, K, u, gamma, w_mid)
    for p in np.random.default_rng(1).standard_normal((3, K.shape[0])):
        ref = product(p)
        assert np.abs(J @ p - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(F - F_ref).max() <= 1e-13 * np.abs(F_ref).max()


@pytest.mark.parametrize("spec", JACOBIAN_MESHES)
def test_jacobian_is_k_less_weighted_mass_in_k_pattern(spec):
    m, K, u, w_mid, F, J = _newton_step(spec, 0.6, _varying)
    assert np.shares_memory(J.indices, K.indices)
    assert np.shares_memory(J.indptr, K.indptr)
    assert not np.shares_memory(J.data, K.data)
    # J - K is minus the weighted mass matrix of c
    c = _matrix_free_newton(m, K, u, 0.6, w_mid)[2]
    interior = m.interior_vertices
    M = _coo_reference(m, c)[1][interior][:, interior]
    assert abs(J - K + M).max() <= 1e-13 * np.abs(K.data).max()


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(sorted(SMALL_MESHES)),
       gamma=st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
       seed=st.integers(0, 2**16))
def test_jacobian_is_exactly_symmetric(spec, gamma, seed):
    J = _newton_step(spec, gamma, _hemisphere, seed)[-1]
    assert (J != J.T).nnz == 0


def test_newton_steps_unchanged_by_assembly(monkeypatch):
    # the assembled Jacobian is the matrix-free operator up to roundoff, so
    # Newton takes the steps it took with the matrix-free product; solved
    # only to the Eisenstat-Walker forcing terms, floored where float64
    # cannot resolve the equation residual, those 7 steps and the start take
    # 25 PCG iterations, [3, 2, 2, 2, 3, 4, 5, 4] (31 without the floor, 66
    # with every step at 1e-12)
    iters = _counting_cg(monkeypatch)
    sol = tl.solve_torsion(tl.build_disk_mesh(1.0, 80), 0.6)
    assert sol.iterations == 7 and len(iters) == 8
    assert sum(iters) <= 28


# Inexact Newton: each step's PCG tolerance follows the Eisenstat-Walker
# forcing term, against a Newton loop that solves every step to 1e-12.

def _exact_newton(mesh, gamma, weight, tol=1e-10, max_iter=200):
    """u of solve_torsion's start and stop, every linear solve to 1e-12."""
    op = solver.assemble_stiffness(mesh)
    K, interior = op.K, op.interior
    w = solver.nodal_weight(mesh, weight)
    F0 = solver.load_vector(op, w)
    precond = solver._factor(K)
    u = np.zeros(len(mesh.vertices))
    u[interior], _ = solver.cg_solve(K, F0, tol=1e-12, precond=precond)
    if gamma == 0.0 and (np.linalg.norm(F0 - K @ u[interior])
                         <= tol * np.linalg.norm(F0)):
        return u
    u *= max(1.0, u.max()) ** (gamma / (1.0 - gamma))
    for _ in range(max_iter):
        F, J = (F0, K) if gamma == 0.0 else op.newton(w, u, gamma)
        d, _ = solver.cg_solve(J, F - K @ u[interior], tol=1e-12,
                               precond=precond)
        u[interior] += d
        if np.abs(d).max() <= tol * np.abs(u).max():
            return u
    raise AssertionError("reference Newton loop stalled")


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("disk:1:{}", "ellipse:1:0.5:{}", "rect:1:1:{}:{}")),
       n=st.integers(min_value=3, max_value=16),
       gamma=st.floats(min_value=0.0, max_value=0.95),
       a=st.none() | st.floats(min_value=0.0, max_value=0.9))
def test_inexact_newton_matches_exact_solves(kind, n, gamma, a):
    m = tl.mesh_from_spec(kind.format(n, n))
    weight = None if a is None else (
        lambda p: 1.0 + a * np.sin(2.0 * p[:, 0]) * np.cos(3.0 * p[:, 1]))
    sol = tl.solve_torsion(m, gamma, weight=weight)
    ref = solver.Solution(mesh=m, u=_exact_newton(m, gamma, weight),
                          weight=sol.weight, iterations=1, residuals=(),
                          gamma=gamma)
    T, T_ref = tl.rigidity(sol).T_grad, tl.rigidity(ref).T_grad
    assert abs(T - T_ref) <= 1e-12 * T_ref
    # both residuals sit at roundoff; on a handful of unknowns they are a
    # few ulps, where a factor 2 is the noise of evaluating them (2.5e-16
    # against 1.1e-16 on rect:1:1:3:3)
    res_floor = 4.0 * np.finfo(float).eps
    res_ref = _equation_residual(ref)
    assert _equation_residual(sol) <= 2.0 * max(res_ref, res_floor)


def _unfloored_newton(mesh, gamma, weight, initial=None, tol=1e-10):
    """u, Newton steps and PCG iterations of solve_torsion's start and stop
    at gamma > 0, from ``initial`` without a start check or from the cold
    start, every step solved to the Eisenstat-Walker term of _forcing
    without the roundoff floor."""
    op = solver.assemble_stiffness(mesh)
    K, interior = op.K, op.interior
    w = solver.nodal_weight(mesh, weight)
    precond = solver._factor(K)
    u, pcg = np.zeros(len(mesh.vertices)), 0
    if initial is None:
        u[interior], pcg = solver.cg_solve(K, solver.load_vector(op, w),
                                           tol=1e-12, precond=precond)
        u *= max(1.0, u.max()) ** (gamma / (1.0 - gamma))
    else:
        u[interior] = initial[interior]
    norm = None
    for step in range(1, 201):
        F, J = op.newton(w, u, gamma)
        r = F - K @ u[interior]
        prev, norm = norm, solver._scaled_norm(r)
        d, it = solver.cg_solve(J, r, tol=solver._forcing(norm, prev),
                                precond=precond)
        pcg += it
        u[interior] += d
        if np.abs(d).max() <= tol * np.abs(u).max():
            return u, step, pcg
    raise AssertionError("reference Newton loop stalled")


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("disk:1:{}", "ellipse:1:0.5:{}", "rect:1:1:{}:{}")),
       n=st.integers(min_value=3, max_value=16),
       gamma=st.floats(min_value=1e-8, max_value=0.95),
       a=st.none() | st.floats(min_value=0.0, max_value=0.9),
       c=st.none() | st.floats(min_value=1e-6, max_value=1.0))
def test_roundoff_floor_keeps_the_newton_steps(kind, n, gamma, a, c):
    # flooring each step's forcing term at eps ||F|| / ||r|| only skips PCG
    # iterations that resolve roundoff: from the cold start or c u*, Newton
    # takes the steps of the unfloored loop with no more PCG iterations.
    # Measured over 1,100 random draws of these meshes, weights and starts,
    # gamma down to 1e-8, 384 of them restarted cold: no step count
    # differed, the floor saved up to 16 of a solve's PCG iterations and
    # never cost one, and u differed from the unfloored u by at most
    # 5.0e-15 of max u
    m = tl.mesh_from_spec(kind.format(n, n))
    weight = None if a is None else (
        lambda p: 1.0 + a * np.sin(2.0 * p[:, 0]) * np.cos(3.0 * p[:, 1]))
    initial = None
    if c is not None:
        initial = c * tl.solve_torsion(m, gamma, weight=weight).u
    with pytest.MonkeyPatch.context() as mp:
        iters = _counting_cg(mp)
        sol = tl.solve_torsion(m, gamma, weight=weight, initial=initial)
    # the solution's own linear solves come last: its steps, after the
    # start solve of a cold or restarted run
    pcg = sum(iters[-(sol.iterations + (c is None or sol.restarted)):])
    u, steps, pcg_ref = _unfloored_newton(
        m, gamma, weight, None if sol.restarted else initial)
    assert sol.iterations == steps
    assert pcg <= pcg_ref
    assert np.abs(sol.u - u).max() <= 5e-14 * u.max()


# Start guesses Newton or inverse iteration cannot use are bad input.

def test_torsion_rejects_unusable_initial():
    m = tl.mesh_from_spec("disk:1:20")
    n = len(m.vertices)
    # from u = -1 Newton's source and Jacobian mass vanish: it used to
    # return u ~ 1e-64 as converged, where max u is 4.3e-2
    for bad in (-np.ones(n), np.zeros(n)):
        with pytest.raises(ValueError, match="positive"):
            tl.solve_torsion(m, 0.5, initial=bad)
    for value in (np.nan, np.inf, -np.inf):
        bad = np.full(n, 0.01)
        bad[m.interior_vertices[3]] = value
        with pytest.raises(ValueError, match="finite"):
            tl.solve_torsion(m, 0.5, initial=bad)
        with pytest.raises(ValueError, match="finite"):
            tl.solve_torsion(m, 0.0, initial=bad)
    # the boundary values are not read, and at gamma = 0 any finite start
    # reaches the linear solve
    start = np.full(n, -1.0)
    start[m.boundary_vertices] = np.nan
    linear = tl.solve_torsion(m, 0.0)
    stepped = tl.solve_torsion(m, 0.0, initial=start)
    assert np.abs(stepped.u - linear.u).max() <= 1e-12 * linear.u.max()


def test_eigen_rejects_non_finite_initial():
    m = tl.mesh_from_spec("disk:1:20")
    for value in (np.nan, np.inf):
        bad = np.ones(len(m.vertices))
        bad[m.interior_vertices[0]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                tl.solve_eigen(m, initial=bad)
