import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
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


def test_stiffness_on_reference_triangle():
    m = tl.TriMesh.from_arrays(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]))
    K = solver.assemble_stiffness(m).toarray()
    expected = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected)
    # constants are in the kernel
    assert np.allclose(K @ np.ones(3), 0.0, atol=1e-15)


def test_mass_matrix_quadrature_identities():
    m = tl.build_disk_mesh(1.0, 6)
    M = solver.assemble_mass(m, solver.weight_midpoints(m, None))
    assert M.toarray() == pytest.approx(M.toarray().T)
    # row sums integrate the hat functions: total = mesh area
    assert M.sum() == pytest.approx(m.triangle_areas().sum(), rel=1e-12)
    # M x . x equals the midpoint quadrature of the interpolant squared
    rng = np.random.default_rng(7)
    u = rng.standard_normal(len(m.vertices))
    quad = solver.integrate_midpoint(m, solver.midpoint_values(m, u) ** 2)
    assert float(u @ (M @ u)) == pytest.approx(quad, rel=1e-12)


def test_gamma_zero_linear_solve(disk40_g0, oracle_flat_g0):
    sol = disk40_g0
    assert sol.iterations == 1
    assert sol.u[0] == pytest.approx(oracle_flat_g0.alpha, rel=1e-3)
    interior = sol.mesh.interior_vertices
    assert np.all(sol.u[interior] > 0.0)
    assert np.all(sol.u[sol.mesh.boundary_vertices] == 0.0)


def test_gamma_zero_returns_the_linear_solve(disk40, monkeypatch):
    calls = []
    cg = solver.cg_solve

    def counting_cg(*args, **kwargs):
        calls.append(1)
        return cg(*args, **kwargs)

    monkeypatch.setattr(solver, "cg_solve", counting_cg)
    sol = tl.solve_torsion(disk40, 0.0)
    assert len(calls) == 1
    assert sol.iterations == 1
    assert sol.residuals == (_equation_residual(sol),)
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
    K = solver.assemble_stiffness(m, interior)
    rho = np.maximum(solver.midpoint_values(m, sol.u), 0.0) ** sol.gamma
    F = solver.load_vector(m, rho * sol.w_mid)[interior]
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
                                           (0.2, 0.9)])
def test_torsion_scales_with_radius(radius, gamma):
    # u_R(x) = R^(2/(1-gamma)) u_1(x/R) exactly on the scaled mesh.  On a
    # large disk the gamma = 0 start exceeds 1, and an unscaled start left
    # the positive branch and ended at u = 0.  On the small disk u is of
    # order 1e-14 and Newton's right-hand sides fall below float32 range
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
    assert np.allclose(warm.u, disk40_g03.u, atol=1e-8)


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
    M = solver.assemble_mass(eig.mesh, solver.weight_midpoints(eig.mesh, None))
    assert float(eig.u @ (M @ eig.u)) == pytest.approx(1.0, abs=1e-10)


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
    interior = m.interior_vertices
    K = solver.assemble_stiffness(m, interior)
    F = solver.load_vector(m, np.ones((len(m.triangles), 3)))[interior]
    x, iters = solver.cg_solve(K, F, tol=1e-12, precond=solver._factor(K))
    assert iters <= 4
    assert np.linalg.norm(F - K @ x) <= 1e-12 * np.linalg.norm(F)
    x_plain, _ = solver.cg_solve(K, F, tol=1e-12)
    assert np.abs(x - x_plain).max() <= 1e-10 * np.abs(x_plain).max()


def test_factor_scales_tiny_right_hand_sides():
    # the right-hand side is scaled by a power of two into float32 range, so
    # a scaled r gives the exactly scaled solve, and a tiny one is not zero
    m = tl.mesh_from_spec("rect:1:1:16:16")
    K = solver.assemble_stiffness(m, m.interior_vertices)
    precond = solver._factor(K)
    r = np.random.default_rng(5).uniform(-1.0, 1.0, K.shape[0])
    x = precond(r)
    assert np.abs(K @ x - r).max() <= 1e-5 * np.abs(r).max()
    for k in (-40, -140, -1000, 100, 900):
        assert np.array_equal(precond(np.ldexp(r, k)), np.ldexp(x, k))
    assert not precond(np.zeros_like(r)).any()


def test_preconditioned_cg_raises_on_iteration_starvation():
    n = 400
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                 [-1, 0, 1], format="csr")
    with pytest.raises(ConvergenceError) as err:
        solver.cg_solve(A, np.ones(n), tol=1e-14, max_iter=1,
                        precond=solver._factor(A))
    assert len(err.value.history) == 1


def _dense_reference(m, w_mid):
    """Stiffness and mass accumulated triangle by triangle into dense arrays."""
    n = len(m.vertices)
    K, M = np.zeros((n, n)), np.zeros((n, n))
    for t, tri in enumerate(m.triangles):
        p = m.vertices[tri]
        (ax, ay), (bx, by) = p[1] - p[0], p[2] - p[0]
        area = 0.5 * (ax * by - ay * bx)
        e = [p[2] - p[1], p[0] - p[2], p[1] - p[0]]
        w = w_mid[t]
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += e[i] @ e[j] / (4.0 * area)
                wij = w.sum() - w[i] if i == j else w[3 - i - j]
                M[tri[i], tri[j]] += area * wij / 12.0
    return K, M


@pytest.mark.parametrize("spec", ["disk:1:4", "rect:2:1:3:5"])
def test_assembly_matches_dense_reference(spec):
    m = tl.mesh_from_spec(spec)
    w_mid = solver.weight_midpoints(m, lambda p: 1.0 + p[:, 0] ** 2)
    K_ref, M_ref = _dense_reference(m, w_mid)
    touched = np.zeros(K_ref.shape, dtype=bool)
    for tri in m.triangles:
        touched[np.ix_(tri, tri)] = True
    for A, ref in ((solver.assemble_stiffness(m), K_ref),
                   (solver.assemble_mass(m, w_mid), M_ref)):
        coo = A.tocoo()  # stored entries, explicit zeros included
        pattern = np.zeros(ref.shape, dtype=bool)
        pattern[coo.row, coo.col] = True
        assert np.array_equal(pattern, touched)
        assert np.abs(A.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("spec", ["disk:1:6", "rect:2:1:3:5", "ellipse:1:0.5:5",
                                  "rect:1:1:2:2"])
def test_interior_assembly_matches_slice(spec):
    m = tl.mesh_from_spec(spec)
    interior = m.interior_vertices
    w_mid = solver.weight_midpoints(m, lambda p: 1.0 + p[:, 0] ** 2)
    pairs = [(solver.assemble_stiffness(m, interior),
              solver.assemble_stiffness(m)[interior][:, interior]),
             (solver.assemble_mass(m, w_mid, interior),
              solver.assemble_mass(m, w_mid)[interior][:, interior])]
    for A, ref in pairs:
        assert A.shape == ref.shape == (len(interior), len(interior))
        assert A.indices.dtype == np.int32
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.abs(A.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


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
    m = tl.mesh_from_spec(spec)
    rho = np.random.default_rng(3).uniform(0.1, 2.0, (len(m.triangles), 3))
    areas = m.triangle_areas()
    floc = (rho.sum(axis=1)[:, None] - rho) * (areas / 6.0)[:, None]
    ref = np.zeros(len(m.vertices))
    np.add.at(ref, m.triangles.ravel(), floc.ravel())
    assert np.array_equal(solver.load_vector(m, rho), ref)


# The Newton Jacobian J = K - M_c, assembled once per step in K's pattern,
# against the matrix-free product it replaced.

def _hemisphere(points):
    return 4.0 / (1.0 + (points**2).sum(axis=1)) ** 2


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
        term = solver.load_vector(mesh, c * solver.midpoint_values(mesh, p_full))
        return K @ p - term[interior]

    return solver.load_vector(mesh, rho)[interior], product, c


def _newton_step(spec, gamma, weight, seed=0):
    """A Newton system on ``spec`` at a random u of either sign."""
    m = tl.mesh_from_spec(spec)
    interior, K = solver._interior_stiffness(m)
    w = solver.nodal_weight(m, weight)
    u = np.zeros(len(m.vertices))
    u[interior] = np.random.default_rng(seed).uniform(-0.2, 1.0, len(interior))
    F, J = solver._NewtonSystem(m, interior, K, w, gamma)(u)
    return m, K, u, solver.midpoint_values(m, w), F, J


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
    m, K, u, w_mid, F, J = _newton_step(spec, 0.6, _hemisphere)
    assert np.shares_memory(J.indices, K.indices)
    assert np.shares_memory(J.indptr, K.indptr)
    assert not np.shares_memory(J.data, K.data)
    # the weighted mass matrix of c has K's pattern; J - K is minus it
    c = _matrix_free_newton(m, K, u, 0.6, w_mid)[2]
    M = solver.assemble_mass(m, c, m.interior_vertices)
    assert np.array_equal(M.indptr, K.indptr)
    assert np.array_equal(M.indices, K.indices)
    assert np.abs(J.data - (K.data - M.data)).max() <= 1e-13 * np.abs(K.data).max()


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(sorted(SMALL_MESHES)),
       gamma=st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
       seed=st.integers(0, 2**16))
def test_jacobian_is_exactly_symmetric(spec, gamma, seed):
    J = _newton_step(spec, gamma, _hemisphere, seed)[-1]
    assert (J != J.T).nnz == 0


def test_newton_steps_unchanged_by_assembly():
    # the assembled Jacobian is the matrix-free operator up to roundoff, so
    # Newton takes the steps it took with the matrix-free product
    sol = tl.solve_torsion(tl.build_disk_mesh(1.0, 80), 0.6)
    assert sol.iterations == 7
