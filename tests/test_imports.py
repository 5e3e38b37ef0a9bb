"""Start-up imports: the FEM subcommands load none of the oracle's scipy
modules, and the package re-exports the oracle's names on first use."""

import json
import subprocess
import sys
import textwrap
import types

import pytest
import scipy.integrate
import scipy.optimize

import torsionlab as tl
from torsionlab import radial_oracle

# What only the radial oracle and the map certification use.
DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
            "scipy.spatial", "scipy.special", "torsionlab.radial_oracle")

# torsionlab.__all__ when every submodule was imported eagerly.
EAGER_ALL = """
    BishopGromovReport ConformalMap ConvergenceError DeformationError
    DomainError EigenIsoperimetryRatio FlowSpec IsoperimetryRatio OracleError
    RadialEigen RadialMetric RadialProfile RigidityReport Solution
    TorsionLabError TriMesh VariationReport area bishop_gromov_check
    boundary_geometry boundary_length boundary_normal_derivative
    build_disk_mesh build_ellipse_mesh build_rectangle_mesh cg_solve
    circle_length cone_metric cone_tau conformal cubic_map deform_mesh
    disk_area eigen_isoperimetry_ratio errors fd_validate_eigen
    fd_validate_torsion flat_disk_torsion flat_metric flat_tau flow_from_spec
    functionals gauss_curvature geometry hyperbolic_metric
    image_variation_diagnostic isoperimetry_ratio kappa_gamma
    level_flux_defect level_set_profile linear_map load_mesh map_from_spec
    map_mesh mesh mesh_from_spec metric_from_spec moebius_map
    monotonicity_verdict normal_speed phi_small_r_limit profile_rigidity
    pullback_weight quad_map radial_flow radial_oracle rigidity
    rigidity_of_image save_mesh schwarz_ratio_sweep shape
    shape_derivative_eigen shape_derivative_torsion shoot_eigen
    shoot_torsion solve_eigen solve_torsion solver sphere_metric
    stretch_x_flow superlevel_slice sweep_Q sweep_eigen_Q
    tau_circle_upper_bound translate_flow user_metric
""".split()

_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    from torsionlab import experiments

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return experiments.main(list(argv))

    codes = [
        run("solve", "--mesh", "disk:1:8", "--gamma", "0.6"),
        run("isoperimetry", "--mesh", "disk:1:8", "--gamma", "0.3"),
        run("eigen-isoperimetry", "--mesh", "disk:1:8"),
        run("levelsets", "--mesh", "disk:1:8", "--gamma", "0.3"),
        run("variation", "--mesh", "disk:1:8", "--gamma", "0.3"),
        run("variation", "--mesh", "disk:1:8", "--eigen"),
    ]
    fem = sorted(m for m in DEFERRED if m in sys.modules)
    codes.append(run("radial", "--metric", "sphere"))
    print(json.dumps({"codes": codes, "fem": fem,
                      "oracle": "torsionlab.radial_oracle" in sys.modules}))
""")


def test_fem_subcommands_load_no_oracle_module():
    done = subprocess.run(
        [sys.executable, "-c", f"DEFERRED = {DEFERRED!r}\n{_CHILD}"],
        capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    # each subcommand ran to a verdict, so each import it needs was made
    assert all(code in (0, 1) for code in report["codes"]), report
    assert report["fem"] == []
    # the first shot loads the oracle, so the check above sees real imports
    assert report["oracle"] is True


def test_package_imports_the_oracle_on_first_use():
    subprocess.run([sys.executable, "-c", textwrap.dedent("""
        import sys
        import torsionlab as tl
        assert "torsionlab.radial_oracle" not in sys.modules
        assert tl.radial_oracle is sys.modules["torsionlab.radial_oracle"]
    """)], check=True)


def test_package_names_resolve_lazily():
    assert set(EAGER_ALL) <= set(tl.__all__)
    assert set(EAGER_ALL) <= set(dir(tl))
    for name in EAGER_ALL:
        value = getattr(tl, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"torsionlab.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
    assert tl.sweep_Q is radial_oracle.sweep_Q
    assert tl.RadialProfile is radial_oracle.RadialProfile
    star = {}
    exec("from torsionlab import *", star)
    assert star["shoot_torsion"] is radial_oracle.shoot_torsion
    with pytest.raises(AttributeError, match="no_such_name"):
        tl.no_such_name


def test_oracle_binds_the_traced_scipy_functions():
    # a tracer wraps the oracle's integrations and root searches where the
    # oracle module binds them
    assert radial_oracle.solve_ivp is scipy.integrate.solve_ivp
    assert radial_oracle.brentq is scipy.optimize.brentq
