"""Numerical laboratory for the semilinear torsion problem on surfaces.

Solves lap_g u = -u^gamma (0 <= gamma < 1) with zero boundary data on
planar, conformally weighted, and rotationally symmetric domains, plus the
companion ground-eigenvalue problem, and checks the exact structure the
problem carries: the isoperimetric inequality with disk equality, boundary
first-variation formulas, scaling and monotonicity laws, and the conformal
Schwarz-type ratio.
"""

from .errors import (ConvergenceError, DeformationError, DomainError,
                     OracleError, TorsionLabError)
from .geometry import (BishopGromovReport, RadialMetric, bishop_gromov_check,
                       circle_length, cone_metric, cone_tau, disk_area,
                       flat_metric, flat_tau, gauss_curvature,
                       hyperbolic_metric, metric_from_spec, sphere_metric,
                       tau_circle_upper_bound, user_metric)
from .mesh import (TriMesh, boundary_geometry, build_disk_mesh,
                   build_ellipse_mesh, build_rectangle_mesh, load_mesh,
                   map_mesh, mesh_from_spec, save_mesh)
from .solver import Solution, cg_solve, solve_eigen, solve_torsion
from .functionals import (EigenIsoperimetryRatio, IsoperimetryRatio,
                          RigidityReport, area, boundary_length,
                          boundary_normal_derivative,
                          eigen_isoperimetry_ratio, isoperimetry_ratio,
                          kappa_gamma, level_flux_defect, level_set_profile,
                          profile_rigidity, rigidity, superlevel_slice)
from .shape import (FlowSpec, VariationReport, deform_mesh,
                    fd_validate_eigen, fd_validate_torsion, flow_from_spec,
                    normal_speed, radial_flow, shape_derivative_eigen,
                    shape_derivative_torsion, stretch_x_flow, translate_flow)
from .conformal import (ConformalMap, cubic_map, image_variation_diagnostic,
                        linear_map, map_from_spec, moebius_map,
                        monotonicity_verdict, phi_small_r_limit,
                        pullback_weight, quad_map, rigidity_of_image,
                        schwarz_ratio_sweep)

__version__ = "0.1.0"

# The radial oracle and its names load on first use (PEP 562): its
# scipy.integrate and scipy.optimize serve none of the FEM modules.
_ORACLE_NAMES = ("radial_oracle", "RadialEigen", "RadialProfile",
                 "flat_disk_torsion", "shoot_eigen", "shoot_torsion",
                 "sweep_Q", "sweep_eigen_Q")

__all__ = sorted(name for name in {*dir(), *_ORACLE_NAMES}
                 if not name.startswith("_"))


def __getattr__(name):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    oracle = import_module(f"{__name__}.radial_oracle")
    return oracle if name == "radial_oracle" else getattr(oracle, name)


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})
