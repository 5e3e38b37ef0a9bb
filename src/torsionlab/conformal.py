"""Univalent maps of the disk, pullback solves, and the torsion Schwarz ratio.

Solving the torsion problem on an image domain f(B_r) is equivalent to a
weighted disk problem: with v = u o f, the equation pulls back to
lap v = -|f'|^2 v^gamma on B_r, the conformal chart with e^{2 phi} = |f'|^2.
Phi(f; r) compares the image rigidity with the flat disk value; it is
constant exactly for linear maps and strictly increasing otherwise, with
small-radius limit |f'(0)|^(4/(1-gamma)).

A radius sweep of Phi solves every radius on one unit-disk mesh: f(B_r) is
the image of B_1 under the dilation y -> f(r y), so T(f(B_r)) is the
rigidity of B_1 with weight W_r(y) = r^2 |f'(r y)|^2, or of the unit mesh
moved to f(r y).  Both routes stay on the unit mesh's topology, so the
solver preconditions every radius with one float32 factor, as P1
stiffness is invariant under similarities and the dilated image is
locally one.  Each radius starts from the last one's solution scaled by
(r / r_prev)^(2 / (1 - gamma)), exact between flat disks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

# scipy.spatial and the radial oracle are imported by the functions that
# use them, which no FEM subcommand calls
from .errors import DomainError
from .mesh import build_disk_mesh, map_mesh
from .shape import fd_validate_torsion, radial_flow
from .solver import solve_torsion
from .functionals import rigidity

_GRID_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class ConformalMap:
    """Holomorphic map with certified injectivity radius.

    ``eval`` and ``deriv`` act on complex arrays; ``univalence_radius`` is
    the largest disk radius on which injectivity is claimed (and spot
    checked on a polar sample grid at construction).
    """

    name: str
    eval: object
    deriv: object
    univalence_radius: float


def _certify(name, fz, dfz, radius, n_r=64, n_theta=64):
    """Spot-check injectivity and a nonvanishing derivative on a polar grid."""
    r_cap = min(radius, 1.0)
    radii = (np.arange(1, n_r + 1) / (n_r + 1)) * r_cap
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    w = np.asarray(fz(z))
    dw = np.asarray(dfz(z))
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(dw))):
        raise ValueError(f"map {name!r}: non-finite values inside the "
                         f"claimed univalence radius {radius:g}")
    if np.min(np.abs(dw)) <= _GRID_TOL:
        raise ValueError(f"map {name!r}: derivative vanishes inside the "
                         f"claimed univalence radius {radius:g}")
    from scipy.spatial import cKDTree
    if cKDTree(np.column_stack([w.real, w.imag])).query_pairs(_GRID_TOL):
        raise ValueError(f"map {name!r}: images collide on the sample "
                         f"grid inside radius {radius:g}")


def _build(name, fz, dfz, radius) -> ConformalMap:
    _certify(name, fz, dfz, radius)
    return ConformalMap(name=name, eval=fz, deriv=dfz,
                        univalence_radius=float(radius))


def linear_map(a, b=0.0) -> ConformalMap:
    """f(z) = a z + b; univalent on the whole plane."""
    a, b = complex(a), complex(b)
    if a == 0:
        raise ValueError("linear map needs a != 0")
    return _build(f"linear:{a}", lambda z: a * z + b,
                  lambda z: np.full_like(np.asarray(z, dtype=complex), a),
                  np.inf)


def quad_map(c) -> ConformalMap:
    """f(z) = z + c z^2; univalence radius 1 for |c| <= 1/2, else 1/(2|c|)."""
    c = complex(c)
    radius = np.inf if c == 0 else (1.0 if abs(c) <= 0.5 else 1.0 / (2.0 * abs(c)))
    return _build(f"quad:{c}", lambda z: z + c * z * z,
                  lambda z: 1.0 + 2.0 * c * np.asarray(z, dtype=complex),
                  radius)


def cubic_map(c) -> ConformalMap:
    """f(z) = z + c z^3; conservative radius from f' != 0, grid checked."""
    c = complex(c)
    radius = np.inf if c == 0 else min(1.0, 1.0 / np.sqrt(3.0 * abs(c)))
    z2 = lambda z: np.asarray(z, dtype=complex) ** 2
    return _build(f"cubic:{c}", lambda z: z + c * z ** 3,
                  lambda z: 1.0 + 3.0 * c * z2(z), radius)


def moebius_map(c) -> ConformalMap:
    """f(z) = z / (1 - c z); pole at 1/|c|, radius clipped to 1."""
    c = complex(c)
    radius = np.inf if c == 0 else min(1.0, 1.0 / abs(c))
    return _build(f"moebius:{c}", lambda z: z / (1.0 - c * z),
                  lambda z: 1.0 / (1.0 - c * np.asarray(z, dtype=complex)) ** 2,
                  radius)


def _parse_param(text: str) -> complex:
    re_s, comma, im_s = text.partition(",")
    c = complex(float(re_s), float(im_s) if comma else 0.0)
    if not np.isfinite(c):
        raise ValueError(f"map parameter must be finite, got {text!r}")
    return c


def map_from_spec(spec: str) -> ConformalMap:
    """Parse a registry string: linear:a[:b] | quad:c | cubic:c | moebius:c."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "linear":
            parts = rest.split(":")
            return linear_map(_parse_param(parts[0]),
                              _parse_param(parts[1]) if len(parts) > 1 else 0.0)
        if kind == "quad":
            return quad_map(_parse_param(rest))
        if kind == "cubic":
            return cubic_map(_parse_param(rest))
        if kind == "moebius":
            return moebius_map(_parse_param(rest))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"unrecognized map spec {spec!r}") from exc
    raise ValueError(f"unrecognized map spec {spec!r}")


def _complex_points(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return points[:, 0] + 1j * points[:, 1]


def pullback_weight(cmap: ConformalMap):
    """Area weight |f'|^2 of the pullback chart, as a callable on points."""

    def weight(points):
        z = _complex_points(points)
        if np.any(np.abs(z) >= cmap.univalence_radius):
            raise DomainError(
                f"points leave the univalence radius "
                f"{cmap.univalence_radius:g} of map {cmap.name!r}"
            )
        return np.abs(np.asarray(cmap.deriv(z))) ** 2

    return weight


def _dilate(cmap: ConformalMap, r: float) -> ConformalMap:
    """g(y) = f(r y), which maps B_1 onto f(B_r); univalent on |y| < R / r.

    Its pullback weight |g'(y)|^2 is W_r(y) = r^2 |f'(r y)|^2.
    """
    f, df = cmap.eval, cmap.deriv
    return ConformalMap(name=f"{cmap.name} at scale {r:g}",
                        eval=lambda y: f(r * y), deriv=lambda y: r * df(r * y),
                        univalence_radius=cmap.univalence_radius / r)


def _image_rigidities(cmap: ConformalMap, gamma: float, radii, n_rings: int,
                      route: str) -> list:
    """T(f(B_r)) for each of the increasing radii, on one unit-disk mesh;
    see :func:`schwarz_ratio_sweep`.  :func:`solve_torsion` starts cold
    where a scaled start would not do, and at gamma = 0 each radius is one
    linear solve.  The direct route keeps the stiffness, load and float64
    stop of each image mesh; the factor that every mesh on the unit mesh's
    topology shares only sets how fast PCG gets there."""
    if route not in ("pullback", "direct"):
        raise ValueError(f"route must be 'pullback' or 'direct', got {route!r}")
    for r in radii:
        if not 0.0 < r < cmap.univalence_radius:
            raise DomainError(f"radius {r:g} outside (0, "
                              f"{cmap.univalence_radius:g}) of map {cmap.name!r}")
    unit = build_disk_mesh(1.0, n_rings)
    rigidities, u, r_prev = [], None, None
    for r in radii:
        g = _dilate(cmap, r)
        if route == "pullback":
            mesh, weight = unit, pullback_weight(g)
        else:
            mesh, weight = map_mesh(unit, g), None
        initial = None
        if u is not None and gamma > 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                initial = u * np.float64(r / r_prev) ** (2.0 / (1.0 - gamma))
            if not np.all(np.isfinite(initial)):
                initial = None  # past float64 range: start cold
        sol = solve_torsion(mesh, gamma, weight=weight, initial=initial)
        rigidities.append(rigidity(sol).T_power)
        u, r_prev = sol.u, r
    return rigidities


def rigidity_of_image(cmap: ConformalMap, r: float, gamma: float,
                      n_rings: int = 40, route: str = "pullback") -> float:
    """T of the image domain f(B_r), by either of two independent routes.

    Both solve the problem of the dilation g(y) = f(r y) on the unit disk:
    "pullback" the weighted problem on the disk mesh itself, with weight
    W_r(y) = |g'(y)|^2 = r^2 |f'(r y)|^2; "direct" pushes the mesh through
    g and solves unweighted on the polygonal image.  The two must agree
    within discretization error.  The one-radius case of
    :func:`schwarz_ratio_sweep`.
    """
    return _image_rigidities(cmap, gamma, [float(r)], n_rings, route)[0]


def schwarz_ratio_sweep(cmap: ConformalMap, gamma: float, r_grid,
                        n_rings: int = 40, route: str = "pullback") -> list:
    """Rows {r, T_image, T_disk, Phi} with the disk value from the radial oracle.

    Every radius is solved on one unit-disk mesh, by the routes of
    :func:`rigidity_of_image`, the direct route the independent
    cross-check; on both the solver preconditions every radius with one
    factor.  At gamma > 0 each radius starts from the last one's solution
    scaled by (r / r_prev)^(2 / (1 - gamma)), exact between flat disks.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if len(r_grid) == 0 or np.any(np.diff(r_grid) <= 0.0):
        raise ValueError("r_grid must be nonempty and strictly increasing")
    from .radial_oracle import flat_disk_torsion
    radii = [float(r) for r in r_grid]
    rows = []
    for r, t_image in zip(radii, _image_rigidities(cmap, gamma, radii,
                                                   n_rings, route)):
        t_disk = flat_disk_torsion(gamma, r)
        rows.append({"r": r, "T_image": t_image, "T_disk": t_disk,
                     "Phi": t_image / t_disk})
    return rows


def phi_small_r_limit(cmap: ConformalMap, gamma: float) -> float:
    """lim_{r -> 0} Phi(f; r) = |f'(0)|^(4/(1-gamma))."""
    d0 = abs(complex(np.asarray(cmap.deriv(np.array([0.0 + 0.0j])))[0]))
    return d0 ** (4.0 / (1.0 - gamma))


def monotonicity_verdict(values, tol: float = 5e-4) -> dict:
    """Forward-difference verdict: nondecreasing within tol, strict at 10x tol.

    tol is relative to the largest magnitude in the sequence.  The default
    sits at the discretization scatter of Phi estimates on the reference
    40-ring meshes (a few 1e-4), so a constant sequence plus solver noise is
    called nondecreasing but never strict, while genuine growth an order
    above the noise earns the strict flag.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError("need at least two values for a monotonicity verdict")
    diffs = np.diff(values)
    thr = tol * float(np.abs(values).max())
    return {
        "nondecreasing": bool(diffs.min() >= -thr),
        "strict": bool(diffs.min() > 10.0 * thr),
        "min_forward_diff": float(diffs.min()),
        "tol": float(thr),
    }


def image_variation_diagnostic(cmap: ConformalMap, gamma: float, r: float,
                               n_rings: int = 40, step: float = 1e-3):
    """Boundary-integral variation of T(f(B_r)) in r against finite differences.

    Growing the chart disk at unit speed moves the image domain; by the
    cancellation of conformal factors the analytic derivative is the plain
    Euclidean boundary formula applied to the pullback solution.
    """
    if not 0.0 < r < cmap.univalence_radius:
        raise DomainError(f"radius {r:g} outside the univalence disk of "
                          f"map {cmap.name!r}")
    mesh = build_disk_mesh(r, n_rings)
    return fd_validate_torsion(mesh, gamma, radial_flow(), step=step,
                               weight=pullback_weight(cmap))
