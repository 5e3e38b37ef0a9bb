"""Rotationally symmetric metrics and isoperimetric data.

A rotationally symmetric surface is described in geodesic polar coordinates
by a warp function f, with metric dr^2 + f(r)^2 dtheta^2.  Geodesic circles
about the pole have length 2*pi*f(r), geodesic disks have area
2*pi*int_0^r f(s) ds, and the Gauss curvature is -f''(r)/f(r).  Smoothness
at the pole requires f(0) = 0 and f'(0) = 1.

A :class:`RadialMetric` carries f in one form, the pair (f, f') from one
call, with f'' beside it, and the isoperimetric constant
tau = inf (boundary length)^2 / area of its surface, the input of the
rigidity inequalities, where an exact value is known (the flat plane and
the cone).  Elsewhere tau is None: a geodesic-circle scan gives a cheap
upper bound, but it is never stored as the metric's tau.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# scipy.integrate and scipy.interpolate are imported by the functions that
# use them, which no FEM subcommand calls
from .errors import DomainError

_POLE_PROBE = 1e-8
_POLE_TOL = 1e-4  # loose enough for spline end-derivative error on tables
_MONOTONE_RTOL = 1e-9
_BOUND_SLACK = 1e-9

TAU_FLAT = 4.0 * math.pi
FLAT_DISK_EIGENVALUE = 5.783185962946785  # j_0^2: j_0 is the first zero of J0


def tau_value(tau) -> float:
    """An isoperimetric constant as a float.

    Raises ValueError unless it is finite and positive.
    """
    value = float(tau)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"tau must be finite and positive, got {value}")
    return value


def check_gamma(gamma) -> float:
    """The exponent gamma as a float; raises ValueError unless it lies in
    [0, 1).  NaN fails, since it lies in no interval."""
    gamma = float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    return gamma


def flat_tau() -> float:
    return TAU_FLAT


def cone_tau(beta: float) -> float:
    """Isoperimetric constant 4*pi*beta of a cone of total apex angle 2*pi*beta."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"cone aperture fraction must lie in (0, 1), got {beta}")
    return 4.0 * math.pi * beta


@dataclasses.dataclass(frozen=True)
class RadialMetric:
    """Warped-product metric dr^2 + f(r)^2 dtheta^2 on a geodesic disk.

    ``warp_pair`` maps r to the pair (f(r), f'(r)) in one call, the form
    the shooting right-hand sides of the radial oracle need at every
    evaluation, and ``d2warp`` is f''; each must accept scalars or numpy
    arrays.  ``tau`` is the exact isoperimetric constant of the surface, or
    None where no exact value is known.  The pole condition f(0)=0,
    f'(0)=1 is checked numerically at r=1e-8, and f must stay positive on
    (0, r_max].
    """

    warp_pair: object
    d2warp: object
    r_max: float
    name: str = "custom"
    tau: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.r_max) or self.r_max <= 0.0:
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")
        if self.tau is not None:
            tau_value(self.tau)
        probe = float(self.f(_POLE_PROBE))
        if abs(probe / _POLE_PROBE - 1.0) > _POLE_TOL:
            raise ValueError(
                f"warp violates the pole condition f(0)=0, f'(0)=1: "
                f"f({_POLE_PROBE:g}) = {probe:g}"
            )
        fs = self.f(np.linspace(self.r_max / 256.0, self.r_max, 256))
        if not np.all(np.isfinite(fs)) or np.any(fs <= 0.0):
            raise ValueError("warp must be positive and finite on (0, r_max]")

    def f(self, r):
        return np.asarray(self.warp_pair(r)[0], dtype=float)

    def df(self, r):
        return np.asarray(self.warp_pair(r)[1], dtype=float)

    def d2f(self, r):
        return np.asarray(self.d2warp(r), dtype=float)


def check_radius(metric: RadialMetric, r) -> np.ndarray:
    """The radii r as an array; raises DomainError unless each lies in
    (0, r_max].  NaN fails, since it lies in no interval."""
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r <= metric.r_max)):
        raise DomainError(
            f"radius must lie in (0, {metric.r_max:g}] for metric {metric.name!r}"
        )
    return r


def gauss_curvature(metric: RadialMetric, r):
    """Gauss curvature -f''(r)/f(r) at radius r."""
    r = check_radius(metric, r)
    return -metric.d2f(r) / metric.f(r)


def circle_length(metric: RadialMetric, r):
    """Length 2*pi*f(r) of the geodesic circle of radius r."""
    r = check_radius(metric, r)
    return 2.0 * math.pi * metric.f(r)


def disk_area(metric: RadialMetric, r) -> float:
    """Area 2*pi*int_0^r f of the geodesic disk, by adaptive quadrature."""
    r = check_radius(metric, r)
    if r.ndim > 0:
        return np.array([disk_area(metric, ri) for ri in r])
    from scipy.integrate import quad
    val, _ = quad(lambda s: float(metric.f(s)), 0.0, float(r),
                  epsabs=1e-14, epsrel=1e-10, limit=200)
    return 2.0 * math.pi * val


@dataclasses.dataclass(frozen=True)
class BishopGromovReport:
    monotone_ok: bool
    bound_ok: bool
    worst_violation: float


def _check_grid(metric: RadialMetric, r_grid) -> np.ndarray:
    grid = np.asarray(r_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("radius grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("radius grid must be strictly increasing")
    check_radius(metric, grid)
    return grid


def bishop_gromov_check(metric: RadialMetric, r_grid) -> BishopGromovReport:
    """Comparison-geometry sanity check on a radius grid.

    Under nonnegative curvature, f(r)/r is nonincreasing and f(r) <= r
    (so geodesic circles are no longer than flat ones).  ``worst_violation``
    is the largest raw violation of either property, 0 when both hold.
    """
    grid = _check_grid(metric, r_grid)
    ratios = metric.f(grid) / grid
    increases = np.diff(ratios)
    mono_viol = increases - _MONOTONE_RTOL * np.abs(ratios[:-1])
    monotone_ok = bool(np.all(mono_viol <= 0.0))
    excess = metric.f(grid) - grid
    bound_ok = bool(np.all(excess <= _BOUND_SLACK))
    worst = 0.0
    if increases.size:
        worst = max(worst, float(np.max(increases)))
    worst = max(worst, float(np.max(excess)))
    return BishopGromovReport(monotone_ok, bound_ok, max(0.0, worst))


def tau_circle_upper_bound(metric: RadialMetric, r_grid) -> float:
    """Upper bound for tau from geodesic circles: min over the grid of L(r)^2/A(r)."""
    grid = _check_grid(metric, r_grid)
    best = math.inf
    for r in grid:
        L = float(circle_length(metric, r))
        A = disk_area(metric, r)
        best = min(best, L * L / A)
    return tau_value(best)


def _flat_pair(r):
    r = np.asarray(r, dtype=float)
    return r, np.ones_like(r)


def flat_metric(r_max: float = 64.0) -> RadialMetric:
    return RadialMetric(
        warp_pair=_flat_pair,
        d2warp=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        r_max=r_max,
        name="flat",
        tau=flat_tau(),
    )


def sphere_metric(r_max: float = math.pi - 1e-3) -> RadialMetric:
    return RadialMetric(warp_pair=lambda r: (np.sin(r), np.cos(r)),
                        d2warp=lambda r: -np.sin(r), r_max=r_max, name="sphere")


def hyperbolic_metric(r_max: float = 16.0) -> RadialMetric:
    return RadialMetric(warp_pair=lambda r: (np.sinh(r), np.cosh(r)),
                        d2warp=np.sinh, r_max=r_max, name="hyperbolic")


def cone_metric(beta: float, eps: float = 0.05, r_max: float = 64.0) -> RadialMetric:
    """Cone of apex angle 2*pi*beta with a Gaussian-smoothed tip.

    f(r) = r*(beta + (1-beta)*exp(-(r/eps)^2)) keeps f'(0)=1 and leaves the
    exact cone untouched once r is a few multiples of eps; the smoothing
    collar itself carries a positive curvature spike (and a compensating
    negative dip on its outer shoulder), so curvature-based checks should
    sample outside it.  ``warp_pair`` forms the Gaussian once for f and
    f'.  Raises ValueError for an eps that is not positive, or for which
    eps^2 or (r_max/eps)^2 is not a finite normal float.
    """
    tau = cone_tau(beta)
    b, e = float(beta), float(eps)
    if not e > 0.0:
        raise ValueError(f"smoothing width must be positive, got {eps}")
    # e**2 and (r/e)**2 up to r_max must be finite normal floats: Python's
    # e**2 raises OverflowError past ~1e154, and numpy's (r/e)**2 overflows
    # with a warning below ~1e-153 * r_max
    tiny = np.finfo(float).tiny
    q = r_max / e
    if not (tiny <= e * e < math.inf and tiny <= q * q < math.inf):
        raise ValueError(f"smoothing width {eps:g} is out of range for "
                         f"r_max {r_max:g}")
    e2 = e**2

    def warp_pair(r):
        r = np.asarray(r, dtype=float)
        g = (1.0 - b) * np.exp(-((r / e) ** 2))
        return r * (b + g), b + g * (1.0 - 2.0 * r**2 / e2)

    def d2warp(r):
        r = np.asarray(r, dtype=float)
        g = np.exp(-((r / e) ** 2))
        return (1.0 - b) * g * (2.0 * r / e2) * (2.0 * r**2 / e2 - 3.0)

    name = f"cone:{beta:g}" if eps == 0.05 else f"cone:{beta:g}:{eps:g}"
    return RadialMetric(warp_pair=warp_pair, d2warp=d2warp, r_max=r_max,
                        name=name, tau=tau)


def user_metric(path: str) -> RadialMetric:
    """Metric from a two-column table of r, f(r) samples, interpolated by a
    quintic spline.

    f' and f'' are the spline's own derivatives.  The first row should be
    (0, 0).  A quintic, not a cubic: the oracle's final shot, which adds
    the area integrals, must land within 1e-10 * alpha as its search shot
    did, and a cubic's knots move the landing by more than that, where a
    quintic's stay near 1e-12 on sin tables of 11 to 401 rows.
    """
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 6:
        raise ValueError(f"warp table {path!r} must have two columns and >= 6 rows")
    r, f = data[:, 0], data[:, 1]
    if np.any(np.diff(r) <= 0.0):
        raise ValueError(f"warp table {path!r} must have strictly increasing radii")
    from scipy.interpolate import make_interp_spline
    spline = make_interp_spline(r, f, k=5)
    return RadialMetric(warp_pair=lambda x: (spline(x), spline(x, 1)),
                        d2warp=spline.derivative(2), r_max=float(r[-1]),
                        name=f"user:{path}")


def metric_from_spec(spec: str) -> RadialMetric:
    """Build a metric from a registry string.

    Accepted forms: ``flat``, ``cone:<beta>``, ``cone:<beta>:<eps>``,
    ``sphere``, ``hyperbolic``, ``user:<file>``.
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind == "flat" and len(parts) == 1:
        return flat_metric()
    if kind == "sphere" and len(parts) == 1:
        return sphere_metric()
    if kind == "hyperbolic" and len(parts) == 1:
        return hyperbolic_metric()
    if kind == "cone" and len(parts) in (2, 3):
        beta = float(parts[1])
        eps = float(parts[2]) if len(parts) == 3 else 0.05
        return cone_metric(beta, eps)
    if kind == "user" and len(parts) >= 2:
        return user_metric(spec.split(":", 1)[1])
    raise ValueError(f"unrecognized metric spec {spec!r}")

