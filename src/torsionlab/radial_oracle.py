"""High-accuracy radial solver used as ground truth for the finite elements.

On a rotationally symmetric surface ds^2 = dr^2 + f(r)^2 dtheta^2, the
torsion problem collapses to the ODE u'' + (f'/f) u' = -max(u, 0)^gamma
with u'(0) = 0, and the ground mode to the same operator with source
-lam u.  Both are integrated with DOP853 at tight tolerances from a series
start just off the pole, and the remaining scalar (the center value alpha,
or lam) is pinned by a doubling/halving bracket plus Brent's method.
Interior zeros of the trial mode are counted with integration events, which
keeps the eigenvalue search locked onto the ground branch.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DomainError, OracleError
from .geometry import (RadialMetric, check_gamma, check_radius, circle_length,
                       disk_area, flat_metric, tau_value)

_RTOL = 1e-12
_START_FRAC = 1e-6  # series start at r0 = frac * R
_BRACKET_CAP = 200
_BRENT_RTOL = 4.0 * np.finfo(float).eps
FLAT_DISK_EIGENVALUE = 5.783185962946785  # square of the first zero of J0


def _integrate_torsion(metric, gamma, radius, alpha, r0, augmented):
    """Shoot from the series start; optionally carry the area integrals."""

    def rhs(r, y):
        u, v = y[0], y[1]
        up = max(u, 0.0) ** gamma
        dv = -up - metric.df(r) / metric.f(r) * v
        if not augmented:
            return (v, dv)
        two_pi_f = 2.0 * np.pi * metric.f(r)
        return (v, dv, two_pi_f * v * v, two_pi_f * up,
                two_pi_f * up * u if u > 0.0 else 0.0)

    ag = alpha ** gamma
    y0 = [alpha - ag * r0 * r0 / 4.0, -ag * r0 / 2.0]
    if augmented:
        y0 += [np.pi * ag * ag * r0 ** 4 / 8.0,
               np.pi * ag * r0 * r0,
               np.pi * ag * alpha * r0 * r0]
    atol = 1e-14 * alpha
    sol = solve_ivp(rhs, (r0, radius), y0, method="DOP853",
                    rtol=_RTOL, atol=atol, dense_output=augmented)
    if not sol.success:
        raise OracleError(f"torsion shooting failed: {sol.message}")
    return sol


class _ShotProfile:
    """Evaluation of a shot radial profile: the dense ODE solution scaled by
    ``_scale``, with the series start ``_series`` below r0 = ``_r0``."""

    @property
    def r_nodes(self) -> np.ndarray:
        return self._sol.t

    def value(self, r):
        """u(r) for r in [0, radius]."""
        return self._eval(r, 0)

    def slope(self, r):
        """u'(r) for r in [0, radius]."""
        return self._eval(r, 1)

    def _eval(self, r, comp):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(r > self.radius * (1.0 + 1e-12)):
            raise DomainError(f"radius outside [0, {self.radius}]")
        rc = np.minimum(r, self.radius)
        inner = self._series(rc, comp)
        outer = self._sol.sol(np.maximum(rc, self._r0))[comp]
        return self._scale * np.where(rc < self._r0, inner, outer)


@dataclasses.dataclass(frozen=True)
class RadialProfile(_ShotProfile):
    """Converged radial torsion solution with its area integrals.

    ``torsion`` is int |grad u|^2 dA, ``i_gamma`` and ``i_one_plus_gamma``
    the integrals of u^gamma and u^(1+gamma) against the metric area, and
    ``flux_l1`` the line integral of |grad u| along the rim.  Integration
    by parts makes flux_l1 equal i_gamma and torsion equal
    i_one_plus_gamma exactly; the numbers agree to the ODE tolerance.
    """

    metric: RadialMetric
    gamma: float
    radius: float
    alpha: float
    torsion: float
    i_gamma: float
    i_one_plus_gamma: float
    boundary_slope: float
    flux_l1: float
    area: float
    length: float
    _sol: object = dataclasses.field(repr=False, compare=False)
    _r0: float = dataclasses.field(repr=False, compare=False)
    _scale: float = dataclasses.field(default=1.0, repr=False, compare=False)

    def _series(self, rc, comp):
        ag = self.alpha ** self.gamma
        if comp == 0:
            return self.alpha - ag * rc * rc / 4.0
        return -ag * rc / 2.0


def shoot_torsion(metric: RadialMetric, gamma: float, radius: float,
                  tol: float = 1e-10) -> RadialProfile:
    """Shoot for the center value alpha with u(R) = 0, then integrate.

    The boundary map alpha -> u(R; alpha) is strictly increasing, so a
    doubling/halving sweep from the flat-disk guess brackets the root and
    Brent's method finishes it off.  ``tol`` bounds |u(R)| relative to
    alpha in the returned profile.
    """
    radius = float(check_radius(metric, radius))
    gamma = check_gamma(gamma)
    r0 = _START_FRAC * radius

    def end_value(alpha):
        return _integrate_torsion(metric, gamma, radius, alpha, r0, False).y[0][-1]

    alpha = radius * radius / 4.0
    g = end_value(alpha)
    lo = hi = alpha
    if g > 0.0:
        for _ in range(_BRACKET_CAP):
            hi = lo
            lo *= 0.5
            if end_value(lo) <= 0.0:
                break
        else:
            raise OracleError("could not bracket the torsion center value",
                              bracket=(lo, hi))
    else:
        for _ in range(_BRACKET_CAP):
            lo = hi
            hi *= 2.0
            if end_value(hi) >= 0.0:
                break
        else:
            raise OracleError("could not bracket the torsion center value",
                              bracket=(lo, hi))
    alpha = brentq(end_value, lo, hi, xtol=1e-300, rtol=_BRENT_RTOL)

    sol = _integrate_torsion(metric, gamma, radius, alpha, r0, True)
    u_end, v_end, torsion, i_g, i_1g = sol.y[:, -1]
    if abs(u_end) > tol * alpha:
        raise OracleError(
            f"shot landed at u(R) = {u_end:.3e}, outside {tol:g} * alpha",
            bracket=(lo, hi),
        )
    fR = metric.f(radius)
    return RadialProfile(
        metric=metric, gamma=gamma, radius=radius, alpha=alpha,
        torsion=float(torsion), i_gamma=float(i_g),
        i_one_plus_gamma=float(i_1g), boundary_slope=float(v_end),
        flux_l1=float(2.0 * np.pi * fR * abs(v_end)),
        area=disk_area(metric, radius), length=circle_length(metric, radius),
        _sol=sol, _r0=r0,
    )


@functools.lru_cache(maxsize=None)
def _flat_unit_disk_torsion(gamma: float) -> float:
    return shoot_torsion(flat_metric(), gamma, 1.0).torsion


def flat_disk_torsion(gamma: float, radius: float) -> float:
    """T of the flat disk B_radius via the homogeneity T(r B) = r^(4/(1-gamma)) T(B)."""
    gamma = check_gamma(gamma)
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    return float(radius) ** (4.0 / (1.0 - gamma)) * _flat_unit_disk_torsion(gamma)


def _integrate_eigen(metric, lam, radius, r0, count_zeros=False, augmented=False):
    def rhs(r, y):
        u, v = y[0], y[1]
        dv = -lam * u - metric.df(r) / metric.f(r) * v
        if not augmented:
            return (v, dv)
        two_pi_f = 2.0 * np.pi * metric.f(r)
        return (v, dv, two_pi_f * u, two_pi_f * u * u)

    y0 = [1.0 - lam * r0 * r0 / 4.0, -lam * r0 / 2.0]
    if augmented:
        y0 += [np.pi * r0 * r0, np.pi * r0 * r0]
    events = (lambda r, y: y[0]) if count_zeros else None
    sol = solve_ivp(rhs, (r0, radius), y0, method="DOP853",
                    rtol=_RTOL, atol=1e-14, events=events,
                    dense_output=augmented)
    if not sol.success:
        raise OracleError(f"eigen shooting failed: {sol.message}")
    return sol


@dataclasses.dataclass(frozen=True)
class RadialEigen(_ShotProfile):
    """Ground mode on a geodesic disk, normalized to unit weighted L2 norm.

    ``i1`` is int u dA; the divergence theorem gives lam * i1 = flux_l1.
    """

    metric: RadialMetric
    radius: float
    lam: float
    alpha: float
    i1: float
    boundary_slope: float
    flux_l1: float
    area: float
    length: float
    _sol: object = dataclasses.field(repr=False, compare=False)
    _r0: float = dataclasses.field(repr=False, compare=False)
    _scale: float = dataclasses.field(repr=False, compare=False)

    def _series(self, rc, comp):
        if comp == 0:
            return 1.0 - self.lam * rc * rc / 4.0
        return -self.lam * rc / 2.0


def shoot_eigen(metric: RadialMetric, radius: float,
                tol: float = 1e-9) -> RadialEigen:
    """Ground eigenvalue by zero counting, then Brent on the endpoint value.

    Trial modes with no interior zero and u(R) > 0 sit below the ground
    value, modes with an interior zero sit above it; bisection on the zero
    count pins a bracket on which u(R; lam) changes sign exactly once.
    ``tol`` bounds |u(R)| relative to the center value.
    """
    radius = float(check_radius(metric, radius))
    r0 = _START_FRAC * radius

    def zeros_and_end(lam):
        sol = _integrate_eigen(metric, lam, radius, r0, count_zeros=True)
        return len(sol.t_events[0]), sol.y[0][-1]

    guess = FLAT_DISK_EIGENVALUE / radius ** 2
    lo = hi = guess
    for _ in range(_BRACKET_CAP):
        if zeros_and_end(lo)[0] == 0:
            break
        lo *= 0.5
    else:
        raise OracleError("no zero-free trial mode found", bracket=(lo, hi))
    for _ in range(_BRACKET_CAP):
        if zeros_and_end(hi)[0] >= 1:
            break
        hi *= 2.0
    else:
        raise OracleError("no oscillating trial mode found", bracket=(lo, hi))
    for _ in range(_BRACKET_CAP):
        if zeros_and_end(hi)[0] == 1 and hi <= 1.2 * lo:
            break
        mid = 0.5 * (lo + hi)
        if zeros_and_end(mid)[0] == 0:
            lo = mid
        else:
            hi = mid
    else:
        raise OracleError("zero-count bisection stalled", bracket=(lo, hi))

    lam = brentq(lambda t: zeros_and_end(t)[1], lo, hi,
                 xtol=1e-300, rtol=_BRENT_RTOL)
    sol = _integrate_eigen(metric, lam, radius, r0, augmented=True)
    u_end, v_end, i1, i2 = sol.y[:, -1]
    if abs(u_end) > tol:
        raise OracleError(
            f"eigen shot landed at u(R) = {u_end:.3e}, outside {tol:g}",
            bracket=(lo, hi),
        )
    scale = 1.0 / np.sqrt(i2)
    fR = metric.f(radius)
    return RadialEigen(
        metric=metric, radius=radius, lam=float(lam), alpha=float(scale),
        i1=float(scale * i1), boundary_slope=float(scale * v_end),
        flux_l1=float(2.0 * np.pi * fR * abs(scale * v_end)),
        area=disk_area(metric, radius), length=circle_length(metric, radius),
        _sol=sol, _r0=r0, _scale=float(scale),
    )


def sweep_Q(metric: RadialMetric, gamma: float, tau, r_grid) -> list:
    """Torsion monotonicity sweep: rows {r, T, Q} with Q = T / r^(tau/(pi(1-gamma))).

    Q is constant in r on the flat plane and nondecreasing whenever the
    curvature is nonnegative and tau is the true isoperimetric constant.
    """
    tau_v = tau_value(tau)
    gamma = check_gamma(gamma)
    exponent = tau_v / (np.pi * (1.0 - gamma))
    rows = []
    for r in np.asarray(r_grid, dtype=float):
        T = shoot_torsion(metric, gamma, r).torsion
        rows.append({"r": float(r), "T": T, "Q": T / r ** exponent})
    return rows


def sweep_eigen_Q(metric: RadialMetric, tau, r_grid) -> list:
    """Eigen counterpart: rows {r, lam, Q} with Q = lam * r^(tau/(2 pi)).

    Constant on the flat plane (order -2 homogeneity against exponent 2),
    nonincreasing under nonnegative curvature.
    """
    tau_v = tau_value(tau)
    exponent = tau_v / (2.0 * np.pi)
    rows = []
    for r in np.asarray(r_grid, dtype=float):
        lam = shoot_eigen(metric, r).lam
        rows.append({"r": float(r), "lam": lam, "Q": lam * r ** exponent})
    return rows
