"""High-accuracy radial solver used as ground truth for the finite elements.

On a rotationally symmetric surface ds^2 = dr^2 + f(r)^2 dtheta^2, the
torsion problem collapses to the ODE u'' + (f'/f) u' = -max(u, 0)^gamma
with u'(0) = 0, and the ground mode to the same operator with source
-lam u.  Both are integrated with DOP853 at tight tolerances from a series
start just off the pole, and the remaining scalar (the center value alpha,
or lam) is pinned by a doubling/halving bracket plus Brent's method.

Torsion radii are shot in lockstep.  Each radius R_k is integrated in
s = r / R_k, so that all of them end at s = 1 and one ``solve_ivp`` carries
any number of them; each runs its own bracket-and-Brent search, written as
a generator, and every round shoots the trial values of all of them at
once.  A torsion sweep thus costs about a dozen integrations whatever its
length, and a single shot is the one-radius case.  Every search starts at
the flat-law value alpha = (R^2/4)^(1/(1-gamma)), exact up to a
gamma-dependent factor on the flat disk.

Interior zeros of the trial eigenmode are counted with integration events,
which keeps the eigenvalue search locked onto the ground branch; eigenvalue
sweeps shoot one radius at a time.
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
_BRENT_MAXITER = 100  # brentq's default
# A cap on the step in s.  The source max(u, 0)^gamma is not smooth where u
# reaches 0 at the rim, and a long last step there went unnoticed by the
# error estimate: without the cap T was off by up to ~1e-11 (gamma near 0
# or 1) and 4e-11 on small disks, where the steps grow tenfold each.
_MAX_STEP = 0.05
_LAND_TOL = 1e-10  # |u(R)| / alpha allowed in the final shot
# radii per lockstep shot: rtol / sqrt(n) stays above the 100 eps floor
# below which solve_ivp raises rtol
_BATCH = 64
FLAT_DISK_EIGENVALUE = 5.783185962946785  # square of the first zero of J0


def _integrate_torsion(metric, gamma, radii, alphas, augmented, dense=False):
    """One DOP853 shot of n radii at once, in s = r / R_k from the series
    start s = _START_FRAC to the rim s = 1.

    The state is U_k(s) = u(R_k s) and V_k = R_k u'(R_k s), in blocks of n:
    y = [U, V], with the area integrals [T, I_gamma, I_1+gamma] after them
    when ``augmented``.  The RMS error norm over n radii bounds each radius
    as tightly as a one-radius shot once atol and rtol are divided by
    sqrt(n).
    """
    n = len(radii)
    R = radii

    def rhs(s, y):
        u, v = y[:n], y[n:2 * n]
        r = R * s
        f = metric.f(r)
        up = np.maximum(u, 0.0) ** gamma
        dv = -R * R * up - R * metric.df(r) / f * v
        if not augmented:
            return np.concatenate((v, dv))
        two_pi_f = 2.0 * np.pi * f
        return np.concatenate((v, dv, two_pi_f * v * v / R, two_pi_f * R * up,
                               two_pi_f * R * up * np.maximum(u, 0.0)))

    r0 = _START_FRAC * R
    ag = alphas ** gamma
    y0 = [alphas - ag * r0 * r0 / 4.0, -R * ag * r0 / 2.0]
    atol = [1e-14 * alphas, 1e-14 * alphas * R]
    if augmented:
        y0 += [np.pi * ag * ag * r0 ** 4 / 8.0,
               np.pi * ag * r0 * r0,
               np.pi * ag * alphas * r0 * r0]
        atol += [1e-14 * alphas] * 3
    root_n = np.sqrt(n)
    sol = solve_ivp(rhs, (_START_FRAC, 1.0), np.concatenate(y0),
                    method="DOP853", rtol=_RTOL / root_n,
                    atol=np.concatenate(atol) / root_n, max_step=_MAX_STEP,
                    dense_output=dense)
    if not sol.success:
        raise OracleError(f"torsion shooting failed: {sol.message}")
    return sol


def _brent(xpre, fpre, xcur, fcur):
    """Brent's method on a sign-changing bracket with known end values, as
    a generator: it yields each trial point, is sent the function value
    there, and returns the root.  Step for step this is scipy's brentq
    with xtol = 1e-300 and rtol = _BRENT_RTOL, its end values reused."""
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-300 + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        if stry is not None and 2.0 * abs(stry) < min(abs(spre),
                                                      3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = yield xcur
    raise OracleError("Brent's method did not converge on the torsion center "
                      "value", bracket=tuple(sorted((xcur, xblk))))


def _center_value(alpha):
    """Root search for u(R; alpha) = 0 from the guess ``alpha``, as a
    generator like :func:`_brent`.

    The boundary map alpha -> u(R; alpha) is strictly increasing, so
    halving the guess while u(R) > 0, or doubling it while u(R) < 0,
    brackets the root, and Brent's method finishes it off.
    """
    g = yield alpha
    factor = 0.5 if g > 0.0 else 2.0
    for _ in range(_BRACKET_CAP):
        trial = alpha * factor
        g_trial = yield trial
        if g_trial <= 0.0 if factor < 1.0 else g_trial >= 0.0:
            (lo, g_lo), (hi, g_hi) = sorted([(alpha, g), (trial, g_trial)])
            return (yield from _brent(lo, g_lo, hi, g_hi))
        alpha, g = trial, g_trial
    raise OracleError("could not bracket the torsion center value",
                      bracket=tuple(sorted((alpha, alpha * factor))))


def _shoot(metric, gamma, radii, tol, dense=False):
    """Center values of the radii and their final augmented shot.

    Every radius runs its own :func:`_center_value` search, started at the
    flat-law value (R^2/4)^(1/(1-gamma)); each round shoots the current
    trial value of every radius in one :func:`_integrate_torsion`.  A closed
    search keeps its root in the shot, so that every round integrates the
    same system to the same tolerances.  ``tol`` bounds each |u(R)|
    relative to its alpha in the final shot.
    """
    alpha0 = (radii * radii / 4.0) ** (1.0 / (1.0 - gamma))
    if not np.all((alpha0 >= np.finfo(float).tiny) & (alpha0 < np.inf)):
        raise OracleError("the torsion center value leaves float64 range")
    searches = [_center_value(float(a)) for a in alpha0]
    alphas = np.array([next(search) for search in searches])
    open_ = list(range(len(radii)))
    while open_:
        sol = _integrate_torsion(metric, gamma, radii, alphas, False)
        for k in list(open_):
            try:
                alphas[k] = searches[k].send(float(sol.y[k, -1]))
            except StopIteration as done:
                alphas[k] = done.value
                open_.remove(k)

    sol = _integrate_torsion(metric, gamma, radii, alphas, True, dense)
    u_end = sol.y[:len(radii), -1]
    missed = np.flatnonzero(np.abs(u_end) > tol * alphas)
    if missed.size:
        raise OracleError(f"shot landed at u(R) = {u_end[missed[0]]:.3e}, "
                          f"outside {tol:g} * alpha")
    return alphas, sol


class _ShotProfile:
    """Evaluation of a shot radial profile: the dense ODE solution, in the
    variable r / ``_unit``, scaled by ``_scale``, with the series start
    ``_series`` below r0 = ``_r0``."""

    _unit = 1.0

    @property
    def r_nodes(self) -> np.ndarray:
        return self._unit * self._sol.t

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
        outer = (self._sol.sol(np.maximum(rc, self._r0) / self._unit)[comp]
                 / self._unit ** comp)
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

    @property
    def _unit(self):  # the shot runs in s = r / radius
        return self.radius

    def _series(self, rc, comp):
        ag = self.alpha ** self.gamma
        if comp == 0:
            return self.alpha - ag * rc * rc / 4.0
        return -ag * rc / 2.0


def shoot_torsion(metric: RadialMetric, gamma: float, radius: float,
                  tol: float = _LAND_TOL) -> RadialProfile:
    """Shoot for the center value alpha with u(R) = 0, then integrate.

    The one-radius case of the lockstep shot behind :func:`sweep_Q`.
    ``tol`` bounds |u(R)| relative to alpha in the returned profile.
    """
    radius = float(check_radius(metric, radius))
    gamma = check_gamma(gamma)
    (alpha,), sol = _shoot(metric, gamma, np.array([radius]), tol, dense=True)
    _, v_end, torsion, i_g, i_1g = sol.y[:, -1]
    slope = v_end / radius
    fR = metric.f(radius)
    return RadialProfile(
        metric=metric, gamma=gamma, radius=radius, alpha=float(alpha),
        torsion=float(torsion), i_gamma=float(i_g),
        i_one_plus_gamma=float(i_1g), boundary_slope=float(slope),
        flux_l1=float(2.0 * np.pi * fR * abs(slope)),
        area=disk_area(metric, radius), length=circle_length(metric, radius),
        _sol=sol, _r0=_START_FRAC * radius,
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
    The radii are shot in lockstep (see :func:`_shoot`), up to _BATCH at a
    time, in any order.
    """
    tau_v = tau_value(tau)
    gamma = check_gamma(gamma)
    exponent = tau_v / (np.pi * (1.0 - gamma))
    radii = check_radius(metric, np.asarray(r_grid, dtype=float).ravel())
    rows = []
    for i in range(0, radii.size, _BATCH):
        batch = radii[i:i + _BATCH]
        sol = _shoot(metric, gamma, batch, _LAND_TOL)[1]
        for r, T in zip(batch, sol.y[2 * batch.size:3 * batch.size, -1]):
            T = float(T)
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
