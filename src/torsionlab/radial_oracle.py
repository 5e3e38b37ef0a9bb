"""High-accuracy radial solver used as ground truth for the finite elements.

On a rotationally symmetric surface ds^2 = dr^2 + f(r)^2 dtheta^2, the
torsion problem collapses to the ODE u'' + (f'/f) u' = -max(u, 0)^gamma
with u'(0) = 0, and the ground mode to the same operator with source
-lam u.  Both are integrated with DOP853 at tight tolerances from a series
start just off the pole, and the remaining scalar (the center value alpha,
or lam) is pinned by a bracket search plus Brent's method.

Radii are shot in lockstep, for torsion and ground mode alike.  Each radius
R_k is integrated in s = r / R_k, so that all of them end at s = 1 and one
``solve_ivp`` carries any number of them; each runs its own bracket-and-Brent
search, written as a generator, and every round shoots the trial values of
all of them at once.  A sweep thus costs about a dozen integrations whatever
its length, and a single shot is the one-radius case.  Every torsion search
starts at the flat-law value alpha = (R^2/4)^(1/(1-gamma)), exact up to a
gamma-dependent factor on the flat disk, and every eigenvalue search at the
flat-disk value j_0^2 / R^2.

Interior zeros of each trial eigenmode are counted with one integration
event per radius, which keeps the eigenvalue search locked onto the ground
branch.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy.integrate import solve_ivp
# bound here so that perfbench's tracer finds radial_oracle.brentq; every
# root search runs through _brent
from scipy.optimize import brentq  # noqa: F401

from .errors import DomainError, OracleError
from .geometry import (FLAT_DISK_EIGENVALUE, RadialMetric, check_gamma,
                       check_radius, circle_length, disk_area, flat_metric,
                       tau_value)

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
_EIGEN_LAND_TOL = 1e-9  # |u(R)| / u(0) allowed in the final eigen shot
# radii per lockstep shot: rtol / sqrt(n) stays above the 100 eps floor
# below which solve_ivp raises rtol
_BATCH = 64


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
    neg_R2 = -R * R
    pair = metric.warp_pair

    def rhs(s, y):
        u, v = y[:n], y[n:2 * n]
        f, df = pair(R * s)
        up = np.maximum(u, 0.0) ** gamma
        dv = neg_R2 * up - R * df / f * v
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


def _brent(xpre, fpre, xcur, fcur, what):
    """Brent's method on a sign-changing bracket with known end values, as
    a generator: it yields each trial point, is sent the function value
    there, and returns the root.  Step for step this is scipy's brentq
    with xtol = 1e-300 and rtol = _BRENT_RTOL, its end values reused.
    ``what`` names the root in the error raised on non-convergence."""
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
    raise OracleError(f"Brent's method did not converge on {what}",
                      bracket=tuple(sorted((xcur, xblk))))


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
            return (yield from _brent(lo, g_lo, hi, g_hi,
                                      "the torsion center value"))
        alpha, g = trial, g_trial
    raise OracleError("could not bracket the torsion center value",
                      bracket=tuple(sorted((alpha, alpha * factor))))


def _lockstep(searches, shoot):
    """Run one root search per radius, all in lockstep, and return the roots.

    Each round calls ``shoot`` once on the current trial values of all the
    radii and sends each open search its own entry of the result.  A closed
    search keeps its root in the shot, so that every round integrates the
    same system to the same tolerances.
    """
    trials = np.array([next(search) for search in searches])
    open_ = list(range(len(searches)))
    while open_:
        shots = shoot(trials)
        for k in list(open_):
            try:
                trials[k] = searches[k].send(shots[k])
            except StopIteration as done:
                trials[k] = done.value
                open_.remove(k)
    return trials


def _shoot(metric, gamma, radii, tol, dense=False):
    """Center values of the radii and their final augmented shot.

    Every radius runs its own :func:`_center_value` search, started at the
    flat-law value (R^2/4)^(1/(1-gamma)), in :func:`_lockstep`: one
    :func:`_integrate_torsion` per round.  ``tol`` bounds each |u(R)|
    relative to its alpha in the final shot.
    """
    alpha0 = (radii * radii / 4.0) ** (1.0 / (1.0 - gamma))
    if not np.all((alpha0 >= np.finfo(float).tiny) & (alpha0 < np.inf)):
        raise OracleError("the torsion center value leaves float64 range")
    n = len(radii)
    alphas = _lockstep(
        [_center_value(float(a)) for a in alpha0],
        lambda trials: _integrate_torsion(metric, gamma, radii, trials,
                                          False).y[:n, -1].tolist())
    sol = _integrate_torsion(metric, gamma, radii, alphas, True, dense)
    u_end = sol.y[:n, -1]
    missed = np.flatnonzero(np.abs(u_end) > tol * alphas)
    if missed.size:
        raise OracleError(f"shot landed at u(R) = {u_end[missed[0]]:.3e}, "
                          f"outside {tol:g} * alpha")
    return alphas, sol


class _ShotProfile:
    """Evaluation of a shot radial profile: the dense ODE solution, in the
    variable s = r / radius, scaled by ``_scale``, with the series start
    ``_series`` below s = _START_FRAC."""

    @property
    def r_nodes(self) -> np.ndarray:
        return self.radius * self._sol.t

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
        r0 = _START_FRAC * self.radius
        inner = self._series(rc, comp)
        outer = (self._sol.sol(np.maximum(rc, r0) / self.radius)[comp]
                 / self.radius ** comp)
        return self._scale * np.where(rc < r0, inner, outer)


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
    _scale: float = dataclasses.field(default=1.0, repr=False, compare=False)

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
        _sol=sol,
    )


@functools.lru_cache(maxsize=None)
def _flat_unit_disk_torsion(gamma: float) -> float:
    return shoot_torsion(flat_metric(), gamma, 1.0).torsion


def flat_disk_torsion(gamma: float, radius: float) -> float:
    """T of the flat disk B_radius via the homogeneity T(r B) = r^(4/(1-gamma)) T(B).

    Raises OracleError where that leaves the normal float64 range, as it
    does near gamma = 1 for small or large radii.
    """
    gamma = check_gamma(gamma)
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    try:
        t = float(radius) ** (4.0 / (1.0 - gamma)) * _flat_unit_disk_torsion(gamma)
    except OverflowError:
        t = np.inf
    if not np.finfo(float).tiny <= t < np.inf:
        raise OracleError(f"T of the flat disk of radius {radius:g} at "
                          f"gamma={gamma:g} leaves float64 range ({t:g})")
    return t


def _integrate_eigen(metric, radii, lams, augmented, dense=False):
    """One DOP853 shot of n trial modes at once, in s = r / R_k, as
    :func:`_integrate_torsion` shoots torsion, with atol and rtol divided by
    sqrt(n) as there.

    The state is U_k(s) = u(R_k s) with u(0) = 1 and V_k = R_k u'(R_k s), in
    blocks of n: y = [U, V], with the integrals [int u dA, int u^2 dA] after
    them when ``augmented``.  A search round (not ``augmented``) counts the
    interior zeros of each U_k with one event per radius, in
    ``sol.t_events[k]``.
    """
    n = len(radii)
    R = radii
    neg_k2 = -R * R * lams
    pair = metric.warp_pair

    def rhs(s, y):
        u, v = y[:n], y[n:2 * n]
        f, df = pair(R * s)
        dv = neg_k2 * u - R * df / f * v
        if not augmented:
            return np.concatenate((v, dv))
        two_pi_f_R = 2.0 * np.pi * f * R
        return np.concatenate((v, dv, two_pi_f_R * u, two_pi_f_R * u * u))

    r0 = _START_FRAC * R
    y0 = [1.0 - lams * r0 * r0 / 4.0, -R * lams * r0 / 2.0]
    atol = [np.full(n, 1e-14), 1e-14 * R]
    if augmented:
        y0 += [np.pi * r0 * r0] * 2
        atol += [np.full(2 * n, 1e-14)]
        events = None
    else:
        events = [lambda s, y, k=k: y[k] for k in range(n)]
    root_n = np.sqrt(n)
    sol = solve_ivp(rhs, (_START_FRAC, 1.0), np.concatenate(y0),
                    method="DOP853", rtol=_RTOL / root_n,
                    atol=np.concatenate(atol) / root_n, events=events,
                    dense_output=dense)
    if not sol.success:
        raise OracleError(f"eigen shooting failed: {sol.message}")
    return sol


def _ground_value(lam):
    """Search for the ground eigenvalue from the guess ``lam``, as a
    generator like :func:`_brent` that is sent the zero count and the end
    value u(R) of each trial mode.

    Trial modes with no interior zero sit below the ground value, modes with
    an interior zero above it.  Halving ``lo`` until its mode is zero-free,
    doubling ``hi`` until its mode has a zero, then bisecting on the zero
    count pins a bracket on which u(R; lam) changes sign exactly once, and
    Brent's method finishes it off.  Each trial value is shot once.
    """
    lo = hi = lam
    lo_shot = hi_shot = yield lam
    for _ in range(_BRACKET_CAP):
        if lo_shot[0] == 0:
            break
        lo *= 0.5
        lo_shot = yield lo
    else:
        raise OracleError("no zero-free trial mode found", bracket=(lo, hi))
    for _ in range(_BRACKET_CAP):
        if hi_shot[0] >= 1:
            break
        hi *= 2.0
        hi_shot = yield hi
    else:
        raise OracleError("no oscillating trial mode found", bracket=(lo, hi))
    for _ in range(_BRACKET_CAP):
        if hi_shot[0] == 1 and hi <= 1.2 * lo:
            break
        mid = 0.5 * (lo + hi)
        mid_shot = yield mid
        if mid_shot[0] == 0:
            lo, lo_shot = mid, mid_shot
        else:
            hi, hi_shot = mid, mid_shot
    else:
        raise OracleError("zero-count bisection stalled", bracket=(lo, hi))
    # Brent's method is sent the end values alone
    brent = _brent(lo, lo_shot[1], hi, hi_shot[1], "the ground eigenvalue")
    try:
        trial = next(brent)
        while True:
            trial = brent.send((yield trial)[1])
    except StopIteration as done:
        return done.value


def _shoot_eigen(metric, radii, tol, dense=False):
    """Ground eigenvalues of the radii and their final augmented shot.

    Every radius runs its own :func:`_ground_value` search, started at the
    flat-disk value j_0^2 / R^2, in :func:`_lockstep`: one
    :func:`_integrate_eigen` per round, which sends each search the zero
    count and end value of its trial mode.  ``tol`` bounds each |u(R)|
    relative to the center value in the final shot.
    """
    n = len(radii)

    def shoot(trials):
        sol = _integrate_eigen(metric, radii, trials, False)
        return list(zip(map(len, sol.t_events), sol.y[:n, -1].tolist()))

    lams = _lockstep([_ground_value(FLAT_DISK_EIGENVALUE / float(r) ** 2)
                      for r in radii], shoot)
    sol = _integrate_eigen(metric, radii, lams, True, dense)
    u_end = sol.y[:n, -1]
    missed = np.flatnonzero(np.abs(u_end) > tol)
    if missed.size:
        raise OracleError(f"eigen shot landed at u(R) = "
                          f"{u_end[missed[0]]:.3e}, outside {tol:g}")
    return lams, sol


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
    _scale: float = dataclasses.field(repr=False, compare=False)

    def _series(self, rc, comp):
        if comp == 0:
            return 1.0 - self.lam * rc * rc / 4.0
        return -self.lam * rc / 2.0


def shoot_eigen(metric: RadialMetric, radius: float,
                tol: float = _EIGEN_LAND_TOL) -> RadialEigen:
    """Ground eigenvalue by zero counting, then Brent on the endpoint value.

    The one-radius case of the lockstep shot behind :func:`sweep_eigen_Q`
    (see :func:`_ground_value`).  ``tol`` bounds |u(R)| relative to the
    center value.
    """
    radius = float(check_radius(metric, radius))
    (lam,), sol = _shoot_eigen(metric, np.array([radius]), tol, dense=True)
    _, v_end, i1, i2 = sol.y[:, -1]
    scale = 1.0 / np.sqrt(i2)
    slope = scale * v_end / radius
    fR = metric.f(radius)
    return RadialEigen(
        metric=metric, radius=radius, lam=float(lam), alpha=float(scale),
        i1=float(scale * i1), boundary_slope=float(slope),
        flux_l1=float(2.0 * np.pi * fR * abs(slope)),
        area=disk_area(metric, radius), length=circle_length(metric, radius),
        _sol=sol, _scale=float(scale),
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
    nonincreasing under nonnegative curvature.  The radii are shot in
    lockstep (see :func:`_shoot_eigen`), up to _BATCH at a time, in any
    order.
    """
    tau_v = tau_value(tau)
    exponent = tau_v / (2.0 * np.pi)
    radii = check_radius(metric, np.asarray(r_grid, dtype=float).ravel())
    rows = []
    for i in range(0, radii.size, _BATCH):
        batch = radii[i:i + _BATCH]
        lams = _shoot_eigen(metric, batch, _EIGEN_LAND_TOL)[0]
        for r, lam in zip(batch, lams):
            lam = float(lam)
            rows.append({"r": float(r), "lam": lam, "Q": lam * r ** exponent})
    return rows
