"""Disturbance observation and parameter identification.

Low-pass filtering, the external-wrench observer, Spearman rank
correlation with average-rank tie handling, ground-effect measurement
formulas, and damped Gauss-Newton fits for the thrust, torque, and drag
curves. Fits run offline over immutable sample arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError, InputError
from .groundeffect import _factor, _lever
from .quaternions import _floats, rot_matrix
from .vehicle import VehicleParams


# -- filtering ----------------------------------------------------------------

class LowPass:
    """First-order IIR low-pass with exact unity DC gain.

    The state is a list of Python floats, one per sample component, updated
    as s + alpha * (x - s): the rounding of numpy's elementwise form.
    """

    def __init__(self, cutoff_hz, sample_rate_hz):
        # "not x > 0" style comparisons also reject NaN
        if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0.0):
            raise ConfigError(f"sample rate must be finite and positive, got {sample_rate_hz}")
        if not 0.0 < cutoff_hz < 0.5 * sample_rate_hz:
            raise ConfigError(f"cutoff {cutoff_hz} Hz must be positive and below Nyquist "
                              f"of {sample_rate_hz} Hz")
        dt = 1.0 / sample_rate_hz
        tau = 1.0 / (2.0 * math.pi * cutoff_hz)
        self.alpha = dt / (dt + tau)
        self.state = None

    def update(self, x):
        """Filter a list of floats; returns the state list, which later calls replace."""
        s = self.state
        if s is None:
            s = list(x)
        elif len(s) != len(x):
            raise InputError(f"sample has {len(x)} components, the filter {len(s)}")
        else:
            a = self.alpha
            s = [v + a * (u - v) for v, u in zip(s, x)]
        self.state = s
        return s


class FilteredDerivative:
    """Low-pass the signal, then backward-difference it; update returns both."""

    def __init__(self, cutoff_hz, sample_rate_hz):
        self.lp = LowPass(cutoff_hz, sample_rate_hz)
        self.dt = 1.0 / sample_rate_hz
        self._prev = None

    def update(self, x):
        """(filtered value, its rate) as lists for a list of floats; the first rate is zero."""
        y = self.lp.update(x)
        prev, self._prev = self._prev, y
        if prev is None:
            return y, [0.0] * len(y)
        dt = self.dt
        return y, [(a - b) / dt for a, b in zip(y, prev)]


# -- wrench observer ----------------------------------------------------------

@dataclass
class WrenchEstimate:
    accel: np.ndarray     # external specific force, world frame, m/s^2
    torque: np.ndarray    # external torque, body frame, N m


def wrench_observer(R, f, thrust, w, wd, tau_b, m, J):
    """External wrench from filtered measurements.

    accel: R f_imu - z_B T/m, the residual world acceleration not explained
    by the rotors. torque: J w_dot + w x J w - tau_B (``J.torque``). R is
    the attitude matrix, J an InertiaOperator, m the mass, thrust a float
    and the rest float triples.
    """
    f0, f1, f2 = R.dot(np.array(f)).tolist()
    z0, z1, z2 = R[:, 2].tolist()
    k = thrust / m
    a_ext = [f0 - z0 * k, f1 - z1 * k, f2 - z2 * k]
    t0, t1, t2 = J.torque(w, wd)
    b0, b1, b2 = tau_b
    return WrenchEstimate(np.array(a_ext), np.array([t0 - b0, t1 - b1, t2 - b2]))


class WrenchObserverRunner:
    """Stateful observer: owns the input filters."""

    def __init__(self, vehicle: VehicleParams, sample_rate_hz, cutoff_hz):
        self.vehicle = vehicle
        self.f_accel = LowPass(cutoff_hz, sample_rate_hz)
        self.f_thrust = LowPass(cutoff_hz, sample_rate_hz)
        self.f_omega = FilteredDerivative(cutoff_hz, sample_rate_hz)
        self._J = vehicle.inertia_op

    def update(self, R, specific_force, thrust, omega, tau_b):
        """Feed one synchronized sample at attitude matrix R; returns the current WrenchEstimate."""
        f_f = self.f_accel.update(_floats(specific_force))
        (T_f,) = self.f_thrust.update([float(thrust)])
        w_f, wd_f = self.f_omega.update(_floats(omega))
        return wrench_observer(R, f_f, T_f, w_f, wd_f, _floats(tau_b), self.vehicle.m, self._J)


# -- rank correlation ---------------------------------------------------------

def average_ranks(values):
    """1-based ranks, ties get the mean of the positions they straddle."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y):
    """Rank correlation in [-1, 1]; exactly +-1 for strictly monotone pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError("sequences must be 1-d and of equal length")
    if len(x) < 3:
        raise InputError("need at least 3 samples")
    a = average_ranks(x)
    b = average_ranks(y)
    a -= a.mean()
    b -= b.mean()
    den_sq = float(a @ a) * float(b @ b)
    if den_sq == 0.0:
        raise InputError("constant sequence: rank correlation undefined")
    return float(a @ b) / math.sqrt(den_sq)


# -- ground-effect measurements ------------------------------------------------

def thrust_factor_from_platform(f_z, thrust):
    """Extra-thrust fraction from a force-platform reading: f_z/T - 1 (T > 1e-6 N)."""
    if thrust <= 1e-6:
        raise InputError("thrust too small to normalize a platform sample")
    return float(f_z) / float(thrust) - 1.0


# -- damped Gauss-Newton -------------------------------------------------------

@dataclass
class FitReport:
    names: list
    params: np.ndarray
    residual_rms: float
    n_samples: int
    ci95: np.ndarray
    iterations: int

    def to_dict(self):
        return {
            "params": {n: float(p) for n, p in zip(self.names, self.params)},
            "ci95": {n: float(c) for n, c in zip(self.names, self.ci95)},
            "residual_rms": float(self.residual_rms),
            "n_samples": int(self.n_samples),
            "iterations": int(self.iterations),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self):
        lines = [f"fit over {self.n_samples} samples, {self.iterations} iterations"]
        for n, p, c in zip(self.names, self.params, self.ci95):
            lines.append(f"  {n} = {p:.8g} (+- {c:.3g})")
        lines.append(f"  residual RMS = {self.residual_rms:.6g}")
        return "\n".join(lines)


def _numeric_jacobian(f, p):
    r0 = f(p)
    J = np.empty((len(r0), len(p)))
    for i in range(len(p)):
        step = 1e-7 * max(abs(p[i]), 1e-2)
        pp = p.copy()
        pp[i] += step
        pm = p.copy()
        pm[i] -= step
        J[:, i] = (f(pp) - f(pm)) / (2.0 * step)
    return J


def levenberg_fit(residual, p0, names):
    """Gauss-Newton with Levenberg damping on a residual function.

    Converges when the relative parameter step drops below 1e-10 within 200
    iterations; raises FitError on non-convergence or on normal equations
    with a condition number above 1e12 (rank-deficient).
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual(p)
    cost = float(r @ r)
    lam = 1e-3
    for iterations in range(1, 201):
        J = _numeric_jacobian(residual, p)
        JtJ = J.T @ J
        if np.linalg.cond(JtJ) > 1e12:
            raise FitError(
                "normal equations rank-deficient: parameters unidentifiable "
                f"(residual RMS {math.sqrt(cost / len(r)):.4g})"
            )
        g = J.T @ r
        scale = np.diag(np.maximum(np.diag(JtJ), 1e-12))
        accepted = False
        for _ in range(60):
            try:
                delta = np.linalg.solve(JtJ + lam * scale, -g)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            r_new = residual(p + delta)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                p = p + delta
                r, cost = r_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 4.0
            if lam > 1e14:
                break
        if not accepted:
            raise FitError(
                f"damping exhausted after {iterations} iterations "
                f"(residual RMS {math.sqrt(cost / len(r)):.4g})"
            )
        if np.linalg.norm(delta) < 1e-10 * (np.linalg.norm(p) + 1e-30):
            break
    else:
        raise FitError(
            f"no convergence in {iterations} iterations "
            f"(residual RMS {math.sqrt(cost / len(r)):.4g})"
        )
    # linearized covariance for the confidence intervals
    J = _numeric_jacobian(residual, p)
    dof = max(len(r) - len(p), 1)
    sigma_sq = cost / dof
    JtJ = J.T @ J
    if np.linalg.cond(JtJ) > 1e12:
        ci = np.full(len(p), np.inf)
    else:
        ci = 1.96 * np.sqrt(np.maximum(np.diag(sigma_sq * np.linalg.inv(JtJ)), 0.0))
    rms = math.sqrt(cost / len(r))
    return FitReport(list(names), p, rms, len(r), ci, iterations)


def fit_thrust_factor(h, f_measured):
    """Identify (g1, g2) of the extra-thrust curve g2/(h^2+g1)."""
    h = np.asarray(h, dtype=float)
    f_measured = np.asarray(f_measured, dtype=float)
    if len(h) < 10:
        raise FitError("need at least 10 samples")
    span = h.max() / max(h.min(), 1e-12)
    if span < 3.0:
        raise FitError(
            f"altitude span factor {span:.2f} < 3: (g1, g2) unidentifiable"
        )

    def residual(p):
        return _factor(h, *p) - f_measured

    g1_0 = float(np.median(h)) ** 2
    g2_0 = max(float(f_measured.max()), 1e-3) * (float(h.min()) ** 2 + g1_0)
    return levenberg_fit(residual, [g1_0, g2_0], ["g1", "g2"])


def fit_thrust_factor_from_log(log, vehicle: VehicleParams):
    """Extra-thrust fit over a trajectory log: samples m a_ext,z / (k_t sum n^2).

    The observer's vertical external acceleration over the rotor thrust is
    the flight reading of F(h); rows with thrust <= 1e-6 N carry none.
    """
    thrust = vehicle.k_t * np.sum(log.cols(["n1", "n2", "n3", "n4"]) ** 2, axis=1)
    ok = thrust > 1e-6
    return fit_thrust_factor(log.col("h")[ok], vehicle.m * log.col("obs_aext_z")[ok] / thrust[ok])


def fit_torque_lever(h, tilt, thrust, torque_mag):
    """Identify (g3, g4, g5) of lever(h) from |torque| = lever * T * sin(tilt), tilt <= 10 deg."""
    h = np.asarray(h, dtype=float)
    tilt = np.asarray(tilt, dtype=float)
    thrust = np.asarray(thrust, dtype=float)
    torque_mag = np.asarray(torque_mag, dtype=float)
    if np.any(np.degrees(tilt) > 10.0 + 1e-9):
        raise FitError("samples beyond the 10.0 deg linear regime")
    lever_obs = torque_mag / (thrust * np.sin(tilt))

    def residual(p):
        return _lever(h, *p) * thrust * np.sin(tilt) - torque_mag

    hp = float(h[np.argmax(lever_obs)])
    g4_0 = 3.0 * hp * hp
    g5_0 = float(lever_obs.max()) * (hp * hp + g4_0) ** 2 / hp
    return levenberg_fit(residual, [0.0, g4_0, g5_0], ["g3", "g4", "g5"])


@dataclass
class DragFit:
    d_x: float
    d_y: float
    stderr_x: float
    stderr_y: float
    n_samples: int


def _slope_with_stderr(x, y):
    n = len(x)
    A = np.column_stack([x, np.ones(n)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    sxx = float(np.sum((x - x.mean()) ** 2))
    sigma_sq = float(resid @ resid) / max(n - 2, 1)
    return float(coef[0]), math.sqrt(sigma_sq / sxx)


def fit_drag_coefficients(v_body, a_ext_body, mass):
    """Drag coefficients (kg/s) from body-frame velocity and external accel.

    Regresses each in-plane acceleration component on the matching velocity
    component; the drag coefficient is mass times the slope magnitude. Each
    in-plane velocity component must reach 0.3 m/s somewhere.
    """
    v_body = np.asarray(v_body, dtype=float)
    a_ext_body = np.asarray(a_ext_body, dtype=float)
    if np.max(np.abs(v_body[:, 0])) < 0.3 or np.max(np.abs(v_body[:, 1])) < 0.3:
        raise FitError("insufficient velocity excitation (< 0.3 m/s)")
    sx, ex = _slope_with_stderr(v_body[:, 0], a_ext_body[:, 0])
    sy, ey = _slope_with_stderr(v_body[:, 1], a_ext_body[:, 1])
    return DragFit(abs(sx) * mass, abs(sy) * mass, ex * mass, ey * mass, len(v_body))


def fit_drag_from_log(log, vehicle: VehicleParams):
    """Drag fit over a trajectory-log segment flown at roughly fixed altitude."""
    q = log.cols(["qw", "qx", "qy", "qz"])
    v = log.cols(["vx", "vy", "vz"])
    a_ext = log.cols(["obs_aext_x", "obs_aext_y", "obs_aext_z"])
    v_body = np.empty((len(log), 3))
    a_body = np.empty((len(log), 3))
    for i in range(len(log)):
        R = rot_matrix(q[i])
        v_body[i] = R.T @ v[i]
        a_body[i] = R.T @ a_ext[i]
    return fit_drag_coefficients(v_body[:, :2], a_body[:, :2], vehicle.m)
