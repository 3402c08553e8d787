"""Position/attitude/rate cascade with ground-effect compensation.

Acceleration command with model feedforward, quaternion attitude error,
body-rate loop, torque by model inversion with the altitude-dependent
inertia or by incremental inversion from the measured rotor torque, and
rotor-speed allocation with thrust-priority saturation handling.

A controller instance owns filter state; each tick returns the command
together with the signals its log row records. It is stepped by one
scenario runner and is not safe for concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import quaternions as quat
from .errors import ControllerFault, InputError, ParameterError
from .estimation import FilteredDerivative, WrenchEstimate, WrenchObserverRunner
from .flatness import FlatOutput, FlatReference, flat_reference
from .groundeffect import GroundEffectParams, drag_coefficients, thrust_factor
from .simulator import SimConfig
from .vehicle import GRAVITY, VehicleParams

ACCEL_MODES = ("none", "indi", "model")
TORQUE_MODES = ("none", "model", "indi", "hybrid")
Z_W = np.array([0.0, 0.0, 1.0])


@dataclass
class ControlGains:
    """The compensation modes; the cascade's gains and filter cutoffs are fixed."""
    accel_comp: str = "model"
    torque_comp: str = "hybrid"
    kp: ClassVar[tuple] = (6.0, 6.0, 8.0)         # position, 1/s^2
    kv: ClassVar[tuple] = (4.0, 4.0, 5.0)         # velocity, 1/s
    kxi: ClassVar[tuple] = (12.0, 12.0, 8.0)      # attitude, 1/s
    komega: ClassVar[tuple] = (60.0, 60.0, 40.0)  # body rate, 1/s
    gyro_cutoff: ClassVar[float] = 40.0       # Hz, rate loop filters
    observer_cutoff: ClassVar[float] = 20.0   # Hz, wrench observer filters

    def __post_init__(self):
        if self.accel_comp not in ACCEL_MODES:
            raise ParameterError(f"accel_comp must be one of {ACCEL_MODES}")
        if self.torque_comp not in TORQUE_MODES:
            raise ParameterError(f"torque_comp must be one of {TORQUE_MODES}")


@dataclass
class ControlCommand:
    """One tick's record: allocate fills the command, tick the signals behind it for the log."""
    thrust: float
    torque: np.ndarray
    rotor_speeds: np.ndarray
    saturated: bool = False
    yaw_shed: bool = False
    rp_shed: bool = False
    thrust_clipped: bool = False
    flat: FlatOutput | None = field(default=None, init=False)
    reference: FlatReference | None = field(default=None, init=False)
    attitude_target: list | np.ndarray | None = field(default=None, init=False)
    wrench: WrenchEstimate | None = field(default=None, init=False)


# -- cascade stages ------------------------------------------------------------

def acceleration_command(flat, ref, p_hat, v_hat, gains: ControlGains,
                         vehicle: VehicleParams, ge: GroundEffectParams, a_ext_est):
    """Desired acceleration: reference + PD error + disturbance compensation.

    Model mode removes the predicted drag and ground-force accelerations
    evaluated at the desired state; indi mode removes the observed external
    acceleration a_ext_est instead. Gravity is not included here.
    """
    a_des = (
        flat.a
        + gains.kp * (flat.p - np.asarray(p_hat, float))
        + gains.kv * (flat.v - np.asarray(v_hat, float))
    )
    if gains.accel_comp == "model":
        R = quat.rot_matrix(ref.attitude)
        h = flat.p[2] + vehicle.rotor_plane_offset
        dx, dy = drag_coefficients(h, ge)
        a_drag = -(R.dot(np.diag([dx, dy, 0.0])).dot(R.T.dot(flat.v))) / vehicle.m
        a_ground = (ref.thrust / vehicle.m) * thrust_factor(h, ge) * R[:, 2]
        a_des = a_des - a_drag - a_ground
    elif gains.accel_comp == "indi":
        a_des = a_des - np.asarray(a_ext_est, float)
    return a_des


def attitude_error_vector(q_hat, q_des):
    """Body-frame rotation vector taking the estimate to the target.

    Error quaternion conj(q_hat) * q_des, sign-lifted to w >= 0, converted
    through the angle/axis map. Insensitive to the quaternion double cover.
    """
    q_hat, q_des = np.asarray(q_hat, float), np.asarray(q_des, float)
    _check_unit(q_hat)
    _check_unit(q_des)
    return np.array(_attitude_error(q_hat.tolist(), q_des.tolist()))


def _check_unit(q):
    """Reject a float64 quaternion array whose squared norm is off 1 by more than 1e-6 or NaN."""
    if not abs(float(q.dot(q)) - 1.0) <= 1e-6:
        raise InputError("attitude quaternions must be unit norm")


def _attitude_error(q_hat, q_des):
    """attitude_error_vector of two unit quaternions given as float lists, as a list."""
    hw, hx, hy, hz = q_hat
    e = quat.multiply([hw, -hx, -hy, -hz], q_des)
    if e[0] < 0.0:
        e = [-v for v in e]
    w = min(e[0], 1.0)
    k = 2.0 if 1.0 - w < 1e-8 else 2.0 * math.acos(w) / math.sqrt(1.0 - w * w)
    return [k * e[1], k * e[2], k * e[3]]


def bodyrate_command(xi_err, omega_ref, omega_f, omega_dot_ref, kxi, komega):
    """Desired body rate and rate derivative from the attitude error.

    Float triples in, two lists out; the gains kxi and komega are float triples.
    """
    omega_des = [k * x + r for k, x, r in zip(kxi, xi_err, omega_ref)]
    return omega_des, [k * (d - f) + r
                       for k, d, f, r in zip(komega, omega_des, omega_f, omega_dot_ref)]


def thrust_command(a_des_total, z_b_hat, mass):
    """Thrust projecting the desired specific force on the body axis; non-finite is a fault."""
    z = np.asarray(z_b_hat, float)
    norm = math.sqrt(float(z.dot(z)))
    if not norm > 0.0:
        raise InputError("body z axis must be non-zero and not NaN")
    thrust = mass * float(np.asarray(a_des_total, float).dot(z)) / norm
    if not math.isfinite(thrust):
        raise ControllerFault(f"non-finite thrust command {thrust}")
    return max(0.0, thrust)


def torque_command_indi(tau_applied, omega_dot_des, omega_dot_f, J):
    """Incremental inversion: applied torque plus inertia-scaled rate-accel error.

    Float triples in, a list out, for the InertiaOperator J. The applied
    torque comes from the rotor speeds measured at the same tick.
    """
    j0, j1, j2 = J.dot([a - b for a, b in zip(omega_dot_des, omega_dot_f)])
    t0, t1, t2 = tau_applied
    return [t0 + j0, t1 + j1, t2 + j2]


def _max_feasible_fraction(base, column, hi):
    """Largest f in [0,1] with base + f*column inside [0, hi], or None."""
    lower, upper = 0.0, 1.0
    for b, c in zip(base, column):
        if abs(c) < 1e-30:
            if b < -1e-9 or b > hi + 1e-9:
                return None
            continue
        l1, l2 = (0.0 - b) / c, (hi - b) / c
        lo_i, hi_i = (l1, l2) if l1 <= l2 else (l2, l1)
        lower = max(lower, lo_i)
        upper = min(upper, hi_i)
    if lower > upper + 1e-12:
        return None
    return max(0.0, upper)


def allocate(thrust_des, torque_des, vehicle: VehicleParams):
    """Rotor speeds realizing (T, tau), shedding yaw first under saturation.

    Unreachable commands degrade in order: scale yaw torque toward zero,
    then scale roll/pitch torque, then clamp the pure-thrust solution. The
    returned command always satisfies 0 <= n <= n_max. A non-finite thrust
    or torque is a ControllerFault.
    """
    cmd = [float(thrust_des)] + np.asarray(torque_des, float).reshape(3).tolist()
    if not all(map(math.isfinite, cmd)):
        raise ControllerFault(f"non-finite command (thrust, torque) = {cmd}")
    thrust_des = cmd[0] = max(0.0, cmd[0])
    Minv = vehicle.mixing_inverse
    hi = vehicle.n_max**2
    values = Minv.dot(np.array(cmd)).tolist()
    top = hi * (1.0 + 1e-12)
    saturated = not all(-1e-9 <= v <= top for v in values)
    yaw_shed = rp_shed = thrust_clipped = False
    if saturated:
        yaw_shed = True
        base = Minv.dot(np.array([thrust_des, cmd[1], cmd[2], 0.0]))
        ycol = Minv.dot(np.array([0.0, 0.0, 0.0, cmd[3]]))
        frac = _max_feasible_fraction(base, ycol, hi)
        if frac is not None:
            n_sq = base + frac * ycol
        else:
            rp_shed = True
            tcol = Minv.dot(np.array([thrust_des, 0.0, 0.0, 0.0]))
            rpcol = Minv.dot(np.array([0.0, cmd[1], cmd[2], 0.0]))
            frac = _max_feasible_fraction(tcol, rpcol, hi)
            if frac is not None:
                n_sq = tcol + frac * rpcol
            else:
                n_sq = np.clip(tcol, 0.0, hi)
                thrust_clipped = True
        values = n_sq.tolist()
    n = np.array(_sqrt_clip(values, hi))
    wrench = vehicle.mixing.dot(n * n)
    return ControlCommand(wrench[0] if saturated else thrust_des, wrench[1:4], n,
                          saturated, yaw_shed, rp_shed, thrust_clipped)


def _sqrt_clip(values, hi):
    """np.sqrt(np.clip(values, 0.0, hi)) on floats, as a list; like np.clip it keeps a -0.0."""
    return [math.sqrt(hi if v > hi else 0.0 if v < 0.0 else v) for v in values]


# -- closed-loop controllers ----------------------------------------------------

class CascadeController:
    """Full cascade: position at the outer rate, attitude/rate at the inner rate.

    All feedforward models are evaluated at the desired state. The model
    copy of the ground-effect parameters may carry a multiplicative
    mismatch relative to the simulated truth. The compensation modes are
    read once, at construction. Everything that depends only on outer-loop
    values (the attitude target, the reference rates and J'(h_des), the
    operator the reference's torque used) is computed once per position
    tick; the inner tick runs on Python floats.
    """

    def __init__(self, trajectory, vehicle: VehicleParams, ge: GroundEffectParams,
                 gains: ControlGains, model_mismatch=1.0):
        self.trajectory = trajectory
        self.vehicle = vehicle
        self.ge = ge if model_mismatch == 1.0 else ge.scaled(model_mismatch)
        self.gains = gains
        self.ratio = int(round(SimConfig.attitude_rate / SimConfig.position_rate))
        self._tick_count = 0
        self._gyro_filter = FilteredDerivative(gains.gyro_cutoff, SimConfig.attitude_rate)
        self.observer = WrenchObserverRunner(vehicle, SimConfig.attitude_rate,
                                             gains.observer_cutoff)
        self._incremental = gains.torque_comp in ("indi", "hybrid")
        self._use_equivalent = gains.torque_comp in ("model", "hybrid")
        self._flat = self._ref = None   # of the last position tick
        self._f_cmd = None
        self._q_des = None          # the attitude target as floats
        self._rates_ref = None      # (omega, omega_dot) of the reference, as floats
        self._J_des = vehicle.inertia_op   # J, or J'(h_des) when _use_equivalent

    def tick(self, t, meas):
        omega_f, omega_dot_f = self._gyro_filter.update(meas.gyro.tolist())
        n = meas.rotor_speeds
        tau_hat = self.vehicle.mixing.dot(n * n)[1:4]
        thrust_hat = self.vehicle.k_t * float(n.dot(n))
        q = meas.q.tolist()
        R_hat = np.array(quat.rot_rows(q))
        wrench = self.observer.update(R_hat, meas.specific_force, thrust_hat, meas.gyro, tau_hat)
        if self._tick_count % self.ratio == 0:
            self._position_tick(t, meas, wrench)
        self._tick_count += 1

        _check_unit(meas.q)
        thrust_des = thrust_command(self._f_cmd, R_hat[:, 2], self.vehicle.m)
        omega_ref, omega_dot_ref = self._rates_ref
        omega_des, omega_dot_des = bodyrate_command(
            _attitude_error(q, self._q_des), omega_ref, omega_f, omega_dot_ref,
            self.gains.kxi, self.gains.komega,
        )
        if self._incremental:
            torque_des = torque_command_indi(tau_hat.tolist(), omega_dot_des, omega_dot_f,
                                             self._J_des)
        else:
            torque_des = self._J_des.torque(omega_des, omega_dot_des)
        command = allocate(thrust_des, torque_des, self.vehicle)
        command.flat, command.reference = self._flat, self._ref
        command.attitude_target, command.wrench = self._q_des, wrench
        return command

    def _position_tick(self, t, meas, wrench):
        flat = self.trajectory(t)
        ref = flat_reference(flat, self.vehicle, self.ge)
        a_des = acceleration_command(flat, ref, meas.p, meas.v, self.gains, self.vehicle,
                                     self.ge, wrench.accel)
        self._f_cmd = a_des + GRAVITY * Z_W
        q_des = quat.from_z_axis_yaw(self._f_cmd, flat.yaw)
        _check_unit(q_des)
        self._q_des = q_des.tolist()
        self._rates_ref = ref.omega.tolist(), ref.omega_dot.tolist()
        if self._use_equivalent:
            self._J_des = ref.inertia
        self._flat, self._ref = flat, ref


class FeedforwardController:
    """Reference thrust and torque only; no state feedback at all.

    command_lead shifts the sampled reference forward, by default half the
    hold interval, so the zero-order-held command is centered in time;
    without it the hold acts as a half-period delay that accumulates into
    drift.
    """

    def __init__(self, trajectory, vehicle: VehicleParams, ge: GroundEffectParams,
                 command_lead=0.5 / SimConfig.attitude_rate):
        self.trajectory = trajectory
        self.vehicle = vehicle
        self.ge = ge
        self.command_lead = command_lead

    def tick(self, t, meas):
        del meas
        flat = self.trajectory(t + self.command_lead)
        ref = flat_reference(flat, self.vehicle, self.ge)
        command = allocate(ref.thrust, ref.torque, self.vehicle)
        command.flat, command.reference, command.attitude_target = flat, ref, ref.attitude
        return command
