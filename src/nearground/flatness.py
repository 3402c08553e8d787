"""Reference generation from flat outputs under ground effect.

Position and yaw trajectories (with derivatives through snap and yaw
acceleration) map to thrust, attitude, body rates, body-rate derivatives,
torque, and rotor speeds for the near-ground model: thrust amplified by
(1 + F(h)), rotor drag -R D(h) R^T v, rotational dynamics with the
equivalent inertia J'(h).

The body-rate algebra differentiates the translational force balance with
the drag coefficients frozen at the current altitude (their time
derivative is neglected; they are still re-evaluated every call). The
thrust-axis scalar c = z_B . (a + g z_W) carries all altitude coupling of
the amplified thrust, so its derivative needs no model approximation.

Reference generation runs once per control tick on Python floats in
``_thrust_attitude`` and ``_rates``; ``flat_reference``, their one caller,
chains them with the model torque J'(h) w_dot + w x J'(h) w
(``InertiaOperator.torque`` in vehicle.py, which the controller and the
wrench observer also call).
Their arithmetic follows the per-step rule stated in simulator.py's docstring.
Gravity is the constant ``vehicle.GRAVITY``; no function here takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .errors import ParameterError, ReferenceGenerationError
from .groundeffect import (
    GroundEffectParams,
    drag_coefficients,
    equivalent_inertia_op,
    thrust_factor,
)
from .vehicle import GRAVITY, InertiaOperator, VehicleParams

@dataclass
class FlatOutput:
    """Flat outputs at one instant: position chain and yaw chain."""

    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    j: np.ndarray
    s: np.ndarray
    yaw: float = 0.0
    yaw_rate: float = 0.0
    yaw_accel: float = 0.0

    def __post_init__(self):
        for name in ("p", "v", "a", "j", "s"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))


@dataclass
class FlatReference:
    """Derived reference at one instant."""

    thrust: float
    attitude: np.ndarray      # unit quaternion, world-from-body
    omega: np.ndarray         # rad/s, body
    omega_dot: np.ndarray     # rad/s^2, body
    torque: np.ndarray        # N m, body
    rotor_speeds: np.ndarray  # rpm
    feasible: bool
    iterations: int
    inertia: InertiaOperator  # J'(h) at the reference, the torque's operator


# -- trajectory generators ---------------------------------------------------

def lemniscate(t, half_width, height, peak_speed):
    """Figure-eight at constant altitude: x = A sin(wt), y = A/2 sin(2wt).

    The angular rate is set so the largest speed over a period equals
    peak_speed (reached at the crossing point).
    """
    A = float(half_width)
    w = peak_speed / (A * math.sqrt(2.0))
    th = w * t
    s1, c1 = math.sin(th), math.cos(th)
    s2, c2 = math.sin(2 * th), math.cos(2 * th)
    p = np.array([A * s1, 0.5 * A * s2, height])
    v = np.array([A * w * c1, A * w * c2, 0.0])
    a = np.array([-A * w * w * s1, -2 * A * w * w * s2, 0.0])
    j = np.array([-A * w**3 * c1, -4 * A * w**3 * c2, 0.0])
    s = np.array([A * w**4 * s1, 8 * A * w**4 * s2, 0.0])
    return FlatOutput(p, v, a, j, s)


def lemniscate_period(half_width, peak_speed):
    return 2.0 * math.pi * half_width * math.sqrt(2.0) / peak_speed


def _smooth_step_c4(x):
    """9th-order smoothstep and its four derivatives (zero at both ends)."""
    s = x**5 * (126 - 420 * x + 540 * x**2 - 315 * x**3 + 70 * x**4)
    d1 = 630.0 * x**4 * (1 - x) ** 4
    d2 = 2520.0 * x**3 * (1 - x) ** 3 * (1 - 2 * x)
    d3 = 2520.0 * x**2 * (1 - x) ** 2 * (14 * x**2 - 14 * x + 3)
    d4 = 15120.0 * (x - x**2) * (1 - 2 * x) * (7 * x**2 - 7 * x + 1)
    return s, d1, d2, d3, d4


def hover_descent(t, h_start, h_end, duration, hold):
    """Smooth (C^4) vertical profile from h_start down to h_end, no lateral motion."""
    if h_end <= 0.0 or h_start <= h_end:
        raise ParameterError("need h_start > h_end > 0")
    if duration <= 0.0:
        raise ParameterError("duration must be positive")
    tau = (t - hold) / duration
    if tau <= 0.0:
        return FlatOutput([0, 0, h_start], np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    if tau >= 1.0:
        return FlatOutput([0, 0, h_end], np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    s, d1, d2, d3, d4 = _smooth_step_c4(tau)
    dz = h_end - h_start
    p = np.array([0.0, 0.0, h_start + dz * s])
    return FlatOutput(
        p,
        [0.0, 0.0, dz * d1 / duration],
        [0.0, 0.0, dz * d2 / duration**2],
        [0.0, 0.0, dz * d3 / duration**3],
        [0.0, 0.0, dz * d4 / duration**4],
    )


def hover_point(t, position):
    del t
    return FlatOutput(position, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))


# the keyword parameters make_trajectory accepts for each kind, with their defaults
TRAJECTORY_KEYS = {
    "lemniscate": {"half_width": 0.75, "height": 1.0, "speed": 1.0},
    "hover_descent": {"h_start": 1.0, "h_end": 0.1, "duration": 20.0, "hold": 0.0},
    "hover": {"x": 0.0, "y": 0.0, "height": 1.0},
}


def make_trajectory(kind, **kw):
    """Trajectory factory returning a callable t -> FlatOutput."""
    if kind not in TRAJECTORY_KEYS:
        raise ParameterError(f"unknown trajectory kind {kind!r}")
    unknown = sorted(set(kw) - set(TRAJECTORY_KEYS[kind]))
    if unknown:
        raise ParameterError(f"{kind} trajectory takes no parameter {unknown[0]!r}; "
                             f"known: {', '.join(TRAJECTORY_KEYS[kind])}")
    if not all(math.isfinite(value) for value in kw.values()):
        raise ParameterError(f"{kind} trajectory parameters must be finite, got {kw}")
    p = {**TRAJECTORY_KEYS[kind], **kw}
    if kind == "lemniscate":
        if p["half_width"] <= 0.0:
            raise ParameterError(f"lemniscate half_width must be positive, got {p['half_width']}")
        return lambda t: lemniscate(t, p["half_width"], p["height"], p["speed"])
    if kind == "hover_descent":
        return lambda t: hover_descent(t, p["h_start"], p["h_end"], p["duration"], p["hold"])
    pos = np.array([p["x"], p["y"], p["height"]])
    return lambda t: hover_point(t, pos)


# -- thrust and attitude -----------------------------------------------------

def _div(a, b):
    """a / b on Python floats; b == 0 gives inf or nan as numpy does, not an exception."""
    return a / b if b else float(np.float64(a) / b)


def _specific_force(flat: FlatOutput):
    """a + g z_W as a float64 array."""
    a0, a1, a2 = flat.a.tolist()
    # adding 0.0 = g * 0 turns a -0.0 into 0.0 as the vector sum does
    return np.array([a0 + 0.0, a1 + 0.0, a2 + GRAVITY])


def _altitude_drag(flat: FlatOutput, vehicle: VehicleParams, ge: GroundEffectParams):
    """(h, d_x/m, d_y/m) at the reference; below ground is a ReferenceGenerationError."""
    h = float(flat.p[2]) + vehicle.rotor_plane_offset
    if h < 0.0:
        raise ReferenceGenerationError(f"reference altitude below ground: h={h:.4f}")
    dx, dy = drag_coefficients(h, ge)
    return h, dx / vehicle.m, dy / vehicle.m


def _thrust_attitude(flat, h, d1, d2, vehicle, ge, max_iter=20):
    """(T_ref, attitude as a list of floats, iterations) at altitude h, drag over mass d1, d2.

    Iterates z_B ~ a + g z_W + drag-restoring terms until the axis moves
    less than 1e-10 in one iteration, completes the attitude from yaw, and
    evaluates the thrust with the ground amplification removed from the
    required specific force.
    """
    f0 = _specific_force(flat)
    f0s = f0.tolist()
    # each norm is np.linalg.norm's sqrt(x.dot(x)) on an array
    n0 = math.sqrt(float(f0.dot(f0)))
    if n0 < 1e-9:
        raise ReferenceGenerationError("free-fall reference: thrust axis undefined")
    z = [c / n0 for c in f0s]
    z_b = np.array(z)
    y_c = quat.yaw_heading(flat.yaw)
    v = flat.v
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rows = quat.rot_rows(quat._from_z_axis_yaw(z_b, y_c))
        R = np.array(rows)
        kx = d1 * float(R[:, 0].dot(v))
        ky = d2 * float(R[:, 1].dot(v))
        f = [c + kx * r[0] + ky * r[1] for c, r in zip(f0s, rows)]
        fa = np.array(f)
        nf = math.sqrt(float(fa.dot(fa)))
        z_new = [c / nf for c in f]
        step = np.array([a - b for a, b in zip(z_new, z)])
        delta = math.sqrt(float(step.dot(step)))
        z, z_b = z_new, np.array(z_new)
        if delta < 1e-10:
            break
    else:
        raise ReferenceGenerationError(
            f"thrust-axis fixed point did not converge in {max_iter} iterations"
        )
    q = quat._from_z_axis_yaw(z_b, y_c)
    thrust = vehicle.m * float(z_b.dot(f0)) / (1.0 + thrust_factor(h, ge))
    if thrust <= 0.0:
        raise ReferenceGenerationError("reference thrust non-positive")
    return thrust, q, iterations


def _rates(flat, R, d1, d2):
    """(omega, omega_dot) as lists at the attitude matrix R, drag over mass d1, d2.

    Differentiates the translational balance twice with the drag matrix
    frozen; the altitude dependence of the amplified thrust rides along in
    the thrust-axis scalar and needs no extra terms.
    """
    x_b, y_b, z_b = R[:, 0], R[:, 1], R[:, 2]
    gz = _specific_force(flat)
    c = float(z_b.dot(gz))
    Rt = R.T
    v_b = Rt.dot(flat.v).tolist()
    a_b = Rt.dot(flat.a).tolist()
    j_b = Rt.dot(flat.j).tolist()
    s_b = Rt.dot(flat.s).tolist()

    yaw, dyaw, ddyaw = flat.yaw, flat.yaw_rate, flat.yaw_accel
    x_c = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    y_c = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
    xc_xb, xc_yb, xc_zb = float(x_c.dot(x_b)), float(x_c.dot(y_b)), float(x_c.dot(z_b))
    yc_xb, yc_yb, yc_zb = float(y_c.dot(x_b)), float(y_c.dot(y_b)), float(y_c.dot(z_b))

    # rate solve: rows are the body-x jerk balance and the yaw kinematics
    a11 = c + d1 * v_b[2]
    a12 = -(d1 - d2) * v_b[1]
    a21 = -yc_zb
    a22 = yc_yb
    r1 = j_b[0] + d1 * a_b[0]
    r2 = dyaw * xc_xb
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-12:
        raise ReferenceGenerationError("rate solve singular (thrust axis degenerate)")
    w2 = (r1 * a22 - a12 * r2) / det
    w3 = (a11 * r2 - r1 * a21) / det
    den1 = c + d2 * v_b[2]
    w1 = _div(-(j_b[1] + d2 * a_b[1] + (d1 - d2) * v_b[0] * w3), den1)
    omega = [w1, w2, w3]

    # derivative solve: same matrix, differentiated data on the right side
    vdot_b = [a - b for a, b in zip(a_b, quat.cross(omega, v_b))]
    adot_b = [a - b for a, b in zip(j_b, quat.cross(omega, a_b))]
    jdot_b = [a - b for a, b in zip(s_b, quat.cross(omega, j_b))]
    cdot = w2 * float(x_b.dot(gz)) - w1 * float(y_b.dot(gz)) + float(z_b.dot(flat.j))

    da11 = cdot + d1 * vdot_b[2]
    da12 = -(d1 - d2) * vdot_b[1]
    da21 = dyaw * xc_zb - w2 * yc_xb + w1 * yc_yb
    da22 = -dyaw * xc_yb - w3 * yc_xb + w1 * yc_zb
    dr1 = jdot_b[0] + d1 * adot_b[0]
    dr2 = ddyaw * xc_xb + dyaw * dyaw * yc_xb + dyaw * w3 * xc_yb - dyaw * w2 * xc_zb
    b1 = dr1 - da11 * w2 - da12 * w3
    b2 = dr2 - da21 * w2 - da22 * w3
    wd2 = (b1 * a22 - a12 * b2) / det
    wd3 = (a11 * b2 - b1 * a21) / det
    wd1 = _div(-(
        jdot_b[1]
        + d2 * adot_b[1]
        + w1 * (cdot + d2 * vdot_b[2])
        + (d1 - d2) * (vdot_b[0] * w3 + v_b[0] * wd3)
    ), den1)
    return omega, [wd1, wd2, wd3]


def flat_reference(flat: FlatOutput, vehicle: VehicleParams, ge: GroundEffectParams):
    """Full reference tuple for one flat-output sample.

    Rotor speeds outside [0, n_max] mark the reference infeasible instead of
    being clamped, so callers can distinguish planning failures from
    tracking error.
    """
    h, d1, d2 = _altitude_drag(flat, vehicle, ge)
    thrust, q, iterations = _thrust_attitude(flat, h, d1, d2, vehicle, ge)
    omega, omega_dot = _rates(flat, np.array(quat.rot_rows(q)), d1, d2)
    Jp = equivalent_inertia_op(h, ge, vehicle, thrust=thrust)
    torque = Jp.torque(omega, omega_dot)
    n_sq = vehicle.mixing_inverse.dot(np.array([thrust] + torque)).tolist()
    top = vehicle.n_max**2 + 1e-9
    feasible = all(-1e-9 <= v <= top for v in n_sq)
    # np.sqrt(np.clip(n_sq, 0.0, None)) on floats: with no upper bound np.clip
    # is np.maximum, which turns a -0.0 into +0.0 (and keeps NaN)
    n_ref = np.array([math.sqrt(0.0 if v <= 0.0 else v) for v in n_sq])
    return FlatReference(thrust, np.array(q), np.array(omega), np.array(omega_dot),
                         np.array(torque), n_ref, feasible, iterations, Jp)
