"""Reference generation from flat outputs under ground effect.

Position and yaw trajectories (with derivatives through snap and yaw
acceleration) map to thrust, attitude, body rates, body-rate derivatives,
torque, and rotor speeds for the near-ground model: thrust amplified by
(1 + F(h)), rotor drag -R D(h) R^T v, rotational dynamics with the
equivalent inertia J'(h).

The body-rate algebra differentiates the translational force balance with
the drag coefficients frozen at the current altitude (their time
derivative is neglected; they are still re-evaluated every sample). The
thrust-axis scalar c = z_B . (a + g z_W) carries all altitude coupling of
the amplified thrust, so its derivative needs no model approximation.

The reference depends on time only: ``ReferenceBlock`` maps the flat outputs
of many times (a trajectory called with an array) in one numpy pass, each
sample's fixed point stopping at its own iteration count. A failing sample
keeps the exception of its first failing check until it is asked for.
``flat_reference`` is the block of one. Arithmetic follows simulator.py's
rule for blocks: each reduction is a stacked ``np.matmul`` (``_dots``,
``_products``), never a 2-D gemm, and the smoothstep keeps Python powers.
Gravity is the constant ``vehicle.GRAVITY``; no function here takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .errors import InputError, ParameterError, ReferenceGenerationError
from .groundeffect import GroundEffectParams, _factor, _lever, added_inertia
from .vehicle import GRAVITY, InertiaOperator, VehicleParams


@dataclass
class FlatOutput:
    """Flat outputs at one instant: position chain and yaw chain.

    A block of instants stacks them by sample: p, v, a, j and s are then
    (N, 3) arrays and the yaw fields (N,) arrays (a float given is repeated).
    """

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
            value = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, value if value.ndim == 2 else value.reshape(3))
        if self.p.ndim == 2:
            for name in ("yaw", "yaw_rate", "yaw_accel"):
                value = np.asarray(getattr(self, name), dtype=float)
                setattr(self, name, np.broadcast_to(value, len(self.p)))


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


# -- trajectory generators: each takes a time or an array of times --------------

def lemniscate(t, half_width, height, peak_speed):
    """Figure-eight at constant altitude: x = A sin(wt), y = A/2 sin(2wt).

    The angular rate is set so the largest speed over a period equals
    peak_speed (reached at the crossing point).
    """
    A = float(half_width)
    w = peak_speed / (A * math.sqrt(2.0))
    th = w * np.asarray(t, dtype=float)
    s1, c1 = np.sin(th), np.cos(th)
    s2, c2 = np.sin(2 * th), np.cos(2 * th)
    zero = np.zeros_like(th)
    p = np.stack([A * s1, 0.5 * A * s2, np.full_like(th, height)], axis=-1)
    v = np.stack([A * w * c1, A * w * c2, zero], axis=-1)
    a = np.stack([-A * w * w * s1, -2 * A * w * w * s2, zero], axis=-1)
    j = np.stack([-A * w**3 * c1, -4 * A * w**3 * c2, zero], axis=-1)
    s = np.stack([A * w**4 * s1, 8 * A * w**4 * s2, zero], axis=-1)
    return FlatOutput(p, v, a, j, s)


def lemniscate_period(half_width, peak_speed):
    if not peak_speed > 0.0:
        raise ParameterError(f"lemniscate speed must be positive, got {peak_speed}")
    return 2.0 * math.pi * half_width * math.sqrt(2.0) / peak_speed


def _descent_height(x, h_start, h_end, duration):
    """(z, dz/dt, ..., d4z/dt4) at the normalized time x: a 9th-order smoothstep, on floats."""
    if x <= 0.0 or x >= 1.0:
        return h_start if x <= 0.0 else h_end, 0.0, 0.0, 0.0, 0.0
    s = x**5 * (126 - 420 * x + 540 * x**2 - 315 * x**3 + 70 * x**4)
    d1 = 630.0 * x**4 * (1 - x) ** 4
    d2 = 2520.0 * x**3 * (1 - x) ** 3 * (1 - 2 * x)
    d3 = 2520.0 * x**2 * (1 - x) ** 2 * (14 * x**2 - 14 * x + 3)
    d4 = 15120.0 * (x - x**2) * (1 - 2 * x) * (7 * x**2 - 7 * x + 1)
    dz = h_end - h_start
    return (h_start + dz * s, dz * d1 / duration, dz * d2 / duration**2,
            dz * d3 / duration**3, dz * d4 / duration**4)


def hover_descent(t, h_start, h_end, duration, hold):
    """Smooth (C^4) vertical profile from h_start down to h_end, no lateral motion."""
    if h_end <= 0.0 or h_start <= h_end:
        raise ParameterError("need h_start > h_end > 0")
    if duration <= 0.0:
        raise ParameterError("duration must be positive")
    shape = np.shape(t)
    chain = np.zeros((5,) + shape + (3,))
    chain[..., 2] = np.array([_descent_height((ti - hold) / duration, h_start, h_end, duration)
                              for ti in np.ravel(t).tolist()]).T.reshape((5,) + shape)
    return FlatOutput(*chain)


def hover_point(t, position):
    shape = np.shape(t) + (3,)
    return FlatOutput(np.broadcast_to(position, shape).copy(), *np.zeros((4,) + shape))


# the keyword parameters make_trajectory accepts for each kind, with their defaults
TRAJECTORY_KEYS = {
    "lemniscate": {"half_width": 0.75, "height": 1.0, "speed": 1.0},
    "hover_descent": {"h_start": 1.0, "h_end": 0.1, "duration": 20.0, "hold": 0.0},
    "hover": {"x": 0.0, "y": 0.0, "height": 1.0},
}


def make_trajectory(kind, **kw):
    """Trajectory factory returning a callable t -> FlatOutput, t a time or an array of times."""
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
        for name in ("half_width", "speed"):
            if p[name] <= 0.0:
                raise ParameterError(f"lemniscate {name} must be positive, got {p[name]}")
        return lambda t: lemniscate(t, p["half_width"], p["height"], p["speed"])
    if kind == "hover_descent":
        return lambda t: hover_descent(t, p["h_start"], p["h_end"], p["duration"], p["hold"])
    pos = np.array([p["x"], p["y"], p["height"]])
    return lambda t: hover_point(t, pos)


# -- block arithmetic ----------------------------------------------------------

def _dots(x, y):
    """Row-wise dot products of two (N, k) arrays: one ddot per row, as its .dot gives."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _products(M, x):
    """M x for each row x of an (N, k) array, M one (k, k) matrix or one per row: one dgemv each."""
    return (M @ x[:, :, None])[:, :, 0]


class _Faults:
    """The first exception of each sample of a block; a sample that has one is no longer live."""

    def __init__(self, n):
        self.live, self.first = np.ones(n, dtype=bool), {}

    def flag(self, samples, error):
        """Give each live sample of the index array samples the exception error(k)."""
        for k in samples[self.live[samples]].tolist():
            self.first[k] = error(k)
        self.live[samples] = False

    def check(self, k):
        if k in self.first:
            raise self.first[k]


def _specific_force(flat):
    """a + g z_W per sample; adding 0.0 = g * 0 turns a -0.0 into 0.0 as the vector sum does."""
    return flat.a + np.array([0.0, 0.0, GRAVITY])


def _altitude_drag(flat, vehicle: VehicleParams, ge: GroundEffectParams, faults):
    """(h, d_x/m, d_y/m) per sample (np.interp is drag_coefficients byte for byte)."""
    h = flat.p[:, 2] + vehicle.rotor_plane_offset
    faults.flag(np.flatnonzero(h < 0.0), lambda k: ReferenceGenerationError(
        f"reference altitude below ground: h={h[k]:.4f}"))
    altitudes, (dx, dy) = ge.drag_knots
    return h, np.interp(h, altitudes, dx) / vehicle.m, np.interp(h, altitudes, dy) / vehicle.m


def _attitudes(z_b, y_c, samples, faults):
    """from_z_axis_yaw per row of (m, 3) arrays, as (m, 4); samples numbers the rows."""
    n = np.sqrt(_dots(z_b, z_b))
    faults.flag(samples[~(n > 0.0)], lambda k: InputError("body z axis must be non-zero"))
    z = (z_b / n[:, None]).T
    x_b = np.stack(quat.cross(y_c.T, z), axis=-1)
    n = np.sqrt(_dots(x_b, x_b))
    faults.flag(samples[n < 1e-9], lambda k: InputError(
        "degenerate attitude: thrust axis parallel to yaw heading"))
    x = (x_b / n[:, None]).T
    y = quat.cross(z, x)
    rows = [[x[i], y[i], z[i]] for i in range(3)]
    (r00, _, _), (_, r11, _), (_, _, r22) = rows
    case = np.select([r00 + r11 + r22 > 0.0, (r00 >= r11) & (r00 >= r22), r11 >= r22],
                     [0, 1, 2], 3)
    q = np.empty((len(case), 4))
    for c in range(4):
        mask = case == c
        if mask.any():
            q[mask] = np.stack(quat._shepperd(c, [[r[mask] for r in row] for row in rows],
                                              np.sqrt), axis=-1)
    q = np.where(q[:, :1] < 0.0, -q, q)
    n = np.sqrt(_dots(q, q))
    faults.flag(samples[n == 0.0], lambda k: InputError("zero quaternion cannot be normalized"))
    return q / n[:, None]


def _thrust_attitude(flat, h, d1, d2, vehicle, ge, faults, max_iter=20):
    """(T_ref, attitude (N, 4), iterations) per sample at altitude h, drag over mass d1, d2.

    Iterates z_B ~ a + g z_W + drag-restoring terms until the axis moves
    less than 1e-10 in one iteration, completes the attitude from yaw, and
    evaluates the thrust with the ground amplification removed from the
    required specific force.
    """
    n = len(h)
    f0 = _specific_force(flat)
    n0 = np.sqrt(_dots(f0, f0))
    faults.flag(np.flatnonzero(n0 < 1e-9), lambda k: ReferenceGenerationError(
        "free-fall reference: thrust axis undefined"))
    z = f0 / n0[:, None]
    y_c = np.stack([-np.sin(flat.yaw), np.cos(flat.yaw), np.zeros(n)], axis=-1)
    iterations = np.zeros(n, dtype=int)
    active = faults.live.copy()
    for iteration in range(1, max_iter + 1):
        act = np.flatnonzero(active & faults.live)
        if not act.size:
            break
        rows = quat.rot_rows(_attitudes(z[act], y_c[act], act, faults).T)
        kx = d1[act] * _dots(np.stack([r[0] for r in rows], axis=-1), flat.v[act])
        ky = d2[act] * _dots(np.stack([r[1] for r in rows], axis=-1), flat.v[act])
        f = np.stack([c + kx * r[0] + ky * r[1] for c, r in zip(f0[act].T, rows)], axis=-1)
        nf = np.sqrt(_dots(f, f))
        faults.flag(act[nf == 0.0], lambda k: ZeroDivisionError("float division by zero"))
        z_new = f / nf[:, None]
        step = z_new - z[act]
        z[act] = z_new
        done = act[np.sqrt(_dots(step, step)) < 1e-10]
        iterations[done] = iteration
        active[done] = False
    faults.flag(np.flatnonzero(active), lambda k: ReferenceGenerationError(
        f"thrust-axis fixed point did not converge in {max_iter} iterations"))
    q = _attitudes(z, y_c, np.arange(n), faults)
    thrust = vehicle.m * _dots(z, f0) / (1.0 + _factor(h, ge.g1, ge.g2))
    faults.flag(np.flatnonzero(thrust <= 0.0), lambda k: ReferenceGenerationError(
        "reference thrust non-positive"))
    return thrust, q, iterations


def _rates(flat, q, d1, d2, faults):
    """(omega, omega_dot) per sample, each (N, 3), at the attitudes q (N, 4), drag over mass d1, d2.

    Differentiates the translational balance twice with the drag matrix
    frozen; the altitude dependence of the amplified thrust rides along in
    the thrust-axis scalar and needs no extra terms.
    """
    R = np.stack([np.stack(row, axis=-1) for row in quat.rot_rows(q.T)], axis=1)   # C-ordered
    x_b, y_b, z_b = R[:, :, 0], R[:, :, 1], R[:, :, 2]
    gz = _specific_force(flat)
    c = _dots(z_b, gz)
    Rt = R.transpose(0, 2, 1)
    v_b, a_b, j_b, s_b = (_products(Rt, x).T for x in (flat.v, flat.a, flat.j, flat.s))

    yaw, dyaw, ddyaw = flat.yaw, flat.yaw_rate, flat.yaw_accel
    zero = np.zeros(len(yaw))
    x_c = np.stack([np.cos(yaw), np.sin(yaw), zero], axis=-1)
    y_c = np.stack([-np.sin(yaw), np.cos(yaw), zero], axis=-1)
    xc_xb, xc_yb, xc_zb = _dots(x_c, x_b), _dots(x_c, y_b), _dots(x_c, z_b)
    yc_xb, yc_yb, yc_zb = _dots(y_c, x_b), _dots(y_c, y_b), _dots(y_c, z_b)

    # rate solve: rows are the body-x jerk balance and the yaw kinematics
    a11 = c + d1 * v_b[2]
    a12 = -(d1 - d2) * v_b[1]
    a21 = -yc_zb
    a22 = yc_yb
    r1 = j_b[0] + d1 * a_b[0]
    r2 = dyaw * xc_xb
    det = a11 * a22 - a12 * a21
    faults.flag(np.flatnonzero(abs(det) < 1e-12), lambda k: ReferenceGenerationError(
        "rate solve singular (thrust axis degenerate)"))
    w2 = (r1 * a22 - a12 * r2) / det
    w3 = (a11 * r2 - r1 * a21) / det
    den1 = c + d2 * v_b[2]
    w1 = -(j_b[1] + d2 * a_b[1] + (d1 - d2) * v_b[0] * w3) / den1
    omega = [w1, w2, w3]

    # derivative solve: same matrix, differentiated data on the right side
    vdot_b = [a - b for a, b in zip(a_b, quat.cross(omega, v_b))]
    adot_b = [a - b for a, b in zip(j_b, quat.cross(omega, a_b))]
    jdot_b = [a - b for a, b in zip(s_b, quat.cross(omega, j_b))]
    cdot = w2 * _dots(x_b, gz) - w1 * _dots(y_b, gz) + _dots(z_b, flat.j)

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
    wd1 = -(
        jdot_b[1]
        + d2 * adot_b[1]
        + w1 * (cdot + d2 * vdot_b[2])
        + (d1 - d2) * (vdot_b[0] * w3 + v_b[0] * wd3)
    ) / den1
    return np.stack(omega, axis=-1), np.stack([wd1, wd2, wd3], axis=-1)


class _BlockInertia:
    """J'(h) = base + diag(added, added, 0) per sample; ``dot`` has each own operator's bytes."""

    def __init__(self, base: InertiaOperator, added):
        self.base, self.added = base, added

    def dot(self, v):
        """J'(h) v per sample for the three component arrays v, as three arrays."""
        base, added = self.base, self.added
        if base.diag is None:
            M = np.repeat(base.matrix[None], len(added), axis=0)
            M[:, 0, 0] += added
            M[:, 1, 1] += added
            return list(_products(M, np.stack(v, axis=-1)).T)
        d0, d1, d2 = base.diag
        p = [0.0 + (d0 + added) * v[0], 0.0 + (d1 + added) * v[1], 0.0 + d2 * v[2]]
        for k in np.flatnonzero(~np.isfinite(p[0] + p[1] + p[2])).tolist():
            p[0][k], p[1][k], p[2][k] = base.plus_roll_pitch(added[k].item()).dot(
                [c[k].item() for c in v])
        return p

    torque = InertiaOperator.torque


class ReferenceBlock:
    """The references of a block of flat outputs, handed out sample by sample.

    Rotor speeds outside [0, n_max] mark a reference infeasible instead of
    being clamped, so callers can distinguish planning failures from
    tracking error.
    """

    def __init__(self, flat: FlatOutput, vehicle: VehicleParams, ge: GroundEffectParams):
        self._flat = flat
        self._yaw = list(zip(flat.yaw.tolist(), flat.yaw_rate.tolist(), flat.yaw_accel.tolist()))
        self._faults = faults = _Faults(len(flat.p))
        self._base = vehicle.inertia_op
        with np.errstate(all="ignore"):
            h, d1, d2 = _altitude_drag(flat, vehicle, ge, faults)
            thrust, self._attitude, iterations = _thrust_attitude(flat, h, d1, d2, vehicle, ge,
                                                                  faults)
            self._omega, self._omega_dot = _rates(flat, self._attitude, d1, d2, faults)
            added = added_inertia(_lever(h, ge.g3, ge.g4, ge.g5) * thrust, vehicle.m)
            torque = _BlockInertia(self._base, added).torque(self._omega.T, self._omega_dot.T)
            self._torque = np.stack(torque, axis=-1)
            n_sq = _products(vehicle.mixing_inverse, np.stack([thrust] + torque, axis=-1))
            top = vehicle.n_max**2 + 1e-9
            self._feasible = ((n_sq >= -1e-9) & (n_sq <= top)).all(axis=1).tolist()
            # np.sqrt(np.clip(n_sq, 0.0, None)): with no upper bound np.clip is
            # np.maximum, which turns a -0.0 into +0.0 (and keeps NaN)
            self._rotor_speeds = np.sqrt(np.where(n_sq <= 0.0, 0.0, n_sq))
        self._thrust, self._iterations = thrust.tolist(), iterations.tolist()
        self._added = added.tolist()

    def flat(self, k):
        """Sample k's FlatOutput."""
        f = self._flat
        return FlatOutput(f.p[k], f.v[k], f.a[k], f.j[k], f.s[k], *self._yaw[k])

    def reference(self, k):
        """Sample k's FlatReference; raises the exception of a sample whose evaluation failed."""
        self._faults.check(k)
        return FlatReference(self._thrust[k], self._attitude[k], self._omega[k],
                             self._omega_dot[k], self._torque[k], self._rotor_speeds[k],
                             self._feasible[k], self._iterations[k],
                             self._base.plus_roll_pitch(self._added[k]))


def flat_reference(flat: FlatOutput, vehicle: VehicleParams, ge: GroundEffectParams):
    """Full reference tuple for one flat-output sample: the ReferenceBlock of one."""
    one = FlatOutput(flat.p[None], flat.v[None], flat.a[None], flat.j[None], flat.s[None],
                     flat.yaw, flat.yaw_rate, flat.yaw_accel)
    return ReferenceBlock(one, vehicle, ge).reference(0)
