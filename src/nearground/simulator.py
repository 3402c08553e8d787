"""Deterministic rigid-body simulation with ground-effect disturbances.

RK4 over position, velocity, attitude quaternion, body rates, and rotor
speeds (first-order motor lag). The ground-effect force, leveling torque,
and altitude drag can be toggled individually; the rotational dynamics can
also run in the equivalent-inertia form where the leveling torque is
absorbed into J'(h) instead of appearing explicitly.

``_Plant`` is the only evaluator of the model: the RK4 derivative, the
logged disturbance columns and the rotation-only ``simulate_attitude`` all
go through its methods, which call the ground-effect kernels in
groundeffect.py (the only copy of each formula). ``_rk4`` is the only
integrator.

Arithmetic rule of the per-step path (this module, groundeffect,
quaternions, controller and the wrench observer): elementwise
work (sums, products and quotients of single components) runs on Python
floats, which round exactly like numpy's elementwise ufuncs, so moving it
changes no bit of a log. Every reduction with a genuine sum (q.q, M n^2,
R^T v, -R (d * v_b), R^T l, l.l, and J w or Jinv tau for a non-diagonal
inertia) stays one BLAS call on arrays of the same layout: BLAS evaluates
these 3- and 4-element dot and matrix-vector products as fused
multiply-add chains in kernel-specific orders, which a Python sum would
not reproduce. The call is ``ndarray.dot``, never the ``@`` operator: on
these operands both reach the same ddot/dgemv kernel and give the same
bytes, and ``.dot`` costs about half as much per call because it skips
the ufunc dispatch. The one exception is a product with a diagonal
matrix (J, Jinv or J'(h) of a diagonal inertia, ``InertiaOperator`` in
vehicle.py): its rows sum one product with exact zeros from an
accumulator at +0.0, so the float 0.0 + j_i * w_i has BLAS's bytes for
finite operands, and a non-finite result is recomputed by the call.

flatness.py computes the reference for blocks of samples by the same rule
on arrays: a reduction is a stacked ``np.matmul`` ((N,1,k) @ (N,k,1), or a
matrix times (N,k,1)), one ddot or dgemv per item with its ``.dot`` bytes.
A 2-D gemm ``X @ M.T``, array ``x**k`` and ``np.arccos`` lose the bytes;
``np.sin``, ``np.cos`` and ``np.sqrt`` keep them.

The run loop evaluates ``_Plant.derivative`` once on every step that ticks
or logs. It returns the state's frame (unit quaternion, R, world drag,
leveling axis), which ``imu_sample`` and ``disturbance_forces`` take as an
argument, and with a motor lag the derivative, with the command's dn/dt,
is the RK4 step's first stage.

All randomness flows from one seeded generator per run; identical config
and seed reproduce logs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import flatness
from . import quaternions as quat
from .errors import ConfigError, InputError, SimulationFault
from .groundeffect import (
    GroundEffectParams,
    _factor,
    _lever,
    added_inertia,
    leveling_axis,
    torque_lever,
    world_drag,
)
from .vehicle import GRAVITY, VehicleParams, inertia_operator, plus_gravity

# state vector layout
_P = slice(0, 3)
_V = slice(3, 6)
_Q = slice(6, 10)
_W = slice(10, 13)
_N = slice(13, 17)
STATE_SIZE = 17


@dataclass
class SimConfig:
    dt: float = 5.0e-4                 # physics step, s
    attitude_rate: ClassVar[float] = 500.0   # inner control loop, Hz
    position_rate: ClassVar[float] = 100.0   # outer control loop, Hz; a fifth of the inner
    gravity: ClassVar[float] = GRAVITY       # m/s^2
    ge_force: bool = True
    ge_torque: bool = True
    ge_drag: bool = True
    torque_formulation: str = "explicit"   # or "equivalent"
    motor_tau: float = 0.030           # s; 0 means speeds track commands exactly
    noise_accel: float = 0.0           # m/s^2, std per axis
    noise_gyro: float = 0.0            # rad/s, std per axis
    ext_force: np.ndarray = (0.0, 0.0, 0.0)    # constant world force, N
    ext_torque: np.ndarray = (0.0, 0.0, 0.0)   # constant body torque, N m
    ext_on: float = 0.0                # external wrench active from this time
    ext_off: float = math.inf
    ground_clearance: float = 0.02     # crash when the lowest rotor tip reaches this
    log_decimation: int = 1

    def __post_init__(self):
        self.ext_force = np.array(self.ext_force, dtype=float)
        self.ext_torque = np.array(self.ext_torque, dtype=float)
        # "not x > 0" style comparisons also reject NaN
        if not self.dt > 0.0:
            raise ConfigError(f"physics step must be positive, got {self.dt}")
        for name in ("ground_clearance", "ext_on", "ext_off"):
            if math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must not be NaN")
        for name in ("ext_force", "ext_torque"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.torque_formulation not in ("explicit", "equivalent"):
            raise ConfigError(f"unknown torque formulation {self.torque_formulation!r}")
        for name in ("motor_tau", "noise_accel", "noise_gyro"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not (isinstance(self.log_decimation, (int, np.integer)) and self.log_decimation >= 1):
            raise ConfigError(f"log decimation must be an integer >= 1, got {self.log_decimation!r}")
        steps = 1.0 / (self.attitude_rate * self.dt)
        if abs(steps - round(steps)) > 1e-6 or round(steps) < 1:
            raise ConfigError(f"the {1e3 / self.attitude_rate:g} ms control period must be "
                              f"an integer multiple of dt={self.dt}")


@dataclass
class Measurement:
    """What the controller sees at a control tick."""

    t: float
    p: np.ndarray
    v: np.ndarray
    q: np.ndarray
    gyro: np.ndarray            # body rates + noise
    specific_force: np.ndarray  # body-frame accelerometer reading + noise
    rotor_speeds: np.ndarray


def _quat_rate(q, w):
    """dq/dt of the unit quaternion q under body rate w (rad/s), all Python floats."""
    qw, qx, qy, qz = q
    w1, w2, w3 = w
    return [
        0.5 * (-qx * w1 - qy * w2 - qz * w3),
        0.5 * (qw * w1 + qy * w3 - qz * w2),
        0.5 * (qw * w2 - qx * w3 + qz * w1),
        0.5 * (qw * w3 + qx * w2 - qy * w1),
    ]


def _rk4(f, x, t, dt, q, k1=None):
    """One classic Runge-Kutta step of dx/dt = f(x, t); k1 = f(x, t) when known.

    The quaternion block x[q] of the result is renormalized; a non-finite
    result is a SimulationFault.
    """
    if k1 is None:
        k1 = f(x, t)
    k2 = f(x + (0.5 * dt) * k1, t + 0.5 * dt)
    k3 = f(x + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = f(x + dt * k3, t + dt)
    y = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y[q] /= math.sqrt(float(y[q].dot(y[q])))
    # a finite sum means finite entries; only an overflowing sum needs the full test
    if not math.isfinite(sum(y.tolist())) and not np.isfinite(y).all():
        raise SimulationFault(f"non-finite state at t={t:.6f}: {y}")
    return y


_ZERO3 = (0.0, 0.0, 0.0)


class _Plant:
    """One vehicle under one SimConfig, with the constants of its derivative."""

    __slots__ = (
        "M", "J", "Jinv", "m", "k_t", "offset", "ge",
        "ge_force", "ge_torque", "ge_drag", "equivalent", "motor_tau",
        "ext_force", "ext_torque", "ext_on", "ext_off", "weight_z",
    )

    def __init__(self, vehicle: VehicleParams, ge: GroundEffectParams, cfg: SimConfig):
        self.M = vehicle.mixing
        self.J = vehicle.inertia_op
        self.Jinv = inertia_operator(np.linalg.inv(vehicle.inertia))
        self.m = vehicle.m
        self.k_t = vehicle.k_t
        self.offset = vehicle.rotor_plane_offset
        self.ge = ge
        self.ge_force = cfg.ge_force
        self.ge_torque = cfg.ge_torque
        self.ge_drag = cfg.ge_drag
        self.equivalent = cfg.torque_formulation == "equivalent"
        self.motor_tau = cfg.motor_tau
        self.ext_force = cfg.ext_force.tolist()
        self.ext_torque = cfg.ext_torque.tolist()
        self.ext_on = cfg.ext_on
        self.ext_off = cfg.ext_off
        self.weight_z = -vehicle.m * GRAVITY

    def frame(self, x, h):
        """The geometry of state x at altitude h: (unit q, rotation rows, R, f_drag, axis).

        q is a float list and R an array. f_drag is the world drag (a float
        triple, zero when toggled off or at h <= 0). axis is the leveling
        axis as floats where the explicit form applies a leveling torque
        (at h > 0), else None. None of it depends on the rotor speeds.
        """
        q = x[_Q]
        s = math.sqrt(float(q.dot(q)))
        qn = [v / s for v in q.tolist()]
        rows = quat.rot_rows(qn)
        R = np.array(rows)
        if not h > 0.0:
            return qn, rows, R, _ZERO3, None
        f_drag = world_drag(R, x[_V], h, self.ge).tolist() if self.ge_drag else _ZERO3
        return qn, rows, R, f_drag, self.leveling(R)

    def leveling(self, R):
        """leveling_axis(R) as floats when the explicit form applies a leveling torque, else None."""
        if self.ge_torque and not self.equivalent:
            return leveling_axis(R, self.ge).tolist()
        return None

    def ground(self, rows, h, thrust):
        """(f_ge, lever*T) at altitude h under the rotation rows, f_ge a float triple.

        A term toggled off, or every term at h <= 0, is zero.
        """
        if not h > 0.0:
            return _ZERO3, 0.0
        f_ge = _ZERO3
        if self.ge_force:
            k = _factor(h, self.ge.g1, self.ge.g2) * thrust
            f_ge = [k * rows[0][2], k * rows[1][2], k * rows[2][2]]
        lever_t = _lever(h, self.ge.g3, self.ge.g4, self.ge.g5) * thrust if self.ge_torque else 0.0
        return f_ge, lever_t

    def angular_accel(self, w, tau, lever_t, axis):
        """Body angular acceleration (a float list) at body rate w under the rotor torque tau.

        The leveling torque lever_t * axis is applied to J in the explicit
        form (axis from ``leveling``), and absorbed into J'(h) in the
        equivalent form.
        """
        t0, t1, t2 = tau
        if not self.equivalent:
            if lever_t > 0.0:
                a0, a1, a2 = axis
                t0, t1, t2 = t0 + lever_t * a0, t1 + lever_t * a1, t2 + lever_t * a2
            c0, c1, c2 = quat.cross(w, self.J.dot(w))
            return self.Jinv.dot([t0 - c0, t1 - c1, t2 - c2])
        added = added_inertia(lever_t, self.m)
        Jw = self.J.dot(w)
        Jpw = (Jw[0] + added * w[0], Jw[1] + added * w[1], Jw[2] + 0.0)
        c0, c1, c2 = quat.cross(w, Jpw)
        return self.J.plus_roll_pitch(added).solve([t0 - c0, t1 - c1, t2 - c2])

    def motor_rate(self, n_cmd, n):
        """dn/dt of the first-order motor lag toward n_cmd, both lists of floats, as a list."""
        if not self.motor_tau > 0.0:
            return [0.0, 0.0, 0.0, 0.0]
        tau = self.motor_tau
        c0, c1, c2, c3 = n_cmd
        n0, n1, n2, n3 = n
        return [(c0 - n0) / tau, (c1 - n1) / tau, (c2 - n2) / tau, (c3 - n3) / tau]

    def derivative(self, x, n_cmd, t):
        """(dx/dt as an array, the frame of x) under the rotor command n_cmd, a float list."""
        xs = x.tolist()
        vx, vy, vz = xs[3:6]
        h = xs[2] + self.offset
        frame = self.frame(x, h)
        qn, rows, _, (dx, dy, dz), axis = frame
        n = x[_N]
        thrust, t0, t1, t2 = self.M.dot(n * n).tolist()
        fx = 0.0 + thrust * rows[0][2]
        fy = 0.0 + thrust * rows[1][2]
        fz = self.weight_z + thrust * rows[2][2]
        if self.ext_on <= t < self.ext_off:
            ex, ey, ez = self.ext_force
            fx, fy, fz = fx + ex, fy + ey, fz + ez
            ex, ey, ez = self.ext_torque
            t0, t1, t2 = t0 + ex, t1 + ey, t2 + ez
        (gx, gy, gz), lever_t = self.ground(rows, h, thrust)
        m = self.m
        xdot = np.array(
            [vx, vy, vz, (fx + gx + dx) / m, (fy + gy + dy) / m, (fz + gz + dz) / m]
            + _quat_rate(qn, xs[10:13])
            + self.angular_accel(xs[10:13], (t0, t1, t2), lever_t, axis)
            + self.motor_rate(n_cmd, xs[13:17])
        )
        return xdot, frame

    def rk4(self, x, n_cmd, dt, t, k1=None):
        """One RK4 step under the float-list n_cmd; k1 may be derivative(x, n_cmd, t)[0]."""
        if self.motor_tau <= 0.0:
            x = x.copy()
            x[_N] = n_cmd
        return _rk4(lambda y, s: self.derivative(y, n_cmd, s)[0], x, t, dt, _Q, k1)


def disturbance_forces(plant: _Plant, x, frame):
    """(f_ge, f_drag, tau_level) of the plant at state x, honoring the toggles.

    frame is the plant's frame of x (``_Plant.frame``). The thrust is
    k_t * sum(n^2). tau_level is zero in the equivalent formulation, where
    the plant carries the torque in J'(h).
    """
    h = float(x[2]) + plant.offset
    _, rows, _, f_drag, axis = frame
    n = x[_N]
    f_ge, lever_t = plant.ground(rows, h, plant.k_t * float(n.dot(n)))
    tau_level = np.zeros(3) if axis is None else np.array([lever_t * a for a in axis])
    return np.array(f_ge), np.array(f_drag), tau_level


def step(x, n_cmd, dt, vehicle: VehicleParams, ge: GroundEffectParams, cfg: SimConfig,
         t=0.0):
    """One RK4 step; renormalizes the quaternion, checks for non-finite states."""
    return _Plant(vehicle, ge, cfg).rk4(np.asarray(x, float), quat._floats(n_cmd), dt, t)


def imu_sample(x, xdot, R, cfg: SimConfig, rng):
    """(body specific force, body rates) at attitude matrix R, noise from the run generator.

    The accelerometer reading is R^T(a + g z_W): at rest it reports +g along
    body z, and rotating it into the world frame makes the disturbance
    observer identity exact at zero noise.
    """
    f_body = R.T.dot(plus_gravity(xdot[_V]))
    gyro = x[_W].copy()
    if cfg.noise_accel > 0.0:
        f_body = f_body + cfg.noise_accel * rng.standard_normal(3)
    if cfg.noise_gyro > 0.0:
        gyro = gyro + cfg.noise_gyro * rng.standard_normal(3)
    return f_body, gyro


# -- trajectory log ----------------------------------------------------------

_STATE_COLS = [
    "t", "px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz",
    "wx", "wy", "wz", "n1", "n2", "n3", "n4", "h",
]
_REF_COLS = [
    "ref_px", "ref_py", "ref_pz", "ref_vx", "ref_vy", "ref_vz",
    "ref_ax", "ref_ay", "ref_az", "ref_qw", "ref_qx", "ref_qy", "ref_qz",
    "ref_wx", "ref_wy", "ref_wz", "ref_T",
]
_CMD_COLS = ["cmd_T", "cmd_taux", "cmd_tauy", "cmd_tauz",
             "cmd_n1", "cmd_n2", "cmd_n3", "cmd_n4", "cmd_sat",
             "cmd_qw", "cmd_qx", "cmd_qy", "cmd_qz"]
_OBS_COLS = ["obs_aext_x", "obs_aext_y", "obs_aext_z",
             "obs_tauext_x", "obs_tauext_y", "obs_tauext_z"]
_DIST_COLS = ["fg_x", "fg_y", "fg_z", "fd_x", "fd_y", "fd_z",
              "taug_x", "taug_y", "taug_z"]

LOG_COLUMNS = _STATE_COLS + _REF_COLS + _CMD_COLS + _OBS_COLS + _DIST_COLS
# "%.17g" round-trips every double; Python floats print -0, nan, inf and -inf as numpy's do
_ROW_FORMAT = ",".join(["%.17g"] * len(LOG_COLUMNS)) + "\n"


class TrajectoryLog:
    """Fixed-column run record with exact CSV round-tripping."""

    columns = LOG_COLUMNS

    def __init__(self, data, crashed, infeasible, seed):
        self.data = np.asarray(data, dtype=float).reshape(-1, len(LOG_COLUMNS))
        self.crashed = bool(crashed)
        self.infeasible = bool(infeasible)
        self.seed = int(seed)
        self._index = {name: i for i, name in enumerate(LOG_COLUMNS)}

    def __len__(self):
        return self.data.shape[0]

    def col(self, name):
        return self.data[:, self._index[name]]

    def cols(self, names):
        return self.data[:, [self._index[n] for n in names]]

    def after(self, t0):
        """Rows with t >= t0 (warmup trimming for metrics)."""
        mask = self.col("t") >= t0
        return TrajectoryLog(self.data[mask].copy(), self.crashed,
                             self.infeasible, self.seed)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"# crashed={int(self.crashed)} infeasible={int(self.infeasible)} "
                f"seed={self.seed}\n"
            )
            fh.write(",".join(LOG_COLUMNS) + "\n")
            # row by row: a whole-log tolist() would hold every cell as a Python float at once
            for row in self.data:
                fh.write(_ROW_FORMAT % tuple(row.tolist()))

    @classmethod
    def from_csv(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            meta = fh.readline().strip()
            header = fh.readline().strip().split(",")
            if header != LOG_COLUMNS:
                raise ConfigError(f"{path}: unexpected log columns")
            data = csv_rows(fh, path, "log row")
        if data.size and data.shape[1] != len(LOG_COLUMNS):
            raise ConfigError(f"{path}: log rows have {data.shape[1]} cells, "
                              f"the header {len(LOG_COLUMNS)}")
        # exactly the three keys to_csv writes, in its order, each with a count
        pairs = [part.partition("=") for part in meta.lstrip("# ").split()]
        values = [value for _, _, value in pairs]
        if ([key for key, _, _ in pairs] != ["crashed", "infeasible", "seed"]
                or not all(map(str.isdecimal, values))):
            raise ConfigError(f"{path}: cannot parse the log's first line {meta!r}")
        crashed, infeasible, seed = map(int, values)
        return cls(data, crashed=bool(crashed), infeasible=bool(infeasible), seed=seed)


def csv_rows(fh, path, what):
    """The comma-separated rows left in fh as a 2-D float array; none (blank lines only) is (0, 0).

    A row that does not parse, or whose cell count differs, is a ConfigError naming path.
    """
    start = fh.tell()
    if all(map(str.isspace, iter(fh.readline, ""))):   # np.loadtxt warns on no data
        return np.empty((0, 0))
    fh.seek(start)
    try:
        return np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ConfigError(f"{path}: malformed {what}: {err}") from None


def hover_initial_state(trajectory, vehicle: VehicleParams, ge: GroundEffectParams,
                        gravity=GRAVITY):
    """Packed state matching the trajectory reference at t = 0; gravity must be GRAVITY."""
    if gravity != GRAVITY:
        raise InputError(f"gravity is fixed at {GRAVITY} m/s^2, got {gravity}")
    ref = flatness.flat_reference(trajectory(0.0), vehicle, ge)
    x = np.empty(STATE_SIZE)
    x[_P] = ref.p
    x[_V] = ref.v
    x[_Q] = ref.attitude
    x[_W] = ref.omega
    x[_N] = ref.rotor_speeds
    return x


def run_closed_loop(controller, vehicle: VehicleParams, ge: GroundEffectParams,
                    cfg: SimConfig, duration, seed):
    """Step physics at dt, call the controller at its rate, record the log.

    The controller provides ``trajectory`` (the flat output as a function of
    time, which sets the hover start), ``plan(times)``, called once before
    step 0 with every tick time k * dt the loop will compute, and
    ``tick(t, Measurement)``, which returns a ControlCommand with its
    reference and attitude_target set and its wrench a WrenchEstimate or
    None; the log rows and the infeasible flag read that record. Step 0
    ticks before it logs. Ground contact truncates the log and flags it. A
    duration under half a step, which would fly no step, is an InputError.
    """
    steps = int(round(duration / cfg.dt))
    if steps < 1:
        raise InputError(f"duration {duration!r} s is under half the step dt = {cfg.dt!r} s")
    rng = np.random.default_rng(seed)
    x = hover_initial_state(controller.trajectory, vehicle, ge)
    plant = _Plant(vehicle, ge, cfg)
    per_tick = round(1.0 / (cfg.attitude_rate * cfg.dt))
    decim = cfg.log_decimation
    rows = np.zeros((steps // decim + 1, len(LOG_COLUMNS)))
    # the log first: tick times allocated before it kept the heap from shrinking after a run
    controller.plan(np.arange(0, steps + 1, per_tick) * cfg.dt)
    n_rows = 0
    crashed = False
    infeasible = False
    n_cmd = x[_N].tolist()   # the rotor command as floats, set once per tick

    for k in range(steps + 1):
        t = k * cfg.dt
        tick, logged = k % per_tick == 0, k % decim == 0
        k1 = None
        if tick or logged:
            xdot, frame = plant.derivative(x, n_cmd, t)
        if tick:
            f_imu, gyro = imu_sample(x, xdot, frame[2], cfg, rng)
            meas = Measurement(t, x[_P].copy(), x[_V].copy(), x[_Q].copy(),
                               gyro, f_imu, x[_N].copy())
            command = controller.tick(t, meas)
            if not command.reference.feasible:
                infeasible = True
            n_cmd = quat._floats(command.rotor_speeds)
            xdot[_N] = plant.motor_rate(n_cmd, x[_N].tolist())   # only dn/dt sees n_cmd
        if (tick or logged) and plant.motor_tau > 0.0:
            k1 = xdot   # the RK4 step's first stage (ideal motors jump to n_cmd before it)
        if logged:
            _log_row(rows[n_rows], t, x, command, plant, frame)
            n_rows += 1
        if k == steps:
            break
        x = plant.rk4(x, n_cmd, cfg.dt, t, k1)
        pz, qx, qy = x[2].item(), x[7].item(), x[8].item()
        h = pz + vehicle.rotor_plane_offset
        z_bz = 1.0 - 2.0 * (qx ** 2 + qy ** 2)  # z_B . z_W from quaternion
        tip = h - 0.5 * vehicle.b * math.sqrt(max(0.0, 1.0 - min(1.0, z_bz) ** 2))
        if tip <= cfg.ground_clearance:
            crashed = True
            break

    return TrajectoryLog(rows[:n_rows], crashed=crashed, infeasible=infeasible, seed=seed)


def _log_row(row, t, x, command, plant, frame):
    """Fill one zero-initialised log row from the last command; frame is the plant's frame of x."""
    row[0] = t
    row[1:18] = x
    row[18] = x[2] + plant.offset
    ref = command.reference
    row[19:22] = ref.p
    row[22:25] = ref.v
    row[25:28] = ref.a
    row[28:32] = ref.attitude
    row[32:35] = ref.omega
    row[35] = ref.thrust
    row[36] = command.thrust
    row[37:40] = command.torque
    row[40:44] = command.rotor_speeds
    row[44] = float(command.saturated)
    row[45:49] = command.attitude_target
    est = command.wrench
    if est is not None:
        row[49:52] = est.accel
        row[52:55] = est.torque
    f_ge, f_drag, tau_level = disturbance_forces(plant, x, frame)
    row[55:58] = f_ge
    row[58:61] = f_drag
    row[61:64] = tau_level


def simulate_attitude(q0, omega0, torque_fn, vehicle: VehicleParams,
                      ge: GroundEffectParams, h, thrust, dt, duration, formulation):
    """Rotation-only integration at fixed altitude and thrust.

    The plant's rotational dynamics with h and T frozen. torque_fn(t, q,
    omega) supplies the rotor torque. The explicit form applies the
    leveling torque to the plain inertia; the equivalent form uses J'(h)
    with no explicit torque. Returns (times, quats, omegas).
    """
    if thrust < 0.0:
        raise InputError("thrust must be non-negative")
    plant = _Plant(vehicle, ge, SimConfig(torque_formulation=formulation))
    lever_t = torque_lever(h, ge) * thrust

    def deriv(y, t):
        q = y[:4] / math.sqrt(float(y[:4].dot(y[:4])))
        w = y[4:]
        qs, ws = q.tolist(), w.tolist()
        tau = np.asarray(torque_fn(t, q, w), dtype=float).tolist()
        axis = plant.leveling(np.array(quat.rot_rows(qs))) if lever_t > 0.0 else None
        return np.array(_quat_rate(qs, ws) + plant.angular_accel(ws, tau, lever_t, axis))

    steps = int(round(duration / dt))
    states = np.empty((steps + 1, 7))
    states[0, :4] = q0
    states[0, 4:] = omega0
    for k in range(steps):
        states[k + 1] = _rk4(deriv, states[k], k * dt, dt, slice(0, 4))
    return np.arange(steps + 1) * dt, states[:, :4], states[:, 4:]
