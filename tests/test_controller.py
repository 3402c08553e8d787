import ast
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearground import quaternions as quat
from nearground.config import KeyValueConfig
from nearground.controller import (
    CascadeController,
    _sqrt_clip,
    ControlGains,
    FeedforwardController,
    acceleration_command,
    allocate,
    attitude_error_vector,
    bodyrate_command,
    thrust_command,
    torque_command_indi,
)
from nearground.errors import ControllerFault, InputError, ParameterError, ReferenceGenerationError
from nearground.flatness import flat_reference, hover_point, make_trajectory
from nearground.groundeffect import (
    GroundEffectParams,
    equivalent_inertia,
    equivalent_inertia_op,
    thrust_factor,
    torque_lever_peak,
)
from nearground.harness import Scenario
from nearground.simulator import SimConfig, run_closed_loop
from nearground.vehicle import GRAVITY, VehicleParams

VEH = VehicleParams()
GE = GroundEffectParams()
Z = np.array([0.0, 0.0, 1.0])


def test_gain_validation():
    with pytest.raises(ParameterError):
        ControlGains(accel_comp="magic")
    with pytest.raises(ParameterError):
        ControlGains(torque_comp="magic")


# -- acceleration command ------------------------------------------------------

def _hover_ref(h):
    flat = hover_point(0.0, [0.0, 0.0, h])
    return flat, flat_reference(flat, VEH, GE)


def test_acceleration_command_zero_error_no_ge():
    gains = ControlGains(accel_comp="none")
    flat, ref = _hover_ref(2.0)
    a = acceleration_command(flat, ref, flat.p, flat.v, gains, VEH, GE, np.zeros(3))
    assert np.allclose(a, flat.a)


def test_acceleration_command_hover_ground_term():
    # at the quarter-amplification altitude the ground term is g/1.25*0.25
    h = math.sqrt(GE.g2 / 0.25 - GE.g1)
    gains = ControlGains(accel_comp="model")
    flat, ref = _hover_ref(h)
    a = acceleration_command(flat, ref, flat.p, flat.v, gains, VEH, GE, np.zeros(3))
    expected_mag = GRAVITY / 1.25 * 0.25
    assert np.isclose(np.linalg.norm(a), expected_mag, rtol=1e-9)
    assert a[2] < 0.0  # pushes down against the extra lift


def test_acceleration_command_affine_in_errors():
    gains = ControlGains(accel_comp="none")
    flat, ref = _hover_ref(1.0)
    e_p = np.array([0.04, -0.02, 0.01])
    e_v = np.array([-0.3, 0.1, 0.2])
    a0 = acceleration_command(flat, ref, flat.p, flat.v, gains, VEH, GE, np.zeros(3))
    a1 = acceleration_command(flat, ref, flat.p - e_p, flat.v - e_v, gains, VEH, GE,
                              np.zeros(3))
    assert np.allclose(a1 - a0, gains.kp * e_p + gains.kv * e_v, atol=1e-12)


def test_acceleration_command_indi_uses_observed():
    gains = ControlGains(accel_comp="indi")
    flat, ref = _hover_ref(1.0)
    a_ext = np.array([0.1, 0.0, 0.5])
    a = acceleration_command(flat, ref, flat.p, flat.v, gains, VEH, GE, a_ext)
    assert np.allclose(a, flat.a - a_ext)


# -- attitude error --------------------------------------------------------------

def test_attitude_error_zero():
    q = quat.from_axis_angle([0.2, 1.0, 0.1], 0.6)
    assert np.allclose(attitude_error_vector(q, q), 0.0, atol=1e-9)


def test_attitude_error_quarter_turn():
    q_des = quat.from_axis_angle([1.0, 0.0, 0.0], math.pi / 2.0)
    e = attitude_error_vector(np.array([1.0, 0, 0, 0]), q_des)
    assert np.allclose(e, [math.pi / 2.0, 0.0, 0.0], atol=1e-12)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=10_000))
def test_attitude_error_magnitude_matches_rotation_log(seed):
    rng = np.random.default_rng(seed)
    qa = np.array(quat.normalize(rng.standard_normal(4).tolist()))
    qb = np.array(quat.normalize(rng.standard_normal(4).tolist()))
    e = attitude_error_vector(qa, qb)
    # oracle: rotation angle from the trace of the relative rotation matrix
    R_rel = quat.rot_matrix(qa).T @ quat.rot_matrix(qb)
    angle = math.acos(min(1.0, max(-1.0, (np.trace(R_rel) - 1.0) / 2.0)))
    assert abs(np.linalg.norm(e) - angle) < 1e-9


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_attitude_error_double_cover(seed):
    rng = np.random.default_rng(seed)
    qa = np.array(quat.normalize(rng.standard_normal(4).tolist()))
    qb = np.array(quat.normalize(rng.standard_normal(4).tolist()))
    assert np.allclose(
        attitude_error_vector(qa, qb), attitude_error_vector(-qa, qb), atol=1e-12
    )
    assert np.allclose(
        attitude_error_vector(qa, qb), attitude_error_vector(qa, -qb), atol=1e-12
    )


def test_attitude_error_rejects_non_unit():
    level = np.array([1.0, 0, 0, 0])
    for q in ([1.1, 0, 0, 0], [math.nan, 0, 0, 0], [1.0, math.nan, 0, 0]):
        with pytest.raises(InputError):
            attitude_error_vector(np.array(q), level)
        with pytest.raises(InputError):
            attitude_error_vector(level, np.array(q))


# -- body-rate command ------------------------------------------------------------

def test_bodyrate_zero_error_passthrough():
    gains = ControlGains()
    w_ref = np.array([0.1, -0.2, 0.3])
    wd_ref = np.array([0.5, 0.1, -0.1])
    w_des, wd_des = map(np.array, bodyrate_command(
        [0.0] * 3, w_ref.tolist(), w_ref.tolist(), wd_ref.tolist(),
        gains.kxi, gains.komega))
    assert np.allclose(w_des, w_ref)
    assert np.allclose(wd_des, wd_ref)


def test_bodyrate_gain_scaling_and_composition():
    e = np.array([0.1, 0.0, -0.05])
    zero = [0.0] * 3
    w1, wd = map(np.array, bodyrate_command(e.tolist(), zero, zero, zero,
                                            [4.0] * 3, [10.0] * 3))
    w2, _ = map(np.array, bodyrate_command(e.tolist(), zero, zero, zero,
                                           [8.0] * 3, [10.0] * 3))
    assert np.allclose(w2, 2.0 * w1)
    assert np.allclose(wd, 10.0 * 4.0 * e)


# -- thrust command ----------------------------------------------------------------

def test_thrust_command_cases():
    assert np.isclose(thrust_command(GRAVITY * Z, Z, VEH.m), VEH.m * GRAVITY)
    assert thrust_command(np.array([1.0, 0.0, 0.0]), Z, VEH.m) == 0.0
    R = quat.rot_matrix(quat.from_axis_angle([0.0, 1.0, 0.0], math.radians(30.0)))
    assert np.isclose(
        thrust_command(GRAVITY * Z, R[:, 2], VEH.m),
        VEH.m * GRAVITY * math.cos(math.radians(30.0)),
        rtol=1e-12,
    )
    for axis in ([0.0, 0.0, 0.0], [math.nan, 0.0, 1.0]):
        with pytest.raises(InputError):
            thrust_command(GRAVITY * Z, np.array(axis), VEH.m)


@pytest.mark.parametrize("a_des", [[0.0, 0.0, math.nan], [0.0, 0.0, math.inf],
                                   [0.0, 0.0, -math.inf], [math.nan, 0.0, GRAVITY]])
def test_thrust_command_rejects_non_finite_command(a_des):
    # max(0.0, nan) is 0.0: without the check a NaN command became zero thrust
    with pytest.raises(ControllerFault):
        thrust_command(a_des, [0.0, 0.0, 1.0], 1.0)


@pytest.mark.parametrize("thrust, torque", [
    (math.nan, [0.0, 0.0, 0.0]), (5.0, [math.nan, 0.0, 0.0]), (math.inf, [0.0, 0.0, 0.0]),
    (5.0, [0.0, 0.0, -math.inf]), (-math.inf, [0.0, 0.0, 0.0]),
])
def test_allocate_rejects_non_finite_command(thrust, torque):
    # a NaN thrust used to give zero speeds marked unsaturated, a NaN torque NaN speeds
    with pytest.raises(ControllerFault):
        allocate(thrust, torque, VEH)


# -- torque commands ----------------------------------------------------------------

def _model_torque(w, wd, h, thrust):
    """The model-mode torque J'(h) wd + w x J'(h) w at the reference thrust."""
    return np.array(equivalent_inertia_op(h, GE, VEH, thrust).torque(w.tolist(), wd.tolist()))


def test_torque_model_zero_and_far_field():
    assert np.allclose(_model_torque(np.zeros(3), np.zeros(3), 0.2, 7.0), 0.0)
    w = np.array([0.3, -0.1, 0.2])
    wd = np.array([1.0, 0.5, -0.2])
    far = _model_torque(w, wd, 50.0, 9.81)
    plain = VEH.inertia @ wd + np.cross(w, VEH.inertia @ w)
    assert np.max(np.abs(far - plain)) < 1e-9


def test_torque_model_larger_near_lever_peak():
    h_star, _ = torque_lever_peak(GE)
    w = np.array([0.2, 0.2, 0.0])
    wd = np.array([2.0, 2.0, 0.0])
    near = _model_torque(w, wd, h_star, 7.0)
    far = _model_torque(w, wd, 2.0, 7.0)
    assert near[0] > far[0] and near[1] > far[1]


def test_torque_indi_fixed_point():
    tau_hat = np.array([0.01, -0.02, 0.005])
    wd = [1.0, 2.0, 3.0]
    J = equivalent_inertia_op(0.2, GE, VEH, thrust=7.0)
    out = np.array(torque_command_indi(tau_hat.tolist(), wd, wd, J))
    assert np.allclose(out, tau_hat)


# -- allocation ---------------------------------------------------------------------

def test_allocate_symmetric_hover():
    n0 = 9000.0
    T = 4.0 * VEH.k_t * n0 * n0
    cmd = allocate(T, np.zeros(3), VEH)
    assert np.allclose(cmd.rotor_speeds, n0, rtol=1e-12)
    assert not cmd.saturated


def test_allocate_round_trip_unsaturated():
    T = 8.0
    tau = np.array([0.05, -0.04, 0.01])
    cmd = allocate(T, tau, VEH)
    wrench = VEH.mixing @ (cmd.rotor_speeds**2)
    assert abs(wrench[0] - T) < 1e-9
    assert np.max(np.abs(wrench[1:4] - tau)) < 1e-9
    assert not cmd.saturated


def test_allocate_sheds_yaw_first():
    # big yaw on top of hover pushes one rotor pair over the speed limit
    T = VEH.m * GRAVITY
    tau = np.array([0.02, 0.01, 3.0])
    cmd = allocate(T, tau, VEH)
    assert cmd.saturated and cmd.yaw_shed and not cmd.rp_shed
    assert np.all(cmd.rotor_speeds <= VEH.n_max + 1e-9)
    wrench = VEH.mixing @ (cmd.rotor_speeds**2)
    assert np.isclose(wrench[0], T, rtol=1e-9)
    assert np.isclose(wrench[1], tau[0], rtol=1e-6)
    assert np.isclose(wrench[2], tau[1], rtol=1e-6)
    assert 0.0 <= wrench[3] < tau[2]


def test_allocate_negative_squared_clamped():
    # torque far beyond authority at tiny thrust drives squares negative
    cmd = allocate(0.1, np.array([2.0, 0.0, 0.0]), VEH)
    assert cmd.saturated
    assert np.all(cmd.rotor_speeds >= 0.0)
    assert np.all(cmd.rotor_speeds <= VEH.n_max + 1e-9)


def test_allocate_clamps_pure_thrust_last():
    # thrust beyond four rotors at n_max: no yaw or roll/pitch fraction helps
    cmd = allocate(40.0, [0.0, 0.0, 0.0], VEH)
    assert cmd.rotor_speeds.tolist() == [VEH.n_max] * 4
    assert cmd.thrust == pytest.approx(4.0 * VEH.k_t * VEH.n_max**2, rel=1e-12)
    assert cmd.thrust == pytest.approx(27.2, rel=1e-12)
    assert cmd.saturated and cmd.yaw_shed and cmd.rp_shed and cmd.thrust_clipped


def test_allocate_sheds_roll_pitch_when_yaw_column_is_zero():
    # no yaw to shed (a zero yaw column) and a pitch torque beyond reach at low thrust
    cmd = allocate(5.0, [0.0, -1.0, 0.0], VEH)
    assert cmd.saturated and cmd.yaw_shed and cmd.rp_shed and not cmd.thrust_clipped
    assert cmd.thrust == pytest.approx(5.0, rel=1e-9)
    assert cmd.torque[0] == pytest.approx(0.0, abs=1e-12)
    assert cmd.torque[2] == pytest.approx(0.0, abs=1e-12)
    assert -1.0 < cmd.torque[1] < 0.0
    assert min(cmd.rotor_speeds) == 0.0 and max(cmd.rotor_speeds) <= VEH.n_max


@st.composite
def _squares_and_bound(draw):
    """(n^2 values, hi): finite or infinite floats, with +-0, subnormals, hi and just above it."""
    hi = draw(st.one_of(st.just(VEH.n_max**2), st.floats(0.0, 1e300)))
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                               hi, math.nextafter(hi, math.inf), 2.0 * hi + 1.0])
    value = st.one_of(special, st.floats(allow_nan=False))
    return draw(st.lists(value, min_size=4, max_size=4)), hi


@settings(max_examples=500)
@given(_squares_and_bound())
def test_allocate_sqrt_clip_is_numpys(case):
    values, hi = case
    want = np.sqrt(np.clip(np.array(values), 0.0, hi))
    assert np.array(_sqrt_clip(values, hi)).tobytes() == want.tobytes()


# -- closed loop ----------------------------------------------------------------------

def test_constant_disturbance_torque_rejected_by_incremental_mode():
    traj = make_trajectory("hover", height=0.8)
    ctrl = CascadeController(traj, VEH, GE, ControlGains(torque_comp="hybrid"))
    cfg = SimConfig(
        dt=1e-3, log_decimation=4, ext_torque=np.array([0.02, 0.0, 0.0]), ext_on=0.5
    )
    log = run_closed_loop(ctrl, VEH, GE, cfg, duration=3.0, seed=2)
    tail = log.after(2.5)
    q = tail.cols(["qw", "qx", "qy", "qz"])
    qd = tail.cols(["cmd_qw", "cmd_qx", "cmd_qy", "cmd_qz"])
    ang = [quat.geodesic_angle(q[i], qd[i]) for i in range(len(tail))]
    assert max(ang) < math.radians(0.2)
    # the model-only loop keeps a static offset under the same torque
    ctrl2 = CascadeController(traj, VEH, GE, ControlGains(torque_comp="model"))
    log2 = run_closed_loop(ctrl2, VEH, GE, cfg, duration=3.0, seed=2)
    tail2 = log2.after(2.5)
    q2 = tail2.cols(["qw", "qx", "qy", "qz"])
    qd2 = tail2.cols(["cmd_qw", "cmd_qx", "cmd_qy", "cmd_qz"])
    ang2 = [quat.geodesic_angle(q2[i], qd2[i]) for i in range(len(tail2))]
    assert min(ang2) > 3.0 * max(ang)


def test_feedforward_controller_protocol():
    traj = make_trajectory("hover", height=1.0)
    ff = FeedforwardController(traj, VEH, GE, command_lead=0.001)
    ff.plan(np.array([0.0, 0.002]))
    cmd = ff.tick(0.0, None)
    assert np.isclose(cmd.thrust, VEH.m * GRAVITY / (1.0 + thrust_factor(1.0, GE)), rtol=1e-9)
    assert cmd.reference is not None and cmd.attitude_target is not None


def test_run_closed_loop_needs_only_trajectory_and_tick():
    traj = make_trajectory("lemniscate", speed=1.0, height=0.3)
    cfg = SimConfig(dt=1e-3, log_decimation=2)
    ff = FeedforwardController(traj, VEH, GE, command_lead=0.001)
    # the feedforward tick keeps no state but its plan
    stub = SimpleNamespace(trajectory=traj, plan=ff.plan, tick=ff.tick)
    want = run_closed_loop(ff, VEH, GE, cfg, duration=0.2, seed=1)
    got = run_closed_loop(stub, VEH, GE, cfg, duration=0.2, seed=1)
    assert got.data.tobytes() == want.data.tobytes() and len(got) == 101
    assert (got.crashed, got.infeasible) == (want.crashed, want.infeasible)


def test_a_failed_reference_sample_raises_at_its_own_tick():
    def traj(t):
        # the reference drops below the ground from t = 6 ms on
        flat = hover_point(t, [0.0, 0.0, 1.0])
        flat.p[..., 2] = np.where(np.asarray(t) < 0.0055, 1.0, -0.5)
        return flat

    times = np.arange(8) * 0.002
    ff = FeedforwardController(traj, VEH, GE, command_lead=0.0)
    ff.plan(times)
    for t in times[:3].tolist():
        assert ff.tick(t, None).reference.feasible
    with pytest.raises(ReferenceGenerationError, match=r"^reference altitude below ground: "
                                                       r"h=-0\.5000$"):
        ff.tick(times[3].item(), None)


def test_a_tick_off_the_plan_is_a_fault():
    traj = make_trajectory("hover", height=1.0)
    times = np.arange(10) * 0.002
    for ctrl in (FeedforwardController(traj, VEH, GE, command_lead=0.001),
                 CascadeController(traj, VEH, GE, ControlGains())):
        with pytest.raises(ControllerFault, match="not a planned tick"):
            ctrl.tick(0.0, None)   # no plan yet
        ctrl.plan(times)
        with pytest.raises(ControllerFault, match="not a planned tick"):
            ctrl.tick(0.001, None)
        with pytest.raises(ControllerFault, match="not a planned tick"):
            ctrl.tick(0.002, None)   # the first tick comes first


def test_controllers_keep_no_last_tick_attributes():
    # the log reads each tick's command; no controller keeps a last_* side channel
    path = os.path.join(os.path.dirname(__file__), "..", "src", "nearground", "controller.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names and not [name for name in names if name.startswith("last_")]


# -- the float tick against the array code it replaced ---------------------------------

class _ArrayLowPass:
    def __init__(self, cutoff_hz, rate_hz):
        dt = 1.0 / rate_hz
        tau = 1.0 / (2.0 * math.pi * cutoff_hz)
        self.alpha = dt / (dt + tau)
        self.state = None

    def update(self, x):
        x = np.asarray(x, dtype=float)
        self.state = x.copy() if self.state is None else self.state + self.alpha * (x - self.state)
        return self.state


class _ArrayFilteredDerivative:
    def __init__(self, cutoff_hz, rate_hz):
        self.lp = _ArrayLowPass(cutoff_hz, rate_hz)
        self.dt = 1.0 / rate_hz
        self.prev = None

    def update(self, x):
        y = self.lp.update(x)
        d = np.zeros_like(y) if self.prev is None else (y - self.prev) / self.dt
        self.prev = y.copy()
        return y, d


class _ArrayCascade:
    """CascadeController's tick in numpy arrays, every stage recomputed on every tick.

    A test-side reference: the gyro and observer filters, the observer, the
    attitude error, the body-rate loop and both torque laws as array
    expressions, every inertia product one ``.dot`` on the matrix.
    """

    def __init__(self, ctrl: CascadeController, rate_hz):
        self.c = ctrl
        g = ctrl.gains
        self.gyro = _ArrayFilteredDerivative(g.gyro_cutoff, rate_hz)
        self.f_accel = _ArrayLowPass(g.observer_cutoff, rate_hz)
        self.f_thrust = _ArrayLowPass(g.observer_cutoff, rate_hz)
        self.f_omega = _ArrayFilteredDerivative(g.observer_cutoff, rate_hz)
        self.count = 0
        self.f_cmd = self.flat = self.ref = self.wrench = None

    def _observer(self, meas, thrust_hat, tau_hat):
        veh = self.c.vehicle
        f_f = self.f_accel.update(meas.specific_force)
        T_f = float(self.f_thrust.update([thrust_hat])[0])
        w_f, wd_f = self.f_omega.update(meas.gyro)
        R = quat.rot_matrix(meas.q)
        J = veh.inertia
        return (R.dot(f_f) - R[:, 2] * (T_f / veh.m),
                J.dot(wd_f) + np.cross(w_f, J.dot(w_f)) - tau_hat)

    def tick(self, t, meas):
        c, veh = self.c, self.c.vehicle
        omega_f, omega_dot_f = self.gyro.update(meas.gyro)
        n = meas.rotor_speeds
        tau_hat = veh.mixing.dot(n * n)[1:4]
        self.wrench = self._observer(meas, veh.k_t * float(n.dot(n)), tau_hat)
        if self.count % c.ratio == 0:
            self.flat = c.trajectory(t)
            self.ref = flat_reference(self.flat, veh, c.ge)
            a_des = acceleration_command(self.flat, self.ref, meas.p, meas.v, c.gains, veh,
                                         c.ge, self.wrench[0])
            self.f_cmd = a_des + GRAVITY * Z
        self.count += 1
        flat, ref = self.flat, self.ref
        R_hat = quat.rot_matrix(meas.q)
        thrust_des = thrust_command(self.f_cmd, R_hat[:, 2], veh.m)
        q_des = quat.from_z_axis_yaw(self.f_cmd, flat.yaw)
        hw, hx, hy, hz = meas.q
        e = np.array(quat.multiply([hw, -hx, -hy, -hz], q_des.tolist()))
        if e[0] < 0.0:
            e = -e
        w = min(e[0], 1.0)
        k = 2.0 if 1.0 - w < 1e-8 else 2.0 * math.acos(w) / math.sqrt(1.0 - w * w)
        omega_des = c.gains.kxi * (k * e[1:]) + ref.omega
        omega_dot_des = c.gains.komega * (omega_des - omega_f) + ref.omega_dot
        mode = c.gains.torque_comp
        J = veh.inertia
        if mode in ("model", "hybrid"):
            J = equivalent_inertia(flat.p[2] + veh.rotor_plane_offset, c.ge, veh, thrust=ref.thrust)
        if mode in ("none", "model"):
            torque = J.dot(omega_dot_des) + np.cross(omega_des, J.dot(omega_des))
        else:
            torque = tau_hat + J.dot(omega_dot_des - omega_dot_f)
        return allocate(thrust_des, torque, veh), q_des


def _exact(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


class _Twin:
    """Ticks the controller and its array reference on the same measurement."""

    def __init__(self, ctrl, reference):
        self.ctrl, self.reference, self.ticks = ctrl, reference, 0

    def __getattr__(self, name):
        return getattr(self.ctrl, name)

    def tick(self, t, meas):
        cmd = self.ctrl.tick(t, meas)
        want, q_des = self.reference.tick(t, meas)
        assert _exact(cmd.thrust, cmd.torque, cmd.rotor_speeds) == \
            _exact(want.thrust, want.torque, want.rotor_speeds)
        assert (cmd.saturated, cmd.yaw_shed, cmd.rp_shed, cmd.thrust_clipped) == \
            (want.saturated, want.yaw_shed, want.rp_shed, want.thrust_clipped)
        est = cmd.wrench
        assert _exact(est.accel, est.torque) == _exact(*self.reference.wrench)
        assert _exact(cmd.attitude_target) == _exact(q_des)
        self.ticks += 1
        return cmd


@pytest.mark.parametrize("accel, torque", [("model", "none"), ("model", "model"),
                                           ("indi", "indi"), ("model", "hybrid")])
@pytest.mark.parametrize("offdiag", [False, True], ids=["diagonal", "offdiag_inertia_offset"])
def test_float_tick_bit_identical_to_array_code(accel, torque, offdiag):
    overrides = [("duration", "0.3"), ("metrics_warmup", "0.0"), ("ctrl.accel_comp", accel),
                 ("ctrl.torque_comp", torque)]
    if offdiag:
        overrides += [("vehicle.inertia_xy", "2e-4"), ("vehicle.inertia_yz", "1.5e-4"),
                      ("vehicle.rotor_plane_offset", "0.02")]
    scenario = Scenario.from_file(
        os.path.join(os.path.dirname(__file__), "..", "configs", "scenarios",
                     "lemniscate_low.cfg"),
        overrides=KeyValueConfig([(k, v, 0) for k, v in overrides], source="<test>"))
    _, ctrl = scenario.build()
    twin = _Twin(ctrl, _ArrayCascade(ctrl, scenario.sim.attitude_rate))
    log = run_closed_loop(twin, scenario.vehicle, scenario.ge, scenario.sim,
                          scenario.duration, seed=scenario.seed)
    assert twin.ticks == 151 and not log.crashed
