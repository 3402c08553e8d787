import math
import warnings

import numpy as np
import pytest

from nearground import quaternions as quat
from nearground.controller import CascadeController, ControlGains, FeedforwardController
from nearground.errors import ConfigError, InputError, SimulationFault
from nearground.flatness import make_trajectory
from nearground.groundeffect import (
    GroundEffectParams,
    leveling_axis,
    thrust_factor,
    torque_lever,
    torque_lever_peak,
    world_drag,
)
from nearground.simulator import (
    LOG_COLUMNS,
    SimConfig,
    TrajectoryLog,
    _Plant,
    disturbance_forces,
    hover_initial_state,
    imu_sample,
    run_closed_loop,
    simulate_attitude,
    step,
)
from nearground.vehicle import GRAVITY, VehicleParams

VEH = VehicleParams()
GE = GroundEffectParams()


def _derivative(x, cfg, t=0.0):
    """Plant time derivative of the packed state, rotor commands equal to the speeds."""
    return _Plant(VEH, GE, cfg).derivative(x, x[13:17].tolist(), t)[0]


def _hover_state(h, ge=GE, level=True):
    """Packed state in ground-effect hover equilibrium at altitude h."""
    T = VEH.m * GRAVITY / (1.0 + thrust_factor(h, ge))
    n0 = math.sqrt(T / (4.0 * VEH.k_t))
    x = np.zeros(17)
    x[2] = h
    x[6] = 1.0
    x[13:17] = n0
    return x


def test_hover_equilibrium_zero_derivative():
    cfg = SimConfig()
    x = _hover_state(0.25)
    xdot = _derivative(x, cfg)
    assert np.max(np.abs(xdot)) < 1e-10


def test_classic_hover_with_toggles_off():
    cfg = SimConfig(ge_force=False, ge_torque=False, ge_drag=False)
    T = VEH.m * GRAVITY
    n0 = math.sqrt(T / (4.0 * VEH.k_t))
    x = np.zeros(17)
    x[2] = 1.0
    x[6] = 1.0
    x[13:17] = n0
    xdot = _derivative(x, cfg)
    assert np.max(np.abs(xdot[3:6])) < 1e-10


def test_leveling_torque_restores_small_tilt():
    cfg = SimConfig()
    x = _hover_state(0.2)
    q = quat.from_axis_angle([1.0, 0.0, 0.0], math.radians(5.0))
    x[6:10] = q
    xdot = _derivative(x, cfg)
    # positive roll tilt must produce a negative roll acceleration
    assert xdot[10] < -1e-3
    off = SimConfig(ge_torque=False)
    xdot_off = _derivative(x, off)
    assert abs(xdot_off[10]) < 1e-12


def test_external_torque_injection():
    cfg = SimConfig(ext_torque=np.array([0.01, 0.0, 0.0]))
    x = _hover_state(1.5)
    xdot = _derivative(x, cfg, t=0.0)
    assert np.isclose(xdot[10], 0.01 / VEH.inertia[0, 0], rtol=1e-9)
    # outside the activation window the wrench vanishes
    cfg2 = SimConfig(ext_torque=np.array([0.01, 0.0, 0.0]), ext_on=1.0, ext_off=2.0)
    assert abs(_derivative(x, cfg2, t=0.5)[10]) < 1e-12


def test_hover_fixed_point_over_many_steps():
    cfg = SimConfig()
    x0 = _hover_state(0.3)
    x = x0.copy()
    for k in range(1000):
        x = step(x, x0[13:17], cfg.dt, VEH, GE, cfg, t=k * cfg.dt)
    assert np.max(np.abs(x - x0)) < 1e-9


def test_ballistic_free_fall_matches_parabola():
    cfg = SimConfig(ge_force=False, ge_torque=False, ge_drag=False, motor_tau=0.0)
    x = np.zeros(17)
    x[0:3] = [0.0, 0.0, 5.0]
    x[3:6] = [0.8, -0.4, 1.2]
    x[6] = 1.0
    t, dt = 0.0, cfg.dt
    xx = x.copy()
    for k in range(int(round(0.5 / dt))):
        xx = step(xx, np.zeros(4), dt, VEH, GE, cfg, t=k * dt)
    t = 0.5
    p_exact = x[0:3] + x[3:6] * t - 0.5 * GRAVITY * t * t * np.array([0, 0, 1.0])
    assert np.max(np.abs(xx[0:3] - p_exact)) < 1e-6


def test_step_halving_convergence():
    # order-4 integrator: halving dt changes a 1 s trajectory below 1e-6
    def run(dt):
        cfg = SimConfig(dt=dt)
        x = _hover_state(0.3)
        x[10:13] = [0.4, -0.3, 0.2]
        x[3:6] = [0.5, 0.2, 0.0]
        n_cmd = x[13:17] * 1.02
        for k in range(int(round(1.0 / dt))):
            x = step(x, n_cmd, dt, VEH, GE, cfg, t=k * dt)
        return x

    a = run(5.0e-4)
    b = run(2.5e-4)
    assert np.max(np.abs(a[0:3] - b[0:3])) < 1e-6


def test_energy_conserved_without_rotors_or_drag():
    cfg = SimConfig(ge_force=False, ge_torque=False, ge_drag=False, motor_tau=0.0)
    x = np.zeros(17)
    x[2] = 30.0
    x[3:6] = [1.0, -0.5, 0.5]
    x[6] = 1.0
    x[10:13] = [0.8, -0.6, 1.0]

    def energy(xv):
        ke = 0.5 * VEH.m * float(xv[3:6] @ xv[3:6])
        pe = VEH.m * GRAVITY * xv[2]
        re = 0.5 * float(xv[10:13] @ (VEH.inertia @ xv[10:13]))
        return ke + pe + re

    e0 = energy(x)
    for k in range(int(round(1.0 / cfg.dt))):
        x = step(x, np.zeros(4), cfg.dt, VEH, GE, cfg, t=k * cfg.dt)
    assert abs(energy(x) - e0) < 1e-6 * abs(e0)


def test_quaternion_norm_maintained():
    cfg = SimConfig()
    x = _hover_state(0.5)
    x[10:13] = [2.0, -1.5, 3.0]
    for k in range(2000):
        x = step(x, x[13:17], cfg.dt, VEH, GE, cfg, t=k * cfg.dt)
        assert abs(float(x[6:10] @ x[6:10]) - 1.0) < 1e-9


def test_nan_state_raises_simulation_fault():
    cfg = SimConfig()
    x = _hover_state(0.5)
    x[3] = np.nan
    with pytest.raises(SimulationFault):
        step(x, x[13:17], cfg.dt, VEH, GE, cfg)


def test_finite_state_with_overflowing_sum_is_not_a_fault():
    # the fault check sums the state first; a finite state whose sum
    # overflows must still pass
    cfg = SimConfig()
    x = _hover_state(0.5)
    x[0] = x[1] = 1.5e308
    out = step(x, x[13:17], cfg.dt, VEH, GE, cfg)
    assert out[0] == out[1] == 1.5e308 and np.all(np.isfinite(out))


def test_imu_hover_convention_and_determinism():
    cfg = SimConfig(noise_accel=0.02, noise_gyro=0.002)
    x = _hover_state(0.4)
    xdot = _derivative(x, cfg)
    clean = SimConfig()
    R = quat.rot_matrix(x[6:10])
    f, w = imu_sample(x, xdot, R, clean, np.random.default_rng(0))
    assert np.allclose(f, [0.0, 0.0, GRAVITY], atol=1e-10)
    assert np.allclose(w, 0.0)
    fa, wa = imu_sample(x, xdot, R, cfg, np.random.default_rng(7))
    fb, wb = imu_sample(x, xdot, R, cfg, np.random.default_rng(7))
    assert np.array_equal(fa, fb) and np.array_equal(wa, wb)


def test_small_tilt_oscillates_about_level_near_torque_peak():
    h_star, _ = torque_lever_peak(GE)
    thrust = VEH.m * GRAVITY / (1.0 + thrust_factor(h_star, GE))
    q0 = quat.from_axis_angle([1.0, 0.0, 0.0], math.radians(5.0))
    no_torque = lambda t, q, w: np.zeros(3)
    _, quats, _ = simulate_attitude(
        q0, np.zeros(3), no_torque, VEH, GE, h_star, thrust, 5e-4, 3.0, "explicit"
    )
    level = np.array([1.0, 0.0, 0.0, 0.0])
    tilt = np.array([quat.geodesic_angle(q, level) for q in quats])
    assert tilt.min() < math.radians(0.2)          # crosses level
    assert tilt.max() < math.radians(5.5)          # bounded by the initial tilt
    # without the torque the tilt persists indefinitely
    frozen = GroundEffectParams(g5=0.0)
    _, quats0, _ = simulate_attitude(
        q0, np.zeros(3), no_torque, VEH, frozen, h_star, thrust, 5e-4, 3.0, "explicit"
    )
    tilt0 = np.array([quat.geodesic_angle(q, level) for q in quats0])
    assert np.allclose(tilt0, math.radians(5.0), atol=1e-9)
    assert np.mean(tilt) < 0.8 * np.mean(tilt0)


def test_simulate_attitude_rejects_non_finite_torque():
    nan_torque = lambda t, q, w: [math.nan, 0.0, 0.0] if t > 0.01 else [0.0, 0.0, 0.0]
    with pytest.raises(SimulationFault, match="non-finite state"):
        simulate_attitude([1.0, 0.0, 0.0, 0.0], np.zeros(3), nan_torque, VEH, GE,
                          0.2, 7.0, 5e-4, 0.1, "explicit")


@pytest.mark.parametrize("tilt_deg, h, overrides", [
    (4.0, 0.15, {}),
    (25.0, 0.15, {}),                       # past tilt_saturation_deg
    (4.0, 0.15, {"torque_formulation": "equivalent"}),
    (25.0, 0.15, {"ge_force": False}),
    (25.0, 0.15, {"ge_drag": False}),
    (25.0, 0.15, {"ge_torque": False}),
    (4.0, 0.0, {}),
    (4.0, -0.05, {}),
])
def test_disturbance_forces_match_public_functions(tilt_deg, h, overrides):
    cfg = SimConfig(**overrides)
    q = np.array(quat.multiply(
        quat.from_axis_angle([0.0, 0.0, 1.0], 0.7).tolist(),
        quat.from_axis_angle([1.0, 2.0, 0.0], math.radians(tilt_deg)).tolist()))
    x = _hover_state(0.3)
    x[2] = h
    x[3:6] = [0.8, -0.5, 0.3]
    x[6:10] = q
    x[13:17] *= [1.0, 1.1, 0.9, 1.05]
    R = quat.rot_matrix(q)
    T = VEH.k_t * float(x[13:17] @ x[13:17])
    plant = _Plant(VEH, GE, cfg)
    f_ge, f_drag, tau = disturbance_forces(plant, x, plant.frame(x, h))
    zero = np.zeros(3)
    on = h > 0.0
    want_ge = thrust_factor(h, GE) * T * R[:, 2] if on and cfg.ge_force else zero
    want_drag = world_drag(R, x[3:6], h, GE) if on and cfg.ge_drag else zero
    explicit = cfg.torque_formulation == "explicit"
    want_tau = (torque_lever(h, GE) * T * leveling_axis(R, GE)
                if on and cfg.ge_torque and explicit else zero)
    for got, want in ((f_ge, want_ge), (f_drag, want_drag), (tau, want_tau)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    if on and cfg.ge_torque and explicit:
        sin_tilt = min(math.sin(math.radians(tilt_deg)),
                       math.sin(math.radians(GE.tilt_saturation_deg)))
        assert np.linalg.norm(tau) == pytest.approx(torque_lever(h, GE) * T * sin_tilt)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(dt=3e-4)  # the 2 ms control period is not a multiple of dt
    with pytest.raises(ConfigError):
        SimConfig(torque_formulation="magic")
    bad = [
        {"dt": 4e-3}, {"dt": math.nan}, {"dt": 0.0},
        {"motor_tau": -0.01}, {"noise_accel": -0.1}, {"noise_gyro": -0.1},
        {"motor_tau": math.nan},
        {"log_decimation": 0}, {"log_decimation": -2}, {"log_decimation": 2.5},
        {"ground_clearance": math.nan},
        {"ext_on": math.nan}, {"ext_off": math.nan},
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)
    assert SimConfig(ext_off=math.inf).ext_off == math.inf


def _hover_controller(noise=False):
    traj = make_trajectory("hover", height=0.5)
    gains = ControlGains()
    return CascadeController(traj, VEH, GE, gains)


def test_closed_loop_hover_stays_put():
    cfg = SimConfig(log_decimation=4)
    log = run_closed_loop(_hover_controller(), VEH, GE, cfg, duration=2.0, seed=1)
    assert not log.crashed
    err = log.cols(["px", "py"]) - 0.0
    assert np.max(np.abs(err)) < 5e-3
    assert np.max(np.abs(log.col("pz") - 0.5)) < 5e-3


def test_identical_seeds_identical_logs(tmp_path):
    cfg = SimConfig(noise_accel=0.05, noise_gyro=0.005, log_decimation=4)
    log_a = run_closed_loop(_hover_controller(), VEH, GE, cfg, duration=1.0, seed=42)
    log_b = run_closed_loop(_hover_controller(), VEH, GE, cfg, duration=1.0, seed=42)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    log_a.to_csv(pa)
    log_b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    log_c = run_closed_loop(_hover_controller(), VEH, GE, cfg, duration=1.0, seed=43)
    assert not np.array_equal(log_a.data, log_c.data)


def test_crash_truncates_and_flags():
    traj = make_trajectory("hover_descent", h_start=0.5, h_end=0.04, duration=3.0)
    gains = ControlGains()
    ctrl = CascadeController(traj, VEH, GE, gains)
    cfg = SimConfig(ground_clearance=0.3)  # artificially high floor
    log = run_closed_loop(ctrl, VEH, GE, cfg, duration=4.0, seed=0)
    assert log.crashed
    assert log.col("t")[-1] < 4.0


def test_log_csv_round_trip(tmp_path):
    cfg = SimConfig(log_decimation=10)
    log = run_closed_loop(_hover_controller(), VEH, GE, cfg, duration=0.5, seed=5)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    back = TrajectoryLog.from_csv(path)
    assert np.array_equal(back.data, log.data)
    assert back.crashed == log.crashed
    assert back.seed == log.seed
    assert list(LOG_COLUMNS) == TrajectoryLog.columns


def test_empty_log_round_trips_silently(tmp_path):
    # a header-only file is what to_csv writes for a log with no rows
    path = tmp_path / "log.csv"
    TrajectoryLog(np.empty((0, len(LOG_COLUMNS))), True, False, 4).to_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = TrajectoryLog.from_csv(path)
    assert back.data.shape == (0, len(LOG_COLUMNS))
    assert back.crashed and not back.infeasible and back.seed == 4


def test_log_csv_text_of_special_values(tmp_path):
    # each cell is "%.17g" of the float64, the way the row-by-row numpy formatting wrote it
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
               1.0 / 3.0, -1e300, 123456789.0, 0.1]
    data = np.resize(np.array(special), (3, len(LOG_COLUMNS)))
    data[1] = -data[1]
    path = tmp_path / "log.csv"
    TrajectoryLog(data, False, False, 3).to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2:] == [",".join("%.17g" % v for v in row) for row in data]
    back = TrajectoryLog.from_csv(path)
    assert np.array_equal(back.data, data, equal_nan=True)
    assert np.array_equal(np.signbit(back.data[~np.isnan(data)]), np.signbit(data[~np.isnan(data)]))


def test_initial_state_matches_reference():
    traj = make_trajectory("lemniscate", speed=1.0, height=0.5)
    x0 = hover_initial_state(traj, VEH, GE)
    assert np.allclose(x0[0:3], traj(0.0).p)
    assert np.allclose(x0[3:6], traj(0.0).v)


def test_initial_state_takes_only_the_fixed_gravity():
    # bench/workloads.py passes scenario.sim.gravity positionally; any other value is refused
    traj = make_trajectory("lemniscate", speed=1.0, height=0.5)
    assert np.array_equal(hover_initial_state(traj, VEH, GE, GRAVITY),
                          hover_initial_state(traj, VEH, GE))
    for gravity in (9.0, math.nan):
        with pytest.raises(InputError, match="gravity"):
            hover_initial_state(traj, VEH, GE, gravity)
