import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearground import estimation
from nearground import quaternions as quat
from nearground.controller import CascadeController, ControlGains
from nearground.errors import ConfigError, FitError, InputError
from nearground.estimation import (
    DragFit,
    FilteredDerivative,
    LowPass,
    WrenchObserverRunner,
    average_ranks,
    fit_drag_coefficients,
    fit_drag_from_log,
    fit_thrust_factor,
    fit_thrust_factor_from_log,
    fit_torque_lever,
    spearman,
    thrust_factor_from_platform,
    wrench_observer,
)
from nearground.flatness import make_trajectory
from nearground.groundeffect import (
    GroundEffectParams,
    drag_coefficients,
    thrust_factor,
    torque_lever,
    torque_lever_peak,
)
from nearground.simulator import SimConfig, TrajectoryLog, run_closed_loop
from nearground.vehicle import GRAVITY, VehicleParams, inertia_operator

VEH = VehicleParams()
GE = GroundEffectParams()


# -- filters -------------------------------------------------------------------

def test_lowpass_dc_gain_unity():
    lp = LowPass(10.0, 500.0)
    y = lp.update([0.0])
    for _ in range(3000):
        y = lp.update([3.7])
    assert abs(float(y[0]) - 3.7) < 1e-9


def test_lowpass_step_rise_time():
    # 63.2% of a unit step after one time constant 1/(2 pi fc), within 5%
    fc, rate = 5.0, 2000.0
    lp = LowPass(fc, rate)
    tau = 1.0 / (2.0 * math.pi * fc)
    steps = int(round(tau * rate))
    y = lp.update([0.0])
    for _ in range(steps):
        y = lp.update([1.0])
    assert abs(float(y[0]) - 0.632) < 0.05 * 0.632


def test_lowpass_zero_input():
    lp = LowPass(10.0, 500.0)
    lp.update([0.0])
    for _ in range(100):
        y = lp.update([0.0])
    assert float(y[0]) == 0.0


def test_lowpass_rejects_bad_cutoff():
    # a NaN cutoff would make alpha NaN and every output after the first NaN
    for cutoff, rate in ((300.0, 500.0), (0.0, 500.0), (math.nan, 500.0), (10.0, math.nan),
                         (10.0, math.inf), (10.0, -500.0), (10.0, 0.0)):
        with pytest.raises(ConfigError):
            LowPass(cutoff, rate)


def test_filters_reject_a_sample_of_another_size():
    for filt in (LowPass(10.0, 500.0), FilteredDerivative(10.0, 500.0)):
        filt.update([0.0, 1.0, 2.0])
        with pytest.raises(InputError):
            filt.update([0.0, 1.0])


def test_filtered_derivative_tracks_ramp():
    fd = FilteredDerivative(40.0, 1000.0)
    lp = LowPass(40.0, 1000.0)
    out = 0.0
    for k in range(2000):
        x = [0.5 * k / 1000.0]
        filtered, out = fd.update(x)
        # the value it differentiates is a plain low-pass of the signal, bit for bit
        assert np.array_equal(filtered, lp.update(x))
    assert abs(float(out[0]) - 0.5) < 0.01


# -- observer ------------------------------------------------------------------

def test_observer_zero_at_exact_hover():
    runner = WrenchObserverRunner(VEH, 500.0, cutoff_hz=20.0)
    R = np.eye(3)
    f_body = np.array([0.0, 0.0, GRAVITY])
    thrust = VEH.m * GRAVITY
    est = None
    for k in range(500):
        est = runner.update(R, f_body, thrust, np.zeros(3), np.zeros(3))
    assert np.max(np.abs(est.accel)) < 1e-9
    assert np.max(np.abs(est.torque)) < 1e-9


def test_observer_pure_function_identity():
    q = quat.from_axis_angle([0.0, 1.0, 0.0], 0.2)
    R = quat.rot_matrix(q)
    a_ext_true = np.array([0.3, -0.1, 1.2])
    a = a_ext_true - GRAVITY * np.array([0, 0, 1.0]) + R[:, 2] * 7.0 / VEH.m
    f_body = R.T @ (a + GRAVITY * np.array([0, 0, 1.0]))
    est = wrench_observer(R, f_body.tolist(), 7.0, [0.0] * 3, [0.0] * 3, [0.0] * 3, VEH.m,
                          inertia_operator(VEH.inertia))
    assert np.max(np.abs(est.accel - a_ext_true)) < 1e-12


def test_observer_recovers_ground_force_in_flight():
    # level hover at the quarter-amplification altitude, zero noise
    h = math.sqrt(GE.g2 / 0.25 - GE.g1)
    traj = make_trajectory("hover", height=h)
    ctrl = CascadeController(traj, VEH, GE, ControlGains())
    cfg = SimConfig(dt=1e-3, log_decimation=4)
    log = run_closed_loop(ctrl, VEH, GE, cfg, duration=2.0, seed=1).after(1.0)
    a_obs = log.col("obs_aext_z")
    a_true = log.col("fg_z") / VEH.m
    assert np.max(np.abs(a_true)) > 1.5  # the ground force is really there
    assert np.max(np.abs(a_obs - a_true)) < 0.05 * np.max(np.abs(a_true))


def test_observer_torque_step_convergence():
    tau_step = 0.02
    traj = make_trajectory("hover", height=0.8)
    ctrl = CascadeController(traj, VEH, GE, ControlGains(torque_comp="hybrid"))
    cfg = SimConfig(dt=1e-3, log_decimation=1,
                    ext_torque=np.array([tau_step, 0.0, 0.0]), ext_on=1.0)
    log = run_closed_loop(ctrl, VEH, GE, cfg, duration=2.0, seed=1)
    t = log.col("t")
    tau_obs = log.col("obs_tauext_x")
    five_tau = 5.0 / (2.0 * math.pi * 20.0)
    settled = tau_obs[t >= 1.0 + five_tau]
    assert abs(np.median(settled[: len(settled) // 2]) - tau_step) < 0.05 * tau_step
    before = tau_obs[(t > 0.8) & (t < 1.0)]
    assert np.max(np.abs(before)) < 0.1 * tau_step


# -- spearman ------------------------------------------------------------------

def _brute_ranks(x):
    # direct definition: average of the positions a tie block occupies
    r = np.empty(len(x))
    for i, xi in enumerate(x):
        less = sum(1 for xj in x if xj < xi)
        equal = sum(1 for xj in x if xj == xi)
        r[i] = less + 0.5 * (equal + 1.0)
    return r


def _brute_spearman(x, y):
    rx, ry = _brute_ranks(x), _brute_ranks(y)
    cov = np.mean((rx - rx.mean()) * (ry - ry.mean()))
    sx = math.sqrt(np.mean((rx - rx.mean()) ** 2))
    sy = math.sqrt(np.mean((ry - ry.mean()) ** 2))
    return cov / (sx * sy)


def test_spearman_monotone_exact():
    x = np.array([0.3, 1.1, 2.7, 3.1, 9.4, 11.0])
    assert spearman(x, np.exp(x)) == 1.0
    assert spearman(x, -(x**3)) == -1.0


def test_spearman_ties_match_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = rng.integers(5, 40)
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert abs(spearman(x, y) - _brute_spearman(x, y)) < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_spearman_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(25)
    y = rng.standard_normal(25)
    base = spearman(x, y)
    assert abs(spearman(np.exp(x), y) - base) < 1e-12
    assert abs(spearman(x, 2.0 * y + 5.0) - base) < 1e-12


def test_spearman_constant_sequence_rejected():
    with pytest.raises(InputError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        spearman([1.0, 2.0], [1.0, 2.0])


def test_average_ranks_explicit_case():
    assert np.allclose(average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])


# -- measurement formulas --------------------------------------------------------

def test_platform_measurement_cases():
    assert thrust_factor_from_platform(7.0, 7.0) == 0.0
    assert np.isclose(thrust_factor_from_platform(1.3 * 7.0, 7.0), 0.3, rtol=1e-12)
    with pytest.raises(InputError):
        thrust_factor_from_platform(1.0, 0.0)


def test_platform_sweep_lies_on_model_curve():
    heights = np.linspace(0.05, 1.5, 40)
    thrust = 7.0
    samples = [
        thrust_factor_from_platform((1.0 + thrust_factor(h, GE)) * thrust, thrust)
        for h in heights
    ]
    assert np.max(np.abs(np.array(samples) - [thrust_factor(h, GE) for h in heights])) < 1e-12


def test_flight_measurement_matches_platform_on_same_truth(monkeypatch):
    # a log whose observer reads the model's extra force at one rotor speed, plus
    # a row with the rotors stopped, which carries no sample
    heights = np.linspace(0.06, 1.2, 25)
    n = math.sqrt(6.5 / (4.0 * VEH.k_t))
    thrust = VEH.k_t * 4.0 * n * n
    rows = np.zeros((len(heights) + 1, len(TrajectoryLog.columns)))
    log = TrajectoryLog(rows, False, False, 0)
    log.col("h")[:] = np.append(heights, 0.5)
    for name in ("n1", "n2", "n3", "n4"):
        log.col(name)[:-1] = n
    f_extra = np.array([thrust_factor(h, GE) * thrust for h in heights])   # world z force
    log.col("obs_aext_z")[:-1] = f_extra / VEH.m
    fitted = []
    monkeypatch.setattr(estimation, "fit_thrust_factor", lambda h, f: fitted.append((h, f)))
    fit_thrust_factor_from_log(log, VEH)
    [(h, flight)] = fitted
    assert np.array_equal(h, heights)
    plat = [thrust_factor_from_platform(thrust + f, thrust) for f in f_extra]
    assert np.max(np.abs(flight - plat)) < 1e-12


def test_flight_sweep_from_simulated_descent_is_decreasing():
    traj = make_trajectory("hover_descent", h_start=1.0, h_end=0.1, duration=10.0, hold=1.0)
    ctrl = CascadeController(traj, VEH, GE, ControlGains())
    cfg = SimConfig(dt=1e-3, log_decimation=10)
    log = run_closed_loop(ctrl, VEH, GE, cfg, duration=11.5, seed=4).after(1.5)
    thrust = VEH.k_t * np.sum(log.cols(["n1", "n2", "n3", "n4"]) ** 2, axis=1)
    samples = VEH.m * log.col("obs_aext_z") / thrust   # the flight reading of F(h)
    h = log.col("h")
    lo = samples[h < 0.2].mean()
    hi = samples[h > 0.8].mean()
    assert lo > 3.0 * hi > 0.0
    # profile tracks the true curve reasonably well away from transients
    mid = (h > 0.25) & (h < 0.7)
    truth = np.array([thrust_factor(x, GE) for x in h[mid]])
    assert np.max(np.abs(samples[mid] - truth)) < 0.05


# -- fits -------------------------------------------------------------------------

def test_fit_thrust_factor_noiseless_exact():
    rng = np.random.default_rng(0)
    h = np.sort(rng.uniform(0.05, 1.5, 60))
    f = np.array([thrust_factor(x, GE) for x in h])
    report = fit_thrust_factor(h, f)
    assert abs(report.params[0] - GE.g1) < 1e-8 * GE.g1
    assert abs(report.params[1] - GE.g2) < 1e-8 * GE.g2
    assert report.residual_rms < 1e-10


def test_fit_thrust_factor_noisy_monte_carlo():
    rng = np.random.default_rng(42)
    h = np.sort(rng.uniform(0.05, 1.5, 200))
    f = np.array([thrust_factor(x, GE) for x in h])
    noisy = f * (1.0 + 0.02 * rng.standard_normal(len(f)))
    report = fit_thrust_factor(h, noisy)
    assert abs(report.params[0] - GE.g1) < 0.05 * GE.g1
    assert abs(report.params[1] - GE.g2) < 0.05 * GE.g2


def test_fit_thrust_factor_degenerate_fails():
    h = np.full(20, 0.3)
    f = np.full(20, thrust_factor(0.3, GE))
    with pytest.raises(FitError):
        fit_thrust_factor(h, f)
    with pytest.raises(FitError):
        fit_thrust_factor([0.1] * 5, [0.5] * 5)


def test_fit_torque_lever_noiseless_exact():
    rng = np.random.default_rng(1)
    h = np.sort(rng.uniform(0.05, 1.0, 50))
    tilt = np.radians(rng.uniform(1.0, 9.0, 50))
    thrust = rng.uniform(5.0, 9.0, 50)
    tau = np.array(
        [torque_lever(x, GE) * T * math.sin(d) for x, d, T in zip(h, tilt, thrust)]
    )
    report = fit_torque_lever(h, tilt, thrust, tau)
    assert abs(report.params[0] - GE.g3) < 1e-6
    assert abs(report.params[1] - GE.g4) < 1e-6 * GE.g4
    assert abs(report.params[2] - GE.g5) < 1e-6 * GE.g5


def test_fit_torque_lever_peak_location():
    rng = np.random.default_rng(5)
    h = np.sort(rng.uniform(0.05, 1.0, 120))
    tilt = np.radians(rng.uniform(1.0, 9.0, 120))
    thrust = rng.uniform(5.0, 9.0, 120)
    tau = np.array(
        [torque_lever(x, GE) * T * math.sin(d) for x, d, T in zip(h, tilt, thrust)]
    )
    tau = tau * (1.0 + 0.02 * rng.standard_normal(len(tau)))
    report = fit_torque_lever(h, tilt, thrust, tau)
    fitted = GroundEffectParams(
        g1=GE.g1, g2=GE.g2,
        g3=report.params[0], g4=report.params[1], g5=report.params[2],
    )
    h_fit, _ = torque_lever_peak(fitted)
    h_true, _ = torque_lever_peak(GE)
    assert abs(h_fit - h_true) < 0.02


def test_fit_torque_lever_single_altitude_fails():
    h = np.full(40, 0.2)
    tilt = np.radians(np.linspace(1.0, 9.0, 40))
    thrust = np.linspace(5.0, 9.0, 40)
    tau = np.array(
        [torque_lever(x, GE) * T * math.sin(d) for x, d, T in zip(h, tilt, thrust)]
    )
    with pytest.raises(FitError):
        fit_torque_lever(h, tilt, thrust, tau)


def test_fit_torque_lever_rejects_large_tilts():
    with pytest.raises(FitError):
        fit_torque_lever([0.2, 0.3, 0.4], np.radians([5.0, 12.0, 6.0]), [7.0] * 3, [0.01] * 3)


# -- drag fits -----------------------------------------------------------------------

def _synthetic_drag_log(h, n=4000, noise=0.0, seed=0, dx=None, dy=None):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 20.0, n)
    vx = 0.8 * np.sin(0.7 * t)
    vy = 0.6 * np.sin(1.1 * t + 0.3)
    if dx is None:
        dx, dy = drag_coefficients(h, GE)
    ax = -dx / VEH.m * vx + noise * rng.standard_normal(n)
    ay = -dy / VEH.m * vy + noise * rng.standard_normal(n)
    return np.column_stack([vx, vy]), np.column_stack([ax, ay])


def test_fit_drag_recovers_synthetic_coefficients():
    v, a = _synthetic_drag_log(0.3, noise=0.002)
    dx_true, dy_true = drag_coefficients(0.3, GE)
    fit = fit_drag_coefficients(v, a, VEH.m)
    assert abs(fit.d_x - dx_true) < 0.03 * dx_true
    assert abs(fit.d_y - dy_true) < 0.03 * dy_true


def test_fit_drag_two_altitude_ratio():
    v_lo, a_lo = _synthetic_drag_log(0.1, noise=0.002, seed=1)
    v_hi, a_hi = _synthetic_drag_log(2.0, noise=0.002, seed=2)
    lo = fit_drag_coefficients(v_lo, a_lo, VEH.m)
    hi = fit_drag_coefficients(v_hi, a_hi, VEH.m)
    assert abs(lo.d_x / hi.d_x - 0.5963) < 0.02
    assert abs(lo.d_y / hi.d_y - 0.6179) < 0.02


def test_fit_drag_zero_drag_statistically_zero():
    v, a = _synthetic_drag_log(0.5, noise=0.01, seed=3, dx=0.0, dy=0.0)
    fit = fit_drag_coefficients(v, a, VEH.m)
    assert fit.d_x < 2.0 * fit.stderr_x
    assert fit.d_y < 2.0 * fit.stderr_y


def test_fit_drag_rejects_weak_excitation():
    v, a = _synthetic_drag_log(0.5)
    with pytest.raises(FitError):
        fit_drag_coefficients(0.1 * v, a, VEH.m)


def test_fit_drag_from_simulated_flight_log():
    # in-plane oscillation at fixed altitude excites both body axes
    def traj(t):
        from nearground.flatness import FlatOutput

        wx, wy, ax, ay = 1.2, 0.9, 0.7, 0.6
        return FlatOutput(
            [ax * math.sin(wx * t), ay * math.sin(wy * t), 0.5],
            [ax * wx * math.cos(wx * t), ay * wy * math.cos(wy * t), 0.0],
            [-ax * wx**2 * math.sin(wx * t), -ay * wy**2 * math.sin(wy * t), 0.0],
            [-ax * wx**3 * math.cos(wx * t), -ay * wy**3 * math.cos(wy * t), 0.0],
            [ax * wx**4 * math.sin(wx * t), ay * wy**4 * math.sin(wy * t), 0.0],
        )

    ctrl = CascadeController(traj, VEH, GE, ControlGains())
    cfg = SimConfig(dt=1e-3, log_decimation=2)
    log = run_closed_loop(ctrl, VEH, GE, cfg, duration=12.0, seed=6).after(1.5)
    fit = fit_drag_from_log(log, VEH)
    dx_true, _ = drag_coefficients(0.5, GE)
    assert abs(fit.d_x - dx_true) < 0.03 * dx_true
