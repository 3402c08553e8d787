"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines; the suite is seeded end to end and uses only the default
desk-scale configuration.
"""

import math
import time

import numpy as np
import pytest

from nearground import quaternions as quat
from nearground.controller import (
    CascadeController,
    ControlGains,
    FeedforwardController,
    attitude_error_vector,
)
from nearground.estimation import (
    fit_drag_coefficients,
    fit_thrust_factor,
    fit_torque_lever,
    spearman,
)
from nearground.flatness import lemniscate_period, make_trajectory
from nearground.groundeffect import (
    GroundEffectParams,
    drag_coefficients,
    equivalent_inertia,
    leveling_torque_quadrature,
    thrust_factor,
    thrust_factor_prime,
    torque_lever,
    torque_lever_peak,
)
from nearground.harness import (
    Scenario,
    angle_error_profile,
    attitude_errors,
    compute_metrics,
    run,
)
from nearground.simulator import SimConfig, run_closed_loop, simulate_attitude
from nearground.vehicle import GRAVITY, VehicleParams

VEH = VehicleParams()
GE = GroundEffectParams()
LEVEL = np.array([1.0, 0.0, 0.0, 0.0])


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_torque_quadrature_oracle():
    t0 = time.monotonic()
    thrust = 7.0
    worst_small, worst_large = 0.0, 0.0
    for h in np.linspace(0.1, 1.0, 10):
        for deg in (0.5, 1.0, 2.0, 4.0, 7.0, 10.0):
            tilt = math.radians(deg)
            closed = torque_lever(h, GE) * thrust * math.sin(tilt)
            reference = leveling_torque_quadrature(h, tilt, thrust, GE)
            rel = abs(closed - reference) / abs(reference)
            if deg <= 2.0:
                worst_small = max(worst_small, rel)
            worst_large = max(worst_large, rel)
    elapsed = time.monotonic() - t0
    assert worst_small <= 0.005
    assert worst_large <= 0.05
    assert elapsed < 5.0
    _report(1, f"closed form vs quadrature: {worst_small*100:.3f}% (<=2 deg), "
               f"{worst_large*100:.3f}% (<=10 deg), {elapsed:.2f}s")


def test_criterion_02_lever_derivative_identity():
    b = 0.30
    tied = GroundEffectParams(g1=GE.g1, g2=GE.g2, g3=0.0, g4=GE.g1, g5=b * b * GE.g2 / 4.0)
    grid = np.linspace(0.0, 2.0, 1000)
    worst = max(
        abs(torque_lever(h, tied) + (b * b / 8.0) * thrust_factor_prime(h, tied))
        for h in grid
    )
    assert worst < 1e-9
    _report(2, f"lever = -(b^2/8) dF/dh on 1000-point grid, worst dev {worst:.2e}")


def test_criterion_03_model_equivalence_under_inner_loop():
    h_star, _ = torque_lever_peak(GE)
    thrust = VEH.m * GRAVITY / (1.0 + thrust_factor(h_star, GE))
    tilt0 = math.radians(5.0)
    q0 = quat.from_axis_angle([1.0, 0.0, 0.0], tilt0)
    Jp = equivalent_inertia(h_star, GE, VEH, thrust=thrust)
    k_xi, k_om = 12.0, 60.0

    def inner_loop(t, q, w):
        # identical proposed inner loop driving both plant formulations
        e = attitude_error_vector(q, LEVEL)
        w_des = k_xi * e
        wd_des = k_om * (w_des - w)
        return Jp @ wd_des + np.cross(w_des, Jp @ w_des)

    dt = 5.0e-4
    _, quats_a, _ = simulate_attitude(
        q0, np.zeros(3), inner_loop, VEH, GE, h_star, thrust, dt, 1.0, "explicit"
    )
    _, quats_b, _ = simulate_attitude(
        q0, np.zeros(3), inner_loop, VEH, GE, h_star, thrust, dt, 1.0, "equivalent"
    )
    diffs = np.array(
        [quat.geodesic_angle(a, b) for a, b in zip(quats_a, quats_b)]
    )
    rel_rms = math.sqrt(float(np.mean(diffs**2))) / tilt0
    assert rel_rms < 0.02
    _report(3, f"explicit vs equivalent-inertia trajectories differ {rel_rms*100:.2f}% RMS "
               f"of the 5 deg tilt at h={h_star:.3f} m")


def test_criterion_04_flatness_feedforward_and_feedback():
    period = lemniscate_period(0.75, 1.0)
    traj = make_trajectory("lemniscate", speed=1.0, height=0.12)

    # feedforward against the plant form the reference pipeline models
    ff_cfg = SimConfig(dt=1e-3, motor_tau=0.0, torque_formulation="equivalent",
                       log_decimation=2)
    ff = FeedforwardController(traj, VEH, GE, command_lead=0.5 / ff_cfg.attitude_rate)
    t0 = time.monotonic()
    log_ff = run_closed_loop(ff, VEH, GE, ff_cfg, duration=period, seed=0)
    t_ff = time.monotonic() - t0
    err = log_ff.cols(["px", "py", "pz"]) - log_ff.cols(["ref_px", "ref_py", "ref_pz"])
    drift = float(np.max(np.linalg.norm(err, axis=1)))
    assert not log_ff.crashed
    assert drift < 0.05
    assert t_ff < 10.0

    # feedback against the true explicit-torque plant with motor lag
    fb_cfg = SimConfig(dt=1e-3, log_decimation=2)
    ctrl = CascadeController(traj, VEH, GE, ControlGains())
    t0 = time.monotonic()
    log_fb = run_closed_loop(ctrl, VEH, GE, fb_cfg, duration=period, seed=0)
    t_fb = time.monotonic() - t0
    err = log_fb.cols(["px", "py", "pz"]) - log_fb.cols(["ref_px", "ref_py", "ref_pz"])
    rmse = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    assert not log_fb.crashed
    assert rmse < 0.01
    assert t_fb < 10.0
    _report(4, f"pure-feedforward drift {drift*100:.2f} cm/period ({t_ff:.1f}s), "
               f"feedback RMSE {rmse*100:.2f} cm ({t_fb:.1f}s)")


def _descent_scenario(name, torque_comp, seed=3):
    scenario = Scenario(
        name=name,
        seed=seed,
        duration=54.0,
        trajectory_kind="hover_descent",
        trajectory_params={"h_start": 0.9, "h_end": 0.08, "duration": 50.0, "hold": 2.0},
        metrics_warmup=2.5,
    )
    scenario.sim = SimConfig(
        dt=1e-3, log_decimation=2,
        ext_force=np.array([0.4, 0.0, 0.0]),
        noise_gyro=0.001, noise_accel=0.01,
    )
    scenario.gains = ControlGains(torque_comp=torque_comp)
    return scenario


def test_criterion_05_hover_descent_profile():
    log_none, _ = run(_descent_scenario("descent_none", "none"))
    log_hyb, _ = run(_descent_scenario("descent_hybrid", "hybrid"))
    assert not log_none.crashed and not log_hyb.crashed

    prof_none = angle_error_profile(log_none.after(2.5), half_width=0.04, step=0.02)
    prof_hyb = angle_error_profile(log_hyb.after(2.5), half_width=0.04, step=0.02)
    h_star, _ = torque_lever_peak(GE)
    peak_h = float(prof_none[np.argmax(prof_none[:, 1]), 0])
    ratio = float(prof_hyb[:, 1].max() / prof_hyb[:, 1].mean())
    assert abs(peak_h - h_star) <= 0.05
    assert ratio < 1.2
    _report(5, f"uncompensated profile peaks at h={peak_h:.3f} m (lever max {h_star:.3f}), "
               f"hybrid profile max/mean {ratio:.3f}")


def _comparison_scenario(name, accel, torque, seed):
    period = lemniscate_period(0.75, 1.0)
    scenario = Scenario(
        name=name,
        seed=seed,
        duration=period,
        trajectory_kind="lemniscate",
        trajectory_params={"speed": 1.0, "height": 0.12, "half_width": 0.75},
        mismatch=1.05,
        metrics_warmup=1.0,
    )
    scenario.sim = SimConfig(dt=1e-3, log_decimation=2, noise_accel=0.02, noise_gyro=0.002)
    scenario.gains = ControlGains(accel_comp=accel, torque_comp=torque)
    return scenario


def test_criterion_06_controller_comparison_under_mismatch():
    seeds = list(range(10))
    reductions = []
    hybrid_wins = 0
    for seed in seeds:
        _, m_full = run(_comparison_scenario("full", "model", "hybrid", seed))
        _, m_none = run(_comparison_scenario("none", "none", "none", seed))
        reductions.append(1.0 - m_full.rmse_all_cm / m_none.rmse_all_cm)
        att = {}
        for mode in ("hybrid", "model", "indi"):
            _, m = run(_comparison_scenario(mode, "model", mode, seed))
            att[mode] = m.attitude_rmse_rad
        if att["hybrid"] < att["model"] and att["hybrid"] < att["indi"]:
            hybrid_wins += 1
    mean_reduction = float(np.mean(reductions))
    assert mean_reduction >= 0.40
    assert min(reductions) > 0.0
    assert hybrid_wins >= 9
    _report(6, f"full compensation cuts total RMSE {mean_reduction*100:.1f}% on average; "
               f"hybrid torque wins attitude RMSE in {hybrid_wins}/10 seeds")


def test_criterion_07_identification_recovery():
    rng = np.random.default_rng(17)
    h = np.sort(rng.uniform(0.05, 1.5, 200))
    f = np.array([thrust_factor(x, GE) for x in h])
    f_noisy = f * (1.0 + 0.02 * rng.standard_normal(len(f)))
    rep_f = fit_thrust_factor(h, f_noisy)
    err_g1 = abs(rep_f.params[0] - GE.g1) / GE.g1
    err_g2 = abs(rep_f.params[1] - GE.g2) / GE.g2
    assert err_g1 < 0.05 and err_g2 < 0.05

    h2 = np.sort(rng.uniform(0.05, 1.0, 200))
    tilt = np.radians(rng.uniform(1.0, 9.0, 200))
    thrust = rng.uniform(5.0, 9.0, 200)
    tau = np.array(
        [torque_lever(x, GE) * T * math.sin(d) for x, d, T in zip(h2, tilt, thrust)]
    )
    tau_noisy = tau * (1.0 + 0.02 * rng.standard_normal(len(tau)))
    rep_m = fit_torque_lever(h2, tilt, thrust, tau_noisy)
    err_g4 = abs(rep_m.params[1] - GE.g4) / GE.g4
    err_g5 = abs(rep_m.params[2] - GE.g5) / GE.g5
    assert err_g4 < 0.05 and err_g5 < 0.05

    def synth(h_level, seed):
        r = np.random.default_rng(seed)
        t = np.linspace(0.0, 20.0, 4000)
        v = np.column_stack([0.8 * np.sin(0.7 * t), 0.6 * np.sin(1.1 * t + 0.3)])
        dx, dy = drag_coefficients(h_level, GE)
        a = np.column_stack([-dx / VEH.m * v[:, 0], -dy / VEH.m * v[:, 1]])
        return v, a + 0.002 * r.standard_normal(a.shape)

    lo = fit_drag_coefficients(*synth(0.1, 1), VEH.m)
    hi = fit_drag_coefficients(*synth(2.0, 2), VEH.m)
    ratio = lo.d_x / hi.d_x
    assert abs(ratio - 0.5963) < 0.02
    _report(7, f"thrust curve within {max(err_g1, err_g2)*100:.2f}%, torque curve within "
               f"{max(err_g4, err_g5)*100:.2f}%, drag ratio {ratio:.4f}")


def test_criterion_08_spearman_against_brute_force():
    def brute(x, y):
        def ranks(v):
            out = np.empty(len(v))
            for i, vi in enumerate(v):
                less = sum(1 for vj in v if vj < vi)
                equal = sum(1 for vj in v if vj == vi)
                out[i] = less + 0.5 * (equal + 1.0)
            return out

        rx, ry = ranks(x), ranks(y)
        cov = np.mean((rx - rx.mean()) * (ry - ry.mean()))
        return cov / (np.std(rx) * np.std(ry))

    rng = np.random.default_rng(8)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 60))
        x = rng.integers(0, 8, n).astype(float)
        y = rng.integers(0, 8, n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        worst = max(worst, abs(spearman(x, y) - brute(x, y)))
        checked += 1
    assert worst < 1e-12
    x = np.array([0.1, 0.7, 1.3, 2.9, 5.0, 5.5, 9.1])
    assert spearman(x, np.expm1(x)) == 1.0
    assert spearman(x, -np.sqrt(x)) == -1.0
    _report(8, f"100 tied datasets within {worst:.2e} of the direct formula; "
               "monotone cases exactly +-1")


def test_criterion_09_determinism(tmp_path):
    scenario = Scenario(
        name="determinism",
        seed=123,
        duration=2.0,
        trajectory_kind="hover",
        trajectory_params={"height": 0.3},
        metrics_warmup=0.5,
    )
    scenario.sim = SimConfig(dt=1e-3, log_decimation=2, noise_accel=0.05, noise_gyro=0.005)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(scenario, out_dir=str(out_a))
    run(scenario, out_dir=str(out_b))
    log_same = (out_a / "log.csv").read_bytes() == (out_b / "log.csv").read_bytes()
    metrics_same = (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
    assert log_same and metrics_same
    _report(9, "re-run with identical seed reproduces log.csv and metrics.json byte for byte")


def test_criterion_10_observer_identity_noise_free():
    period = lemniscate_period(0.75, 1.0)
    cases = [
        ("hover", {"height": 0.25}, 3.0),
        ("hover_descent", {"h_start": 1.0, "h_end": 0.1, "duration": 10.0, "hold": 1.0}, 12.0),
        ("lemniscate", {"speed": 1.0, "height": 0.12, "half_width": 0.75}, period),
    ]
    force_scale = VEH.m * GRAVITY
    torque_scale = math.sqrt(2.0) * VEH.b * VEH.m * GRAVITY / 8.0
    worst_f, worst_t = 0.0, 0.0
    for kind, params, duration in cases:
        scenario = Scenario(
            name=f"observer_{kind}", seed=0, duration=duration,
            trajectory_kind=kind, trajectory_params=params, metrics_warmup=1.0,
        )
        scenario.sim = SimConfig(dt=1e-3, log_decimation=2)
        log, _ = run(scenario)
        assert not log.crashed
        tail = log.after(1.0)
        a_obs = tail.cols(["obs_aext_x", "obs_aext_y", "obs_aext_z"])
        a_true = (tail.cols(["fg_x", "fg_y", "fg_z"])
                  + tail.cols(["fd_x", "fd_y", "fd_z"])) / VEH.m
        t_obs = tail.cols(["obs_tauext_x", "obs_tauext_y", "obs_tauext_z"])
        t_true = tail.cols(["taug_x", "taug_y", "taug_z"])
        worst_f = max(worst_f, float(np.max(np.abs(a_obs - a_true))) * VEH.m / force_scale)
        worst_t = max(worst_t, float(np.max(np.abs(t_obs - t_true))) / torque_scale)
    assert worst_f < 0.01
    assert worst_t < 0.01
    _report(10, f"observer residuals {worst_f*100:.3f}% of weight and "
                f"{worst_t*100:.3f}% of hover torque authority across all trajectories")
