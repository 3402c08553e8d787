"""The benchmark's four workloads, driven only through nearground's public API.

Each workload is one repetition of an experiment the paper reports. A
repetition runs its scenarios, checks their outputs and returns a Rep; the
caller times it. Every scenario seed is the shipped (or listed) seed plus
the benchmark's --seed, so a claim can be re-checked on unused seeds.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses to run against any other copy of the package.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "configs", "scenarios")

if not os.path.isfile(os.path.join(SRC, "nearground", "__init__.py")):
    raise SystemExit(f"nearground sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import nearground  # noqa: E402
from nearground import estimation, harness, simulator  # noqa: E402
from nearground.config import KeyValueConfig  # noqa: E402
from nearground.groundeffect import torque_lever_peak  # noqa: E402

if not os.path.abspath(nearground.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"imported nearground from {nearground.__file__}, not from {SRC}")

# Criterion 4: feedback position RMSE and pure-feedforward drift over one lap.
FEEDBACK_RMSE_M = 0.01
FEEDFORWARD_DRIFT_M = 0.05
# Criterion 5: the uncompensated error profile peaks near the lever maximum.
PROFILE_PEAK_TOL_M = 0.05
# Criterion 7: identified thrust-curve parameters within 5% of the truth.
FIT_REL_TOL = 0.05

# Criterion 6's (accel, torque) configurations, (none, none) first as baseline.
COMPARISON_CONFIGS = (("none", "none"), ("model", "model"), ("model", "indi"),
                      ("model", "hybrid"))
COMPARISON_SEEDS = (0, 1)
# Sized so one repetition fits a run: 1.5 s of the lap leaves 0.5 s after the
# shipped 1 s metrics warm-up, where (none, none) errs by ~20 cm and the
# compensated configs by under 1 cm.
COMPARISON_DURATION_S = 1.5
# The shipped 50 s descent costs ~40 s of wall time per mode. Over the same
# altitudes a 10 s descent keeps the uncompensated peak at 0.18-0.20 m on
# every seed tried; at 6 s half the seeds put it at 0.22 m, outside the
# tolerance, because the lag of a fast descent biases the peak upward.
DESCENT_S = 10.0
DESCENT_TAIL_S = 0.5
DESCENT_MODES = ("none", "hybrid")

TINY_LAP_S = 1.0
TINY_DESCENT = {"traj.h_start": 0.4, "traj.hold": 0.5, "metrics_warmup": 0.5}


@dataclass
class Rep:
    """Outcome of one repetition: work done, output checks and the logs to digest."""

    sim_s: float = 0.0
    steps: int = 0
    runs: int = 0
    failures: dict = field(default_factory=dict)   # run name -> [reason]
    rmse_cm: list = field(default_factory=list)
    logs: dict = field(default_factory=dict)       # run name -> in-memory TrajectoryLog
    log_files: dict = field(default_factory=dict)  # run name -> log.csv written by the run

    def fail(self, name, reason):
        self.failures.setdefault(name, []).append(reason)

    @contextmanager
    def attempt(self, name):
        """One attempted run; an exception fails it and the repetition goes on."""
        self.runs += 1
        try:
            yield
        except Exception as err:  # a raising run is counted, not fatal
            self.fail(name, f"raised {type(err).__name__}: {err}")

    def flew(self, name, scenario, log, metrics):
        t_end = float(log.col("t")[-1]) if len(log) else 0.0
        self.sim_s += t_end
        self.steps += round(t_end / scenario.sim.dt)
        self.rmse_cm.append(metrics.rmse_all_cm)
        if log.crashed:
            self.fail(name, f"crashed at t={t_end:.3f}s")
        if log.infeasible:
            self.fail(name, "reference infeasible")


def _scenario(cfg, overrides=(), seed=None, seed_offset=0):
    entries = [(key, str(value), 0) for key, value in overrides]
    if seed is not None:
        entries.append(("seed", str(seed), 0))
    scenario = harness.Scenario.from_file(
        os.path.join(SCENARIOS, cfg + ".cfg"),
        overrides=KeyValueConfig(entries, source="<bench>"),
    )
    scenario.seed += seed_offset
    return scenario


def _position_errors(log):
    return log.cols(["px", "py", "pz"]) - log.cols(["ref_px", "ref_py", "ref_pz"])


# -- closed_loop ---------------------------------------------------------------

def _closed_loop_scenario(seed, tiny):
    overrides = [("duration", TINY_LAP_S)] if tiny else []
    return _scenario("lemniscate_low", overrides, seed_offset=seed)


def closed_loop(seed, work_dir, tiny=False):
    rep = Rep()
    name = "lemniscate_low"
    with rep.attempt(name):
        scenario = _closed_loop_scenario(seed, tiny)
        log, metrics = harness.run(scenario)
        rep.flew(name, scenario, log, metrics)
        rep.logs[name] = log
        err = _position_errors(log)
        rmse = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
        if not rmse < FEEDBACK_RMSE_M:
            rep.fail(name, f"feedback RMSE {rmse:.4f} m >= {FEEDBACK_RMSE_M}")
    return rep


# -- feedforward ---------------------------------------------------------------

def _feedforward_scenario(seed, tiny):
    overrides = [("duration", TINY_LAP_S)] if tiny else []
    return _scenario("lemniscate_feedforward", overrides, seed_offset=seed)


def feedforward(seed, work_dir, tiny=False):
    rep = Rep()
    name = "lemniscate_feedforward"
    with rep.attempt(name):
        scenario = _feedforward_scenario(seed, tiny)
        log, metrics = harness.run(scenario)
        rep.flew(name, scenario, log, metrics)
        rep.logs[name] = log
        drift = float(np.max(np.linalg.norm(_position_errors(log), axis=1)))
        if not drift < FEEDFORWARD_DRIFT_M:
            rep.fail(name, f"feedforward drift {drift:.4f} m >= {FEEDFORWARD_DRIFT_M}")
    return rep


# -- comparison_batch ------------------------------------------------------------

def _comparison_name(base_seed, accel, torque):
    return f"seed{base_seed}_{accel}_{torque}"


def _comparison_scenario(base_seed, accel, torque, seed, tiny):
    overrides = [
        ("name", _comparison_name(base_seed, accel, torque)),
        ("duration", TINY_LAP_S + 0.25 if tiny else COMPARISON_DURATION_S),
        ("ctrl.accel_comp", accel),
        ("ctrl.torque_comp", torque),
    ]
    if tiny:
        overrides.append(("metrics_warmup", 0.5))
    return _scenario("lemniscate_low", overrides, seed=base_seed + seed)


def comparison_batch(seed, work_dir, tiny=False):
    """Seeds x configs as `nearground sweep --out` with one job, then `compare`."""
    rep = Rep()
    for base_seed in COMPARISON_SEEDS[:1] if tiny else COMPARISON_SEEDS:
        reports = []
        for accel, torque in COMPARISON_CONFIGS:
            name = _comparison_name(base_seed, accel, torque)
            with rep.attempt(name):
                scenario = _comparison_scenario(base_seed, accel, torque, seed, tiny)
                out_dir = os.path.join(work_dir, f"seed={base_seed}", f"{accel}-{torque}")
                log, metrics = harness.run(scenario, out_dir=out_dir)
                rep.flew(name, scenario, log, metrics)
                rep.log_files[name] = os.path.join(out_dir, "log.csv")
                with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
                    reports.append(harness.MetricsReport.from_json(fh.read()))
        baseline = _comparison_name(base_seed, *COMPARISON_CONFIGS[0])
        full = _comparison_name(base_seed, *COMPARISON_CONFIGS[-1])
        with rep.attempt(f"seed{base_seed}_compare"):
            table = harness.compare(reports, baseline=baseline)
            reduction = {row["name"]: row["reduction_pct"] for row in table.rows}
            if not reduction.get(full, 0.0) > 0.0:
                rep.fail(full, f"does not beat {baseline}: reduction "
                               f"{reduction.get(full)} %")
    return rep


# -- descent_identify --------------------------------------------------------------

def _descent_scenario(mode, seed, tiny):
    overrides = [("ctrl.torque_comp", mode), ("traj.duration", 1.5 if tiny else DESCENT_S)]
    if tiny:
        overrides += TINY_DESCENT.items()
    scenario = _scenario("hover_descent_sweep", overrides, seed_offset=seed)
    traj = scenario.trajectory_params
    scenario.duration = traj["hold"] + traj["duration"] + DESCENT_TAIL_S
    return scenario


def descent_identify(seed, work_dir, tiny=False):
    """Hover descents with artifacts, re-parsed for `identify fg` and the error profile."""
    rep = Rep()
    for mode in DESCENT_MODES:
        name = f"descent_{mode}"
        with rep.attempt(name):
            scenario = _descent_scenario(mode, seed, tiny)
            out_dir = os.path.join(work_dir, f"ctrl_torque_comp={mode}")
            log, metrics = harness.run(scenario, out_dir=out_dir)
            rep.flew(name, scenario, log, metrics)
            path = os.path.join(out_dir, "log.csv")
            rep.log_files[name] = path

            parsed = simulator.TrajectoryLog.from_csv(path)
            vehicle, ge = scenario.vehicle, scenario.ge
            speeds = parsed.cols(["n1", "n2", "n3", "n4"])
            thrust = vehicle.k_t * np.sum(speeds**2, axis=1)
            ok = thrust > 1e-6
            fit = estimation.fit_thrust_factor(
                parsed.col("h")[ok], vehicle.m * parsed.col("obs_aext_z")[ok] / thrust[ok])
            for label, got, true in (("g1", fit.params[0], ge.g1), ("g2", fit.params[1], ge.g2)):
                if not abs(got - true) <= FIT_REL_TOL * abs(true):
                    rep.fail(name, f"fitted {label} = {got:.5g}, configured {true:.5g}")

            profile = harness.angle_error_profile(
                parsed.after(scenario.metrics_warmup), half_width=0.04, step=0.02)
            if mode == "none" and not tiny:
                peak_h = float(profile[np.argmax(profile[:, 1]), 0])
                h_star, _ = torque_lever_peak(ge)
                if not abs(peak_h - h_star) <= PROFILE_PEAK_TOL_M:
                    rep.fail(name, f"error profile peaks at {peak_h:.3f} m, "
                                   f"lever peak {h_star:.3f} m")
    return rep


@dataclass(frozen=True)
class Workload:
    name: str
    rep: object             # (seed, work_dir, tiny) -> Rep
    first_scenario: object  # (seed, tiny) -> the repetition's first Scenario


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_loop", closed_loop, _closed_loop_scenario),
        Workload("feedforward", feedforward, _feedforward_scenario),
        Workload("comparison_batch", comparison_batch,
                 lambda seed, tiny: _comparison_scenario(
                     COMPARISON_SEEDS[0], *COMPARISON_CONFIGS[0], seed, tiny)),
        Workload("descent_identify", descent_identify,
                 lambda seed, tiny: _descent_scenario(DESCENT_MODES[0], seed, tiny)),
    )
}


def first_physics_step(name, seed, tiny=False):
    """Set-up as a run does it: load, build, initial state, then one RK4 step."""
    scenario = WORKLOADS[name].first_scenario(seed, tiny)
    trajectory, _ = scenario.build()
    x0 = simulator.hover_initial_state(trajectory, scenario.vehicle, scenario.ge,
                                       scenario.sim.gravity)
    return simulator.step(x0, x0[-4:], scenario.sim.dt, scenario.vehicle, scenario.ge,
                          scenario.sim)
