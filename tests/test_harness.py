import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearground
import nearground.cli as cli
from nearground import errors, estimation
from nearground.cli import (
    EXIT_CONFIG,
    EXIT_CONTROLLER,
    EXIT_CRASH,
    EXIT_FAIL,
    EXIT_FIT,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_REFERENCE,
    EXIT_SIM_FAULT,
    main,
)
from nearground.config import KeyValueConfig, key_table
from nearground.controller import _COMMAND_LEAD, ControlGains
from nearground.errors import (
    ConfigError,
    ControllerFault,
    FitError,
    InputError,
    ParameterError,
    ReferenceGenerationError,
    SimulationFault,
)
from nearground.estimation import fit_thrust_factor, fit_thrust_factor_from_log
from nearground.flatness import flat_reference, make_trajectory
from nearground.groundeffect import GroundEffectParams, thrust_factor, torque_lever
from nearground.harness import (
    MetricsReport,
    Scenario,
    angle_error_profile,
    compare,
    compute_metrics,
    run,
    sweep,
    write_series_csv,
)
from nearground.simulator import SimConfig, TrajectoryLog
from nearground.vehicle import VehicleParams


def _hover_scenario(name="hover_smoke", seed=7, duration=2.0, **kw):
    return Scenario(
        name=name,
        seed=seed,
        duration=duration,
        trajectory_kind="hover",
        trajectory_params={"height": 0.5},
        metrics_warmup=0.5,
        **kw,
    )


def _warnings_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "warnings" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "warnings":
                yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr == "warn"
              and isinstance(node.value, ast.Name) and node.value.id == "warnings"):
            yield node.lineno


def _package_trees():
    """(file name, parsed module) of every source file of the package."""
    pkg = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def test_package_issues_no_warnings():
    # a warning reaches stderr only: what a run should say goes into its
    # artifacts, a counter or an exception that maps to an exit code
    found = []
    for name, tree in _package_trees():
        found += [f"{name}:{line}" for line in _warnings_uses(tree)]
    assert found == []


def test_no_function_takes_a_private_parameter():
    # a parameter named _x is a second code path that only internal callers
    # take; each helper takes what it needs as an ordinary argument
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                found += [f"{name}:{node.lineno} {p.arg}" for p in params
                          if p.arg.startswith("_")]
    assert found == []


def test_no_function_takes_a_gravity():
    # gravity is vehicle.GRAVITY; hover_initial_state keeps the parameter only
    # because bench/workloads.py passes scenario.sim.gravity to it positionally,
    # and it refuses any other value
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                if any(p.arg == "gravity" for p in params):
                    found.append(f"{name}:{getattr(node, 'name', 'lambda')}")
    assert found == ["simulator.py:hover_initial_state"]


# the option count after the test-only entries to the reference and the
# defaults no caller relies on went; a change that needs more raises the
# bound and says why in CHANGES.md
MAX_DEFAULTED_PARAMETERS = 23
MAX_SECTION_KEYS = 37


def test_option_count_does_not_grow():
    defaulted = 0
    for _, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                defaulted += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    keys = sum(len(key_table(section)) for section in
               (Scenario, ControlGains, SimConfig, VehicleParams, GroundEffectParams))
    assert defaulted <= MAX_DEFAULTED_PARAMETERS
    assert keys <= MAX_SECTION_KEYS


def _uses(tree):
    """Counts of the names, attributes and whole strings that a parsed file's code uses."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses[node.value] += 1   # bench/spans.py patches functions by name
    return uses


def test_every_export_has_a_caller():
    # a name the package exports is one the command line, a demo, the
    # benchmark or the acceptance suite uses; the rest stay in their modules.
    # Every public top-level function and class has a caller there or in the
    # package, outside its own definition (re-exports are not callers)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "tests", "test_acceptance.py")]
    for folder in ("demos", "bench"):
        paths += [os.path.join(root, folder, name)
                  for name in sorted(os.listdir(os.path.join(root, folder)))
                  if name.endswith(".py")]
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    trees = [(name, tree) for name, tree in _package_trees() if name != "__init__.py"]
    with open(nearground.__file__, encoding="utf-8") as fh:
        exported = [alias.asname or alias.name for node in ast.parse(fh.read()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
    with open(cli.__file__, encoding="utf-8") as fh:
        text = fh.read() + "".join(texts)
    assert len(exported) > 40
    assert [name for name in exported if not re.search(rf"\b{name}\b", text)] == []

    uses = Counter()
    for tree in [ast.parse(t) for t in texts] + [tree for _, tree in trees]:
        uses.update(_uses(tree))
    defined = [(name, node) for name, tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert len(defined) > 80
    assert [f"{name}:{node.name}" for name, node in defined
            if uses[node.name] == _uses(node)[node.name]] == []


def test_package_holds_no_memoizing_cache():
    # parameters are immutable values that carry their derived constants;
    # a cache keyed on their fields would be a second copy of that state
    banned = {"lru_cache", "cache"}
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{name}:{node.lineno} functools.{node.attr}")
    assert found == []


def test_package_import_loads_no_process_pool():
    # runs happen in this process; in a subprocess because pytest may load these itself
    code = ("import sys, nearground; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _fast(scenario):
    scenario.sim.dt = 1e-3
    scenario.sim.log_decimation = 2
    return scenario


def test_run_writes_artifacts(tmp_path):
    scenario = _fast(_hover_scenario())
    out = tmp_path / "outdir"
    log, metrics = run(scenario, out_dir=str(out))
    assert (out / "scenario.resolved").exists()
    assert (out / "log.csv").exists()
    assert (out / "metrics.json").exists()
    back = TrajectoryLog.from_csv(out / "log.csv")
    assert np.array_equal(back.data, log.data)
    loaded = MetricsReport.from_json((out / "metrics.json").read_text())
    assert loaded.to_dict() == metrics.to_dict()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(name=st.text(), trajectory=st.text(), seed=st.integers(0, 2**63 - 1),
       metrics=st.lists(_FINITE, min_size=6, max_size=6),
       crashed=st.booleans(), infeasible=st.booleans(),
       profile=st.lists(st.tuples(_FINITE, _FINITE), max_size=6))
def test_metrics_report_json_round_trip(name, trajectory, seed, metrics, crashed, infeasible,
                                        profile):
    report = MetricsReport(name, trajectory, seed, *metrics, crashed, infeasible,
                           angle_profile=profile)
    assert MetricsReport.from_json(report.to_json()) == report


def test_perfect_model_hover_rmse_small():
    _, metrics = run(_fast(_hover_scenario()))
    assert metrics.rmse_all_cm < 1.0
    assert not metrics.crashed


def test_metric_component_consistency():
    _, metrics = run(_fast(_hover_scenario()))
    total_sq = metrics.rmse_all_cm**2
    assert total_sq + 1e-12 >= metrics.rmse_xoy_cm**2
    assert total_sq + 1e-12 >= metrics.rmse_z_cm**2
    assert abs(total_sq - metrics.rmse_xoy_cm**2 - metrics.rmse_z_cm**2) < 1e-9 * max(total_sq, 1.0)


def test_metrics_decimation_invariant():
    scenario = _hover_scenario(duration=3.0)
    scenario.sim.dt = 1e-3
    scenario.sim.log_decimation = 1
    scenario.sim.noise_gyro = 0.002
    log, metrics = run(scenario)
    decimated = compute_metrics(
        TrajectoryLog(log.data[::10], log.crashed, log.infeasible, log.seed), scenario)
    for field in ("rmse_xoy_cm", "rmse_z_cm", "rmse_all_cm"):
        full = getattr(metrics, field)
        dec = getattr(decimated, field)
        assert abs(full - dec) <= 0.01 * max(full, 1e-9)


def test_determinism_across_runs(tmp_path):
    scenario = _fast(_hover_scenario(seed=99))
    scenario.sim.noise_accel = 0.05
    scenario.sim.noise_gyro = 0.005
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(scenario, out_dir=str(out_a))
    run(scenario, out_dir=str(out_b))
    assert (out_a / "log.csv").read_bytes() == (out_b / "log.csv").read_bytes()
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()


def test_compensated_beats_uncompensated_low_hover():
    on = _fast(_hover_scenario(name="comp_on", duration=2.5))
    on.trajectory_params = {"height": 0.12}
    off = _fast(_hover_scenario(name="comp_off", duration=2.5))
    off.trajectory_params = {"height": 0.12}
    off.gains.accel_comp = "none"
    off.gains.torque_comp = "none"
    _, m_on = run(on)
    _, m_off = run(off)
    assert m_on.rmse_all_cm < m_off.rmse_all_cm


def test_angle_profile_zero_for_zero_error_log():
    rows = np.zeros((200, len(TrajectoryLog.columns)))
    rows[:, 0] = np.linspace(0.0, 1.0, 200)               # t
    rows[:, 7] = 1.0                                      # qw
    rows[:, 18] = np.linspace(0.1, 1.0, 200)              # h
    idx = TrajectoryLog.columns.index("cmd_qw")
    rows[:, idx] = 1.0
    profile = angle_error_profile(TrajectoryLog(rows, False, False, 0), half_width=0.05)
    assert len(profile) > 0
    assert np.allclose(profile[:, 1], 0.0)


def test_angle_profile_rejects_empty_log():
    with pytest.raises(InputError):
        angle_error_profile(TrajectoryLog(np.zeros((0, len(TrajectoryLog.columns))),
                                          False, False, 0))


def test_angle_profile_drops_thin_bins():
    rows = np.zeros((30, len(TrajectoryLog.columns)))
    rows[:, 7] = 1.0
    rows[:, TrajectoryLog.columns.index("cmd_qw")] = 1.0
    rows[:, 18] = np.concatenate([np.full(25, 0.5), np.linspace(1.0, 1.05, 5)])
    profile = angle_error_profile(TrajectoryLog(rows, False, False, 0), half_width=0.02)
    assert np.all(np.abs(profile[:, 0] - 0.5) < 0.05)


def test_compare_identity_and_columns():
    a = MetricsReport("base", "hover()", 1, 3.0, 4.0, 5.0, 8.0, 1.0, 0.01, False, False)
    table = compare([a, a])
    assert table.rows[0]["reduction_pct"] == 0.0
    assert table.rows[1]["reduction_pct"] == 0.0
    for row in table.rows:
        assert row["rmse_all_cm"] + 1e-12 >= row["rmse_xoy_cm"]
        assert row["rmse_all_cm"] + 1e-12 >= row["rmse_z_cm"]
    text = table.to_text()
    assert "base" in text and "baseline" in text


def test_compare_reduction_and_mismatch_flag():
    base = MetricsReport("plain", "hover(a=1)", 1, 6.0, 8.0, 10.0, 15.0, 2.0, 0.02, False, False)
    good = MetricsReport("full", "hover(a=1)", 1, 3.0, 4.0, 5.0, 8.0, 1.0, 0.01, False, False)
    other = MetricsReport("odd", "lemniscate(a=2)", 1, 3.0, 4.0, 5.0, 8.0, 1.0, 0.01, False, False)
    table = compare([base, good], baseline="plain")
    assert abs(table.rows[1]["reduction_pct"] - 50.0) < 1e-9
    assert not table.mismatched_trajectories
    flagged = compare([base, other])
    assert flagged.mismatched_trajectories
    with pytest.raises(InputError):
        compare([base], baseline="nope")
    with pytest.raises(InputError):
        compare([])


def test_scenario_config_round_trip(tmp_path):
    path = tmp_path / "scn.cfg"
    path.write_text(
        "name = roundtrip\nseed = 11\nduration = 1.0\ntrajectory = hover\n"
        "traj.height = 0.4\nsim.dt = 1e-3\nsim.noise_gyro = 0.003\n"
        "ctrl.torque_comp = model\nmismatch = 1.05\nge.g1 = 0.07\nge.g4 = 0.07\n"
    )
    scenario = Scenario.from_file(str(path))
    assert scenario.name == "roundtrip"
    assert scenario.seed == 11
    assert scenario.sim.noise_gyro == 0.003
    assert scenario.gains.torque_comp == "model"
    assert scenario.mismatch == 1.05
    assert scenario.ge.g1 == 0.07
    resolved = scenario.resolved_text()
    assert "ctrl.torque_comp = model" in resolved
    assert "ge.g1 = 0.07" in resolved


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "configs", "scenarios")


def test_mismatch_scales_the_feedforward_controllers_model():
    # the feedforward reference, like the cascade's model, comes from the scaled ground effect
    path = os.path.join(SCENARIO_DIR, "lemniscate_feedforward.cfg")
    logs = {}
    for mismatch in ("1.0", "1.05"):
        scenario = Scenario.from_file(path, overrides=KeyValueConfig(
            [("duration", "0.5", 0), ("mismatch", mismatch, 0)], source="<test>"))
        logs[mismatch] = run(scenario)[0]
    assert logs["1.0"].data.tobytes() != logs["1.05"].data.tobytes()
    # each logged row is a tick's: its reference thrust is the scaled model's
    trajectory, model = scenario.build()[0], scenario.ge.scaled(1.05)
    want = [flat_reference(trajectory(t + _COMMAND_LEAD), scenario.vehicle, model).thrust
            for t in logs["1.05"].col("t").tolist()]
    assert logs["1.05"].col("ref_T").tolist() == want


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)) + ["override"])
def test_resolved_text_is_a_fixed_point(tmp_path, name):
    if name == "override":
        src = tmp_path / "override.cfg"
        src.write_text("seed = 3\nduration = 1.0\nvehicle.inertia_xx = 0.007\n"
                       "sim.ext_force = 0.123456789, 0, 0\n")
    else:
        src = os.path.join(SCENARIO_DIR, name)
    first = Scenario.from_file(str(src)).resolved_text()
    path = tmp_path / "scenario.resolved"
    path.write_text(first)
    again = Scenario.from_file(str(path))
    assert again.resolved_text() == first
    if name == "override":
        assert again.vehicle.inertia[0, 0] == 0.007
        assert again.sim.ext_force[0] == 0.123456789


# sha256 of log.csv for the first 0.5 s of each shipped scenario, recorded on
# x86-64 with numpy 2.4. A hot-path edit meant to be bit-exact (an unrolled
# product, a cached term) must leave these unchanged; one that changes the
# arithmetic changes them and has to say so.
PINNED_LOG_SHA256 = {
    # hybrid torque compensation, IMU noise, explicit leveling torque
    "lemniscate_low": "0398e8540e1e3a3d7dcb098f7c14aa3ee0a00b0767b5b92ffc00f80a9da3aa42",
    # pure feedforward on the equivalent-inertia plant
    "lemniscate_feedforward": "1490652b47e9da29500a5e445f6e39bd0d0529374fc265bd4d99704ded4df365",
    "hover_low": "411170814b8a36fdf9a4c7316ad044d76b6d8e970cd50e54531bbd3e1ae50872",
    # the branches of the plant derivative the shipped scenarios do not reach
    "equivalent_offdiag_inertia":
        "1fe9fa81c85940399e49acabdc1b91ea26d9bdb97e918d2f6f7dbcfbdc2b6515",
    "explicit_offdiag_inertia":
        "7037368c6e2d99ec23275ac711bb6fb2be9dd175a330014098d9665da7d23111",
    "motor_tau_zero": "e34eae59ef176a8853d13e92be60b0b951fa4e2f627cc31a1fb51a1003ad3d68",
    "ext_wrench_window": "74408729b6420542692beb752531b657adf24cdcab5ff6d6b14bc97640c05c04",
    "tilt_saturated": "433f625620bf17a83cf33593a19297fecca906b7fe4d01a38964c2a8196792f2",
    "tilt_saturation_off": "dba5fdf6dbd3d687ab9e9c7816ee5ca8d1fa3c7cce934ca506b9e06851ca9baf",
    "ge_force_off": "1e6da2c9d52b29a678ceb2824eabeca060356d42dfbeb7a8dc22b902392d7d56",
    "ge_torque_off": "d262622fa2c68d2323b7b50bc65d2bf64667d672a7492e76f347be1d32cf5655",
    "ge_drag_off": "4fc24e1c94d3722c6f28db39e9991683318fa28b20d29e00cfcd4f5b28dccb8d",
    # a reference that descends 0.9 -> 0.08 m through the drag table (and
    # leaves the rotor-speed range, so the log is flagged infeasible)
    "descent_through_drag_table":
        "d62cb4367948a4961b2ed99dbf8386fde509d7f7dee5666f0d4525dafab91930",
    # logged steps that are not control ticks (log_decimation not a multiple
    # of the steps per tick); the feedforward case has ideal motors
    "lemniscate_low_every_step":
        "233a5e4b4e4fbc2732d47001759a5311db272ac838db2c1135ff396be600f385",
    "lemniscate_feedforward_every_step":
        "b2494ceb6d91e3f7d843e08082f8e0b8d607c1e9d3c4b3007f66c8d5e83bb279",
    "hover_low_decimation_3":
        "433b41c29ef0ad3e6571bae72da9578665a7d667e5bab62691506607e9ec2e82",
}

_OFFDIAG_INERTIA = [("vehicle.inertia_xy", "2e-4"), ("vehicle.inertia_xz", "-1e-4"),
                    ("vehicle.inertia_yz", "1.5e-4")]
# (scenario, overrides) of the cases that are not a shipped scenario as it is.
# The 1.8 m/s lap tilts to about 25 degrees, past the 10 degree saturation.
_PINNED_LOG_CASES = {
    "equivalent_offdiag_inertia": (
        "lemniscate_low", [("sim.torque_formulation", "equivalent")] + _OFFDIAG_INERTIA),
    "explicit_offdiag_inertia": ("lemniscate_low", _OFFDIAG_INERTIA),
    "motor_tau_zero": ("lemniscate_low", [("sim.motor_tau", "0.0")]),
    "ext_wrench_window": ("hover_low", [
        ("sim.ext_force", "0.3, -0.2, 0.1"), ("sim.ext_torque", "0.002, 0.0, -0.001"),
        ("sim.ext_on", "0.1"), ("sim.ext_off", "0.3")]),
    "tilt_saturated": ("lemniscate_low", [("traj.speed", "1.8")]),
    "tilt_saturation_off": (
        "lemniscate_low", [("traj.speed", "1.8"), ("ge.tilt_saturation_deg", "0.0")]),
    "ge_force_off": ("lemniscate_low", [("sim.ge_force", "false"), ("ctrl.accel_comp", "indi")]),
    "ge_torque_off": ("lemniscate_low", [("sim.ge_torque", "false")]),
    "ge_drag_off": ("lemniscate_low", [("sim.ge_drag", "false")]),
    "descent_through_drag_table": ("hover_descent_sweep", [
        ("traj.hold", "0"), ("traj.duration", "0.5"), ("metrics_warmup", "0.1")]),
    "lemniscate_low_every_step": ("lemniscate_low", [("sim.log_decimation", "1")]),
    "lemniscate_feedforward_every_step": (
        "lemniscate_feedforward", [("sim.log_decimation", "1")]),
    "hover_low_decimation_3": ("hover_low", [("sim.log_decimation", "3")]),
}


@pytest.mark.parametrize("name", sorted(PINNED_LOG_SHA256))
def test_log_digest_pinned(tmp_path, name):
    base, overrides = _PINNED_LOG_CASES.get(name, (name, []))
    # a warm-up may not outlast the 0.5 s run; the log does not depend on it
    overrides = {"duration": "0.5", "metrics_warmup": "0.0", **dict(overrides)}
    scenario = Scenario.from_file(
        os.path.join(SCENARIO_DIR, base + ".cfg"),
        overrides=KeyValueConfig([(k, v, 0) for k, v in overrides.items()], source="<test>"),
    )
    run(scenario, out_dir=str(tmp_path))
    digest = hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest()
    assert digest == PINNED_LOG_SHA256[name]


def test_scenario_requires_seed(tmp_path, capsys):
    path = tmp_path / "scn.cfg"
    path.write_text("duration = 1.0\ntrajectory = hover\n")
    message = f"{path}: missing required key 'seed'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        Scenario.from_file(str(path))
    # the file is named, not the command line's overrides
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert main(["sweep", str(path), "--param", "sim.noise_gyro", "--values", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_sweep_runs_each_value(tmp_path):
    path = tmp_path / "scn.cfg"
    path.write_text(
        "name = sweepy\nseed = 5\nduration = 1.0\ntrajectory = hover\n"
        "traj.height = 0.5\nsim.dt = 1e-3\nsim.log_decimation = 4\nmetrics_warmup = 0.3\n"
    )
    reports = sweep(str(path), "sim.noise_gyro", ["0.0", "0.004"], out_root=str(tmp_path / "sw"))
    assert len(reports) == 2
    assert reports[0].rmse_all_cm <= reports[1].rmse_all_cm
    assert (tmp_path / "sw" / "sim_noise_gyro=0.0" / "metrics.json").exists()


def test_sweep_parses_each_value_once(tmp_path, monkeypatch):
    path = _write_scenario(tmp_path)
    parsed = []

    def from_file(path, overrides=None):
        parsed.append([(key, value) for key, value, _ in overrides.entries])
        return original(path, overrides=overrides)

    original = Scenario.from_file
    monkeypatch.setattr(Scenario, "from_file", staticmethod(from_file))
    reports = sweep(path, "sim.noise_gyro", ["0.0", "0.004"], seed=11)
    assert parsed == [[("sim.noise_gyro", "0.0"), ("seed", "11")],
                      [("sim.noise_gyro", "0.004"), ("seed", "11")]]
    assert [r.seed for r in reports] == [11, 11]


def test_write_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    h = np.linspace(0.05, 1.0, 20)
    ge = GroundEffectParams()
    write_series_csv(path, ["h", "thrust_factor"], [h, [thrust_factor(x, ge) for x in h]])
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (20, 2)
    assert np.allclose(data[:, 0], h)


# -- CLI ----------------------------------------------------------------------

def _write_scenario(tmp_path, extra="", height=0.5):
    path = tmp_path / "scn.cfg"
    path.write_text(
        "name = cli_hover\nseed = 3\nduration = 1.0\ntrajectory = hover\n"
        f"traj.height = {height}\nsim.dt = 1e-3\nsim.log_decimation = 4\n"
        "metrics_warmup = 0.3\n" + extra
    )
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    code = main(["run", _write_scenario(tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "cli_hover"
    assert (tmp_path / "out" / "cli_hover" / "metrics.json").exists()


def test_cli_run_crash_exit_code(tmp_path, capsys):
    path = _write_scenario(tmp_path, extra="sim.ground_clearance = 0.6\n")
    code = main(["run", path])
    assert code == EXIT_CRASH


def test_cli_run_shorter_than_half_a_step_is_a_config_error(tmp_path, capsys):
    # round(duration / dt) = 0 steps would fly nothing and report zero errors
    path = tmp_path / "short.cfg"
    text = "seed = 1\ntrajectory = hover\ntraj.height = 0.3\nmetrics_warmup = 0.0\n"
    path.write_text(text + "duration = 0.0001\n")
    assert main(["run", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "0.0001" in err and "0.0005" in err
    path.write_text(text + "duration = 0.0003\n")   # one step, though not a multiple of dt
    assert main(["run", str(path)]) == EXIT_OK


def test_cli_run_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = not_an_int\nduration = 1.0\n")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG


def test_cli_run_on_a_directory_is_an_io_error(tmp_path, capsys):
    # an OSError other than FileNotFoundError is not a config error, and not exit 1
    assert main(["run", str(tmp_path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("ctrl.torque_cmp", "none"),      # a typo of ctrl.torque_comp
    ("sim.motor_tua", "0.01"),
    ("traj.half_width", "0.5"),       # a lemniscate parameter on a hover
    ("vehicle.masss", "1.2"),
    ("sim.attitude_rate", "500"),     # a retired key, as old scenario.resolved files hold
    ("sim.gravity", "9.81"),
    ("ctrl.kp", "6, 6, 8"),
])
def test_unknown_key_rejected_with_source_and_line(tmp_path, key, value):
    path = tmp_path / "scn.cfg"
    path.write_text(f"seed = 1\nduration = 1.0\n{key} = {value}\n")
    with pytest.raises(ConfigError) as err:
        Scenario.from_file(str(path))
    message = str(err.value)
    assert "scn.cfg" in message and ":3:" in message
    assert repr(key.removeprefix("vehicle.")) in message
    assert main(["run", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [("trajectory", "circle"), ("controller", "pid")])
def test_unknown_kind_rejected_at_load_with_source_and_line(tmp_path, key, value):
    path = tmp_path / "scn.cfg"
    path.write_text(f"seed = 1\nduration = 1.0\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"scn\.cfg:3: unknown {key} kind '{value}'; choose"):
        Scenario.from_file(str(path))


def test_unknown_override_key_rejected():
    overrides = KeyValueConfig([("ctrl.torque_cmp", "none", 0)], source="<cli>")
    with pytest.raises(ConfigError, match="ctrl.torque_comp"):
        Scenario.from_file(os.path.join(SCENARIO_DIR, "lemniscate_low.cfg"), overrides=overrides)


def test_make_trajectory_rejects_unknown_parameter():
    with pytest.raises(ParameterError):
        make_trajectory("lemniscate", height=0.5, hieght=0.4)
    with pytest.raises(ParameterError):
        make_trajectory("circle")
    with pytest.raises(ParameterError):
        make_trajectory("hover", height=math.nan)


def test_shipped_vehicle_and_ge_files_pass_the_key_check():
    # the shipped scenarios are loaded by test_resolved_text_is_a_fixed_point
    # they repeat the defaults: a default changed in one place but not the other fails here
    config_dir = os.path.dirname(SCENARIO_DIR)
    assert VehicleParams.from_file(os.path.join(config_dir, "vehicle_desk.cfg")) == VehicleParams()
    assert (GroundEffectParams.from_file(os.path.join(config_dir, "groundeffect_desk.cfg"))
            == GroundEffectParams())


@pytest.mark.parametrize("param, values, expect", [
    ("ctrl.torque_cmp", "none,model", "ctrl.torque_comp"),   # a mistyped --param
    ("sim.dt", "1e-3,abc", "'abc'"),                         # a bad later value
    ("seed", ",", "--values"),                               # no value at all
])
def test_cli_sweep_checks_param_before_running(tmp_path, capsys, param, values, expect):
    out = tmp_path / "sw"
    code = main(["sweep", _write_scenario(tmp_path), "--param", param,
                 "--values", values, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert expect in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_rejects_a_seed_set_twice(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(["sweep", _write_scenario(tmp_path), "--param", "seed", "--values", "1,2",
                 "--seed", "5", "--out", str(out)]) == EXIT_CONFIG
    assert "key 'seed' is set again" in capsys.readouterr().err
    assert not out.exists()


# n_max = 11000 rpm is short of the hover reference's rotor speed (an infeasible
# reference the vehicle survives for a second); 8000 rpm drops it to the ground
@pytest.mark.parametrize("values, code", [
    ("20000", EXIT_OK),
    ("20000,11000", EXIT_INFEASIBLE),
    ("11000,8000", EXIT_CRASH),       # a crash ranks before an infeasible reference
])
def test_cli_sweep_prints_each_value_and_exit_code(tmp_path, capsys, values, code):
    out = tmp_path / "sw"
    assert main(["sweep", _write_scenario(tmp_path), "--param", "vehicle.n_max",
                 "--values", values, "--seed", "9", "--out", str(out)]) == code
    lines = []
    for value in values.split(","):
        with open(out / f"vehicle_n_max={value}" / "metrics.json", encoding="utf-8") as fh:
            record = json.load(fh)
        assert record["seed"] == 9
        assert record["crashed"] == (value == "8000")
        assert record["infeasible"] == (value != "20000")
        lines.append(f"vehicle.n_max={value}: rmse_all={record['rmse_all_cm']:.3f} cm "
                     f"crashed={record['crashed']} infeasible={record['infeasible']}")
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    # what run says of a failed run, once per failed value
    failures = {"11000": "reference infeasible for the actuator limits",
                "8000": "run crashed: log truncated"}
    assert captured.err.splitlines() == [f"vehicle.n_max={value}: {failures[value]}"
                                         for value in values.split(",") if value in failures]


def test_cli_run_infeasible_exit_code(tmp_path, capsys):
    path = _write_scenario(tmp_path, extra="vehicle.n_max = 11000\n")
    assert main(["run", path]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["infeasible"]
    assert captured.err == "reference infeasible for the actuator limits\n"


@pytest.mark.parametrize("half_width", [0.0, -0.5])
def test_cli_run_rejects_a_lemniscate_without_width(tmp_path, capsys, half_width):
    path = tmp_path / "scn.cfg"
    path.write_text("seed = 3\nduration = 1.0\ntrajectory = lemniscate\n"
                    f"traj.half_width = {half_width}\n")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "lemniscate half_width must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("speed", [0.0, -1.0])
def test_cli_run_rejects_a_lemniscate_without_speed(tmp_path, capsys, speed):
    # speed 0 hovered at the origin and -1 flew the lap backwards, both exiting 0
    path = tmp_path / "scn.cfg"
    path.write_text("seed = 3\nduration = 1.0\ntrajectory = lemniscate\n"
                    f"traj.speed = {speed}\n")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "lemniscate speed must be positive" in capsys.readouterr().err


def test_cli_reference_generation_exit_code(tmp_path, capsys):
    # a hover reference below the ground
    assert main(["run", _write_scenario(tmp_path, height=-0.5)]) == EXIT_REFERENCE
    err = capsys.readouterr().err
    assert err.startswith("reference generation failed:") and err.count("\n") == 1


# the exit code the README gives each exception class of nearground.errors
_ERROR_EXIT_CODES = {
    ConfigError: EXIT_CONFIG, ParameterError: EXIT_CONFIG, InputError: EXIT_CONFIG,
    FitError: EXIT_FIT, SimulationFault: EXIT_SIM_FAULT,
    ReferenceGenerationError: EXIT_REFERENCE, ControllerFault: EXIT_CONTROLLER,
}


# every class of the module, so that a new error type without an exit code fails here
@pytest.mark.parametrize("fault, code", [
    (kind, _ERROR_EXIT_CODES.get(kind)) for kind in vars(errors).values()
    if isinstance(kind, type) and kind.__module__ == errors.__name__
])
def test_cli_fault_exit_codes(tmp_path, capsys, monkeypatch, fault, code):
    def failing_run(scenario, out_dir=None):
        raise fault("state\n[nan nan]")

    monkeypatch.setattr(cli, "run", failing_run)
    assert main(["run", _write_scenario(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nan nan" in err


def test_cli_exit_codes_are_distinct():
    codes = [getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")]
    assert len(codes) == len(set(codes)) == 10


def test_cli_identify_fg_samples(tmp_path, capsys):
    ge = GroundEffectParams()
    h = np.linspace(0.05, 1.2, 40)
    rows = ["h,f"] + [f"{x},{thrust_factor(x, ge)}" for x in h]
    path = tmp_path / "fg.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["identify", "fg", str(path), "--out", str(tmp_path / "fit")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "g1" in out
    report = json.loads((tmp_path / "fit" / "fit_fg.json").read_text())
    assert abs(report["params"]["g1"] - ge.g1) < 1e-6


def test_cli_identify_mg_samples(tmp_path):
    ge = GroundEffectParams()
    rng = np.random.default_rng(2)
    h = np.sort(rng.uniform(0.05, 1.0, 60))
    tilt = np.radians(rng.uniform(1.0, 9.0, 60))
    thrust = rng.uniform(5.0, 9.0, 60)
    tau = [torque_lever(x, ge) * T * math.sin(d) for x, d, T in zip(h, tilt, thrust)]
    rows = ["h,tilt,thrust,torque"] + [
        f"{a},{b},{c},{d}" for a, b, c, d in zip(h, tilt, thrust, tau)
    ]
    path = tmp_path / "mg.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["identify", "mg", str(path)]) == EXIT_OK


def test_cli_identify_fit_failure_exit_code(tmp_path):
    rows = ["h,f"] + [f"0.3,{0.2}" for _ in range(20)]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["identify", "fg", str(path)]) == EXIT_FIT


def test_cli_identify_drag_writes_its_fit(tmp_path, capsys):
    path = tmp_path / "lemniscate.cfg"
    path.write_text("seed = 3\nduration = 1.5\ntrajectory = lemniscate\ntraj.speed = 1.0\n"
                    "traj.height = 0.5\nsim.dt = 1e-3\nsim.log_decimation = 4\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    log_path = str(tmp_path / "out" / "lemniscate" / "log.csv")
    assert main(["identify", "drag", log_path, "--out", str(tmp_path / "fit")]) == EXIT_OK
    text = (tmp_path / "fit" / "fit_drag.json").read_text()
    assert text == capsys.readouterr().out
    fit = json.loads(text)
    assert set(fit) == {"d_x", "d_y", "stderr_x", "stderr_y", "n_samples"}
    table = GroundEffectParams().drag_table   # the lemniscate flies at h = 0.5 m
    assert fit["d_x"] == pytest.approx(np.interp(0.5, table[:, 0], table[:, 1]), rel=0.05)
    assert fit["d_y"] == pytest.approx(np.interp(0.5, table[:, 0], table[:, 2]), rel=0.05)


def test_cli_identify_fg_on_a_log_fits_the_flight_samples(tmp_path, capsys):
    path = tmp_path / "descent.cfg"
    path.write_text("seed = 5\nduration = 3.0\ntrajectory = hover_descent\n"
                    "traj.h_start = 0.9\ntraj.h_end = 0.1\ntraj.duration = 2.0\n"
                    "traj.hold = 0.5\nsim.dt = 1e-3\nsim.log_decimation = 4\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    log_path = str(tmp_path / "out" / "descent" / "log.csv")
    log, vehicle = TrajectoryLog.from_csv(log_path), VehicleParams()
    # the sample m a_ext,z / (k_t sum n^2) over the rows with thrust, written out
    thrust = vehicle.k_t * np.sum(log.cols(["n1", "n2", "n3", "n4"]) ** 2, axis=1)
    ok = thrust > 1e-6
    want = fit_thrust_factor(log.col("h")[ok], vehicle.m * log.col("obs_aext_z")[ok] / thrust[ok])
    assert fit_thrust_factor_from_log(log, vehicle).to_json() == want.to_json()
    capsys.readouterr()
    assert main(["identify", "fg", log_path, "--out", str(tmp_path / "fit")]) == EXIT_OK
    assert (tmp_path / "fit" / "fit_fg.json").read_text() == want.to_json() + "\n"
    assert capsys.readouterr().out == want.to_text() + "\n" + want.to_json() + "\n"


def test_cli_identify_fits_with_flown_vehicle(tmp_path, capsys, monkeypatch):
    path = _write_scenario(tmp_path, extra="vehicle.mass = 1.2\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    log_path = str(tmp_path / "out" / "cli_hover" / "log.csv")
    lone = tmp_path / "lone" / "log.csv"
    lone.parent.mkdir()
    lone.write_bytes((tmp_path / "out" / "cli_hover" / "log.csv").read_bytes())
    calls = []

    def record(*args):
        calls.append(args)
        raise FitError("recorded")

    monkeypatch.setattr(cli, "fit_drag_from_log", record)
    monkeypatch.setattr(estimation, "fit_thrust_factor", record)   # the log's flight fit
    capsys.readouterr()

    assert main(["identify", "drag", log_path]) == EXIT_FIT
    assert calls[-1][1].m == 1.2
    assert main(["identify", "fg", log_path]) == EXIT_FIT
    log = TrajectoryLog.from_csv(log_path)
    thrust = VehicleParams().k_t * np.sum(log.cols(["n1", "n2", "n3", "n4"]) ** 2, axis=1)
    ok = thrust > 1e-6
    assert np.array_equal(calls[-1][1], 1.2 * log.col("obs_aext_z")[ok] / thrust[ok])
    assert "default vehicle" not in capsys.readouterr().err

    # no scenario.resolved beside the log: the default vehicle, said once on stderr
    assert main(["identify", "drag", str(lone)]) == EXIT_FIT
    assert calls[-1][1].m == VehicleParams().m
    err = capsys.readouterr().err
    assert err.count("default vehicle") == 1 and err.count("\n") == 2


def test_cli_compare(tmp_path, capsys):
    a = MetricsReport("a", "hover()", 1, 6.0, 8.0, 10.0, 15.0, 2.0, 0.02, False, False)
    b = MetricsReport("b", "hover()", 1, 3.0, 4.0, 5.0, 8.0, 1.0, 0.01, False, False)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(a.to_json())
    pb.write_text(b.to_json())
    code = main(["compare", str(pa), str(pb), "--baseline", "a", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "50.0" in capsys.readouterr().out
    assert (tmp_path / "comparison.csv").exists()


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def test_cli_compare_output_pinned(tmp_path, capsys):
    # comparison_three.csv/.txt pin the bytes of both tables: a truncated name,
    # mixed trajectories, rounding at every precision and a baseline that is not first
    reports = [
        MetricsReport("uncompensated_baseline_with_a_long_name", "hover(height=0.12)", 0,
                      1.23456789, 0.98765432, 1.5803101234, 2.71828182, 0.33333333, 0.0123,
                      False, False),
        MetricsReport("hybrid", "lemniscate(half_width=0.75,height=0.12,speed=1.0)", 1,
                      0.5, 0.25, 0.5590169943749475, 0.99995, 0.00005, 0.004, False, True),
        MetricsReport("model", "hover_descent(duration=8.0,h_end=0.08,h_start=0.9,hold=1.0)", 2,
                      2.000049999, 1e-7, 2.0000500000025, 3.14159265, 0.123449, 0.02, True, False,
                      angle_profile=[(0.1, 0.02), (0.12, 0.015)]),
    ]
    paths = []
    for report in reports:
        paths.append(str(tmp_path / f"{report.name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    assert main(["compare", *paths, "--baseline", "hybrid", "--out", str(tmp_path)]) == EXIT_OK
    with open(os.path.join(DATA_DIR, "comparison_three.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read() + "\n"
    with open(os.path.join(DATA_DIR, "comparison_three.csv"), "rb") as fh:
        assert (tmp_path / "comparison.csv").read_bytes() == fh.read()


_RECORD = MetricsReport("a", "hover()", 1, 6.0, 8.0, 10.0, 15.0, 2.0, 0.02, False, False).to_dict()


@pytest.mark.parametrize("text, message", [
    ('{"name": "a",', "not a metrics record"),
    ("[1, 2]", "not a metrics record"),
    (json.dumps({k: v for k, v in _RECORD.items() if k != "trajectory"}),
     "missing keys ['trajectory']"),
    (json.dumps({**_RECORD, "rmse_all": 1.0}), "unknown keys ['rmse_all']"),
    (json.dumps({**_RECORD, "rmse_all_cm": "0.5"}), "rmse_all_cm must be a number, got '0.5'"),
    (json.dumps({**_RECORD, "max_ep_cm": True}), "max_ep_cm must be a number, got True"),
    (json.dumps({**_RECORD, "seed": 1.5}), "seed must be an integer, got 1.5"),
    (json.dumps({**_RECORD, "crashed": 0}), "crashed must be true or false, got 0"),
    (json.dumps({**_RECORD, "name": 7}), "name must be a string, got 7"),
    (json.dumps({**_RECORD, "angle_profile": [[0.1]]}),
     "angle_profile must be a list of [h, E] number pairs, got [[0.1]]"),
    (json.dumps({**_RECORD, "angle_profile": 3}),
     "angle_profile must be a list of [h, E] number pairs, got 3"),
], ids=["not_json", "not_an_object", "missing_key", "unknown_key", "string_metric",
        "bool_metric", "float_seed", "int_flag", "int_name", "short_profile_pair",
        "profile_not_a_list"])
def test_cli_compare_rejects_malformed_record(tmp_path, capsys, text, message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_RECORD))
    bad.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        MetricsReport.from_json(text)
    assert main(["compare", str(good), str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def test_cli_compare_unknown_baseline(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_RECORD))
    assert main(["compare", str(path), "--baseline", "nosuch"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: baseline 'nosuch' not among the reports\n"


@pytest.mark.parametrize("op, meta", [
    ("drag", "# crashed=maybe infeasible=0 seed=0"),
    ("fg", "# crashed=0 infeasible seed=0"),
    ("drag", "# hello=1"),
    ("drag", "# crashed=1 infeasible=0 seed=3 bogus=7"),
], ids=["drag_flag_not_a_number", "fg_flag_without_value", "drag_keys_missing",
        "drag_unknown_key"])
def test_cli_identify_rejects_malformed_log_header(tmp_path, capsys, op, meta):
    path = tmp_path / "log.csv"
    TrajectoryLog(np.zeros((3, len(TrajectoryLog.columns))), False, False, 0).to_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(meta + "\n" + "".join(lines[1:]))
    assert main(["identify", op, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and meta in err


_ROW = ",".join(["0"] * len(TrajectoryLog.columns))


@pytest.mark.parametrize("op", ["drag", "fg"])
@pytest.mark.parametrize("rows, message", [
    (["1,2,abc"], "malformed log row"),
    ([_ROW, _ROW[:-2]], "malformed log row"),
    ([_ROW.replace("0", "x", 1)], "malformed log row"),
    (["1,2,3", "4,5,6"], "log rows have 3 cells, the header 64"),
], ids=["short_non_numeric_row", "row_missing_a_cell", "non_numeric_cell", "narrow_rows"])
def test_cli_identify_rejects_malformed_log_row(tmp_path, capsys, op, rows, message):
    path = tmp_path / "log.csv"
    TrajectoryLog(np.zeros((1, len(TrajectoryLog.columns))), False, False, 0).to_csv(path)
    head = path.read_text().splitlines(keepends=True)[:2]
    path.write_text("".join(head) + "\n".join(rows) + "\n")
    assert main(["identify", op, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and message in err


@pytest.mark.parametrize("op, header", [("fg", "h,factor"), ("mg", "h,tilt_rad,thrust,torque")])
@pytest.mark.parametrize("body, message", [
    (["0.1", "0.2"], "samples need rows of columns"),
    ([], "samples need rows of columns"),
    (["0.1,abc,1.0,1.0"], "malformed sample row"),
], ids=["one_column", "header_only", "non_numeric_cell"])
def test_cli_identify_rejects_malformed_samples(tmp_path, capsys, op, header, body, message):
    path = tmp_path / "samples.csv"
    width = header.count(",") + 1
    rows = [",".join(row.split(",")[:width]) for row in body]
    path.write_text("\n".join([header] + rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["identify", op, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def _documented_exit_codes(text):
    """{code: meaning} of the 'Exit codes: 0 success, 1 ...' list in text."""
    listing = " ".join(text.split("Exit codes:", 1)[1].split(".", 1)[0].split())
    codes = {}
    for item in listing.split(", "):
        code, meaning = item.split(" ", 1)
        assert int(code) not in codes
        codes[int(code)] = meaning
    return codes


def test_exit_code_lists_match_the_constants():
    meaning = {EXIT_OK: "success", EXIT_FAIL: "oracle", EXIT_CRASH: "crashed",
               EXIT_INFEASIBLE: "infeasible", EXIT_CONFIG: "configuration",
               EXIT_FIT: "identification", EXIT_SIM_FAULT: "simulation fault",
               EXIT_REFERENCE: "reference generation", EXIT_CONTROLLER: "controller",
               EXIT_IO: "I/O"}
    assert set(meaning) == {getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for text in (readme, cli.__doc__):
        documented = _documented_exit_codes(text)
        assert set(documented) == set(meaning)
        for code, word in meaning.items():
            assert word in documented[code]


def test_cli_oracle_all(capsys):
    assert main(["oracle", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_cli_oracle_one_check(capsys):
    assert main(["oracle", "lever-identity"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("lever vs -(b^2/8) dF/dh:") and out.endswith("\nlever-identity: PASS\n")


def test_cli_oracle_unknown_check(capsys):
    assert main(["oracle", "lever"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown oracle check 'lever'" in captured.err
