"""Config sections: the dataclass key tables, parsing, errors and the resolved text."""

import os
import re
from dataclasses import MISSING

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nearground.cli import EXIT_CONFIG, main
from nearground.config import KeyValueConfig, key_table
from nearground.controller import ACCEL_MODES, TORQUE_MODES, ControlGains
from nearground.errors import ConfigError
from nearground.flatness import TRAJECTORY_KEYS
from nearground.groundeffect import GroundEffectParams
from nearground.harness import Scenario, run
from nearground.simulator import SimConfig
from nearground.vehicle import INERTIA_KEYS, VehicleParams

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCENARIO_DIR = os.path.join(ROOT, "configs", "scenarios")

# the sections a scenario file reads, by key prefix
_SECTIONS = {"ctrl.": ControlGains, "sim.": SimConfig,
             "vehicle.": VehicleParams, "ge.": GroundEffectParams}


def _write(path, text):
    path.write_text(text)
    return str(path)


# -- random valid scenarios ----------------------------------------------------

# str keys take one of a few words, and sim.dt divides the 2 ms control period;
# every other key is drawn by its type
_WORDS = {
    "name": st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12),
    "controller": st.sampled_from(["cascade", "feedforward"]),
    "ctrl.accel_comp": st.sampled_from(ACCEL_MODES),
    "ctrl.torque_comp": st.sampled_from(TORQUE_MODES),
    "sim.torque_formulation": st.sampled_from(["explicit", "equivalent"]),
    "sim.dt": st.sampled_from([2e-3, 1e-3, 5e-4, 4e-4, 2.5e-4]),
}
# positive and finite: inside every range check
_FLOAT = st.floats(min_value=1e-6, max_value=1e6)


def _by_type(kind, default):
    if kind == "tuple":
        return st.tuples(*[st.floats(min_value=0.0, max_value=1e3)] * len(default))
    return {"bool": st.booleans(), "int": st.integers(1, 2**31 - 1), "float": _FLOAT}[kind]


def _text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _scenario_lines(draw):
    """'key = value' lines of a random valid scenario, keys and types from the tables."""
    kind = draw(st.sampled_from(sorted(TRAJECTORY_KEYS)))
    tables = {"": Scenario, "traj.": TRAJECTORY_KEYS[kind], **_SECTIONS}
    values = {"trajectory": kind}
    for prefix, section in tables.items():
        for key, (_, default, key_type) in key_table(section).items():
            key = prefix + key
            if key in values:
                continue
            if default is not MISSING and not draw(st.booleans()):   # required keys always
                continue
            values[key] = draw(_WORDS[key] if key in _WORDS else _by_type(key_type, default))
    # the warm-up may not outlast the run
    if values.get("metrics_warmup", Scenario.metrics_warmup) > values["duration"]:
        values["metrics_warmup"] = draw(st.floats(0.0, values["duration"]))
    for key, (i, j) in INERTIA_KEYS.items():
        if draw(st.booleans()):   # diagonally dominant: positive definite
            values["vehicle." + key] = draw(st.floats(1e-3, 1e-2) if i == j
                                            else st.floats(-1e-4, 1e-4))
    lines = [f"{key} = {_text(value)}" for key, value in values.items()]
    if draw(st.booleans()):
        heights = sorted(draw(st.lists(st.floats(0.01, 5.0), min_size=2, max_size=5,
                                       unique=True)))
        lines += [f"ge.drag_sample = {h!r}, {draw(st.floats(0.0, 1.0))!r}, "
                  f"{draw(st.floats(0.0, 1.0))!r}" for h in heights]
    return lines


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_scenario_lines())
def test_resolved_text_is_a_fixed_point_for_random_scenarios(tmp_path, lines):
    first = Scenario.from_file(_write(tmp_path / "random.cfg", "\n".join(lines) + "\n"))
    resolved = first.resolved_text()
    # every drawn value comes back in the resolved text; drag rows keep their order
    assert set(lines) <= set(resolved.splitlines())
    rows = [line for line in lines if line.startswith("ge.drag_sample")]
    if rows:
        assert [line for line in resolved.splitlines() if line.startswith("ge.drag")] == rows
    again = Scenario.from_file(_write(tmp_path / "scenario.resolved", resolved))
    assert again.resolved_text() == resolved


def test_rerun_from_resolved_gives_identical_artifacts(tmp_path):
    overrides = KeyValueConfig([("duration", "0.3", 0), ("metrics_warmup", "0.1", 0),
                                ("vehicle.inertia_xy", "2e-4", 0),
                                ("sim.ext_force", "0.1, 0.0, -0.05", 0)], source="<test>")
    first = Scenario.from_file(os.path.join(SCENARIO_DIR, "lemniscate_low.cfg"),
                               overrides=overrides)
    run(first, out_dir=str(tmp_path / "a"))
    again = Scenario.from_file(str(tmp_path / "a" / "scenario.resolved"))
    run(again, out_dir=str(tmp_path / "b"))
    for name in ("scenario.resolved", "log.csv", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- errors --------------------------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("seed", "-1"), ("duration", "nan"), ("duration", "0"), ("duration", "inf"),
    ("mismatch", "nan"), ("mismatch", "-0.5"),
    ("metrics_warmup", "nan"), ("metrics_warmup", "-1"), ("metrics_warmup", "1.5"),
    ("sim.ground_clearance", "nan"),
    ("sim.ext_force", "nan, 0, 0"), ("sim.ext_torque", "0, inf, 0"),
])
def test_out_of_range_value_is_a_config_error(tmp_path, capsys, key, value):
    settings_ = {"seed": "1", "duration": "1.0", key: value}
    path = _write(tmp_path / "scn.cfg", "".join(f"{k} = {v}\n" for k, v in settings_.items()))
    with pytest.raises(ConfigError, match=key.removeprefix("sim.")):
        Scenario.from_file(path)
    assert main(["run", path]) == EXIT_CONFIG
    assert key.removeprefix("sim.") in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    ("0.1, 0.2, 0.2", "inf, 0.3, 0.3"),     # a row no finite altitude reaches
    ("0.1, inf, 0.2", "0.5, 0.3, 0.3"),     # an infinite coefficient
])
def test_non_finite_drag_table_is_a_config_error(tmp_path, capsys, rows):
    text = "seed = 1\nduration = 0.2\n" + "".join(f"ge.drag_sample = {row}\n" for row in rows)
    path = _write(tmp_path / "scn.cfg", text)
    with pytest.raises(ConfigError, match="drag table entries must be finite"):
        Scenario.from_file(path)
    assert main(["run", path]) == EXIT_CONFIG
    assert "drag table" in capsys.readouterr().err


def test_scalar_key_set_twice_in_one_file(tmp_path):
    path = _write(tmp_path / "scn.cfg", "seed = 1\nduration = 1.0\nsim.dt = 1e-3\n"
                                        "sim.dt = 5e-4\n")
    with pytest.raises(ConfigError) as err:
        Scenario.from_file(path)
    assert "scn.cfg:3" in str(err.value) and "line 4" in str(err.value)
    # a later file or an override sets a key again without error, and wins
    vehicle = _write(tmp_path / "vehicle.cfg", "mass = 1.1\nwheelbase = 0.28\n")
    path = _write(tmp_path / "scn.cfg", f"seed = 1\nduration = 1.0\nvehicle_file = {vehicle}\n"
                                        "vehicle.mass = 1.2\n")
    overrides = KeyValueConfig([("seed", "4", 0)], source="<test>")
    scenario = Scenario.from_file(path, overrides=overrides)
    assert (scenario.seed, scenario.vehicle.m, scenario.vehicle.b) == (4, 1.2, 0.28)


@pytest.mark.parametrize("key, fixed", [
    ("sim.attitude_rate", "500.0"), ("sim.position_rate", "100.0"), ("sim.gravity", "9.81"),
    ("ctrl.gyro_cutoff", "40.0"), ("ctrl.observer_cutoff", "20.0"),
    ("ctrl.kp", "6.0, 6.0, 8.0"), ("ctrl.kv", "4.0, 4.0, 5.0"),
    ("ctrl.kxi", "12.0, 12.0, 8.0"), ("ctrl.komega", "60.0, 60.0, 40.0"),
])
def test_retired_key_is_answered_as_retired(tmp_path, capsys, key, fixed):
    # such as a scenario.resolved written while the key was still read
    path = _write(tmp_path / "scn.cfg", f"seed = 1\nduration = 1.0\n{key} = {fixed}\n")
    assert main(["run", path]) == EXIT_CONFIG
    err = f"config error: {path}:3: {key!r} is retired; fixed at {fixed}\n"
    assert capsys.readouterr().err == err


def test_drag_sample_error_names_the_ge_file(tmp_path):
    ge = _write(tmp_path / "ge.cfg", "g1 = 0.08\ndrag_sample = 0.1, 0.2\n")
    path = _write(tmp_path / "scn.cfg", f"seed = 1\nduration = 1.0\nge_file = {ge}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{ge}:2:")):
        Scenario.from_file(path)


# -- documentation ---------------------------------------------------------------

def test_readme_config_section_names_the_accepted_keys():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([a-z][a-z0-9_.]*)`", section))
    scenario = {"vehicle_file", "ge_file", *key_table(Scenario)}
    scenario |= {"traj." + key for keys in TRAJECTORY_KEYS.values() for key in keys}
    scenario |= {"ctrl." + key for key in key_table(ControlGains)}
    scenario |= {"sim." + key for key in key_table(SimConfig)}
    # vehicle and ground-effect keys are named as in their own files
    files = {*key_table(VehicleParams), *INERTIA_KEYS, *key_table(GroundEffectParams),
             "drag_sample"}
    assert scenario | files <= named
    assert named <= scenario | files
