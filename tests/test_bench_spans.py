"""The benchmark's tracer still sees every layer of a closed-loop run.

``bench/spans.py`` times the package by replacing module attributes and
methods with wrappers, so a call that stops going through the traced name
(a function inlined, a call site bound at import) silently reads zero in
the per-layer table. This test installs the tracer, runs 0.2 s of the
shipped feedback and feedforward laps, removes it, and checks that every
span those runs reach was called. It only reads ``bench/``.
"""

import importlib.util
import os
import sys

import pytest

from nearground import controller, estimation, harness, simulator
from nearground.config import KeyValueConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "configs", "scenarios")

# the spans of the per-layer table that a lap without artifacts reaches
LAP_SPANS = (
    "simulator.loop", "simulator.disturbance_forces", "simulator.imu_sample",
    "controller.tick", "controller.allocate", "flatness.flat_reference",
    "flatness.trajectory", "harness.scenario_load", "harness.build", "harness.run",
    "harness.compute_metrics",
)


def _spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True   # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("scenario, spans, mode", [
    ("lemniscate_low", LAP_SPANS + ("estimation.observer_update",), "hybrid"),
    ("lemniscate_feedforward", LAP_SPANS, None),
])
def test_tracer_sees_every_layer(scenario, spans, mode):
    originals = (simulator.disturbance_forces, simulator.imu_sample,
                 controller.CascadeController.tick, estimation.WrenchObserverRunner.update)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        harness.run(harness.Scenario.from_file(
            os.path.join(SCENARIOS, scenario + ".cfg"),
            overrides=KeyValueConfig([("duration", "0.2", 0), ("metrics_warmup", "0.0", 0)],
                                     source="<test>")))
    finally:
        tracer.remove()
    assert originals == (simulator.disturbance_forces, simulator.imu_sample,
                         controller.CascadeController.tick, estimation.WrenchObserverRunner.update)
    counts = tracer.counts()
    assert [name for name in spans if counts.get(f"{name}.calls", 0) == 0] == []
    ticks = counts["controller.tick.calls"]
    # the loop logs every tick of these laps, with the disturbance columns and the IMU
    assert counts["simulator.disturbance_forces.calls"] >= ticks
    if mode is not None:
        assert len(tracer.mode_ns[mode]) == ticks
        assert counts["estimation.observer_update.calls"] == ticks
        assert counts["simulator.imu_sample.calls"] == ticks
