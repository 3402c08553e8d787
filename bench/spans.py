"""Spans around calls into nearground's public functions, installed from outside.

A Tracer replaces module attributes and class methods of the package with
timing wrappers while it is installed and puts the originals back when it
is removed; no file of the package changes. Every wrapped call records its
duration and its self time, which is the duration minus the wrapped calls
made inside it, so per-layer shares add up without double counting.

A name imported into another module (``from .flatness import
flat_reference``) is a second binding of the same function, so each such
binding is patched with the same wrapper.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("simulator", "controller", "flatness", "estimation", "harness")


def _path_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["path"]


class Tracer:
    """Per-call durations (ns) and exact counters for one traced repetition."""

    def __init__(self):
        self.duration_ns = defaultdict(list)   # span name -> per-call duration
        self.self_ns = defaultdict(list)       # span name -> per-call self time
        self.mode_ns = defaultdict(list)       # torque mode -> tick durations
        self.counters = defaultdict(int)
        self._stack = []                       # child time of each open span
        self._saved = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        durations = self.duration_ns[name]
        selfs = self.self_ns[name]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                durations.append(dur)
                selfs.append(dur - child)
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        return wrapper

    def _patch(self, owners, attr, name, after=None):
        raw = owners[0].__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__, after))
        else:
            replacement = self._wrap(name, raw, after)
        for owner in owners:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def install(self):
        from nearground import controller, estimation, flatness, harness, simulator

        c = self.counters

        def count_bytes(key):
            def after(args, kwargs, result, dur):
                c[key] += os.path.getsize(_path_arg(args, kwargs))
            return after

        def after_reference(args, kwargs, ref, dur):
            c["flatness.flat_reference.iterations"] += ref.iterations
            c["flatness.flat_reference.infeasible"] += int(not ref.feasible)

        def after_allocate(args, kwargs, cmd, dur):
            c["controller.allocate.saturated"] += int(cmd.saturated)

        def after_fit(args, kwargs, report, dur):
            c["estimation.fit_thrust_factor.iterations"] += report.iterations
            c["estimation.fit_thrust_factor.samples"] += report.n_samples

        def after_tick(args, kwargs, cmd, dur):
            self.mode_ns[args[0].gains.torque_comp].append(dur)

        self._patch([simulator, harness], "run_closed_loop", "simulator.loop")
        self._patch([simulator], "disturbance_forces", "simulator.disturbance_forces")
        self._patch([simulator], "imu_sample", "simulator.imu_sample")
        self._patch([simulator.TrajectoryLog], "to_csv", "simulator.to_csv",
                    count_bytes("simulator.to_csv.bytes"))
        self._patch([simulator.TrajectoryLog], "from_csv", "simulator.from_csv",
                    count_bytes("simulator.from_csv.bytes"))
        self._patch([controller.CascadeController], "tick", "controller.tick", after_tick)
        self._patch([controller.FeedforwardController], "tick", "controller.tick")
        self._patch([controller], "allocate", "controller.allocate", after_allocate)
        self._patch([flatness, controller], "flat_reference", "flatness.flat_reference",
                    after_reference)
        for kind in ("lemniscate", "hover_descent", "hover_point"):
            self._patch([flatness], kind, "flatness.trajectory")
        self._patch([estimation.WrenchObserverRunner], "update", "estimation.observer_update")
        self._patch([estimation], "fit_thrust_factor", "estimation.fit_thrust_factor", after_fit)
        self._patch([harness.Scenario], "from_file", "harness.scenario_load")
        self._patch([harness.Scenario], "build", "harness.build")
        self._patch([harness], "compute_metrics", "harness.compute_metrics")
        self._patch([harness], "angle_error_profile", "harness.angle_error_profile")
        self._patch([harness], "compare", "harness.compare")
        self._patch([harness], "run", "harness.run")

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def counts(self):
        """Exact per-repetition counts: calls per span plus the result counters."""
        out = {f"{name}.calls": len(v) for name, v in self.duration_ns.items()}
        out.update(self.counters)
        return dict(sorted(out.items()))


def _us(values, q):
    return float(np.percentile(values, q)) / 1e3 if len(values) else 0.0


def layer_metrics(tracers, traced_wall_s, steps):
    """Per-layer metrics over the traced repetitions.

    Counts are per repetition (every repetition does identical work); times
    are percentiles over all calls of all traced repetitions; a layer's share
    is its spans' total self time over the traced wall time.
    """
    from nearground.controller import TORQUE_MODES

    counts = tracers[0].counts()

    def dur(name):
        return [v for t in tracers for v in t.duration_ns[name]]

    def own(name):
        return [v for t in tracers for v in t.self_ns[name]]

    def calls(name):
        return counts.get(f"{name}.calls", 0)

    m = {}
    m["simulator.loop.self_us_per_step"] = sum(own("simulator.loop")) / 1e3 / max(sum(steps), 1)
    m["simulator.loop.steps"] = steps[0]
    for name in ("simulator.disturbance_forces", "controller.tick",
                 "flatness.flat_reference"):
        m[f"{name}.us_p50"] = _us(dur(name), 50)
        m[f"{name}.us_p99"] = _us(dur(name), 99)
        m[f"{name}.calls"] = calls(name)
    for name in ("simulator.imu_sample", "controller.allocate", "flatness.trajectory",
                 "estimation.observer_update"):
        m[f"{name}.us_p50"] = _us(dur(name), 50)
        m[f"{name}.calls"] = calls(name)
    for direction in ("to_csv", "from_csv"):
        name = f"simulator.{direction}"
        m[f"{name}.us"] = _us(dur(name), 50)
        m[f"{name}.bytes"] = counts.get(f"{name}.bytes", 0)
    for mode in TORQUE_MODES:
        m[f"controller.tick.{mode}.us_p50"] = _us(
            [v for t in tracers for v in t.mode_ns[mode]], 50)
    m["controller.tick.self_us_p50"] = _us(own("controller.tick"), 50)
    m["controller.allocate.saturated"] = counts.get("controller.allocate.saturated", 0)
    n_ref = calls("flatness.flat_reference")
    m["flatness.flat_reference.iterations_mean"] = (
        counts.get("flatness.flat_reference.iterations", 0) / n_ref if n_ref else 0.0)
    m["flatness.flat_reference.infeasible"] = counts.get(
        "flatness.flat_reference.infeasible", 0)
    m["estimation.fit_thrust_factor.us"] = _us(dur("estimation.fit_thrust_factor"), 50)
    for stat in ("iterations", "samples"):
        m[f"estimation.fit_thrust_factor.{stat}"] = counts.get(
            f"estimation.fit_thrust_factor.{stat}", 0)
    for name in ("scenario_load", "build", "compute_metrics", "angle_error_profile",
                 "compare"):
        m[f"harness.{name}.us"] = _us(dur(f"harness.{name}"), 50)
    m["harness.run.self_us"] = _us(own("harness.run"), 50)

    wall_ns = traced_wall_s * 1e9
    for layer in LAYERS:
        total = sum(sum(v) for t in tracers for name, v in t.self_ns.items()
                    if name.startswith(layer + "."))
        m[f"{layer}.share"] = total / wall_ns
    return m
