"""Batch experiment harness: scenarios, metrics, error profiles, comparisons.

A scenario bundles a trajectory, controller configuration, simulation
config and seed. Running one produces a TrajectoryLog and a MetricsReport
and, when an output directory is given, writes scenario.resolved, log.csv
and metrics.json there for reproducibility audits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import KeyValueConfig, read_section, write_section
from .controller import CascadeController, ControlGains, FeedforwardController
from .errors import ConfigError, InputError
from .flatness import TRAJECTORY_KEYS, make_trajectory
from .groundeffect import GroundEffectParams
from .simulator import SimConfig, TrajectoryLog, run_closed_loop
from .vehicle import VehicleParams


# the sections a scenario reads under 'prefix.' keys, beside its own keys
_SECTIONS = ("traj.", "ctrl.", "sim.", "vehicle.", "ge.")
CONTROLLER_KINDS = ("cascade", "feedforward")


@dataclass
class Scenario:
    """Fully resolved description of one simulation experiment."""

    name: str
    seed: int
    duration: float
    trajectory_kind: str = field(default="hover", metadata={"key": "trajectory"})
    trajectory_params: dict = field(default_factory=dict)
    # one of CONTROLLER_KINDS, checked by from_config
    controller_kind: str = field(default="cascade", metadata={"key": "controller"})
    gains: ControlGains = field(default_factory=ControlGains)
    sim: SimConfig = field(default_factory=SimConfig)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    ge: GroundEffectParams = field(default_factory=GroundEffectParams)
    mismatch: float = 1.0                 # controller ground-effect model scale
    metrics_warmup: float = 1.0           # seconds trimmed before metrics

    def __post_init__(self):
        # "not 0 <= x < inf" style comparisons also reject NaN
        for key in ("seed", "mismatch", "metrics_warmup"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be non-negative and finite, "
                                  f"got {getattr(self, key)}")
        if not 0.0 < self.duration < math.inf:
            raise ConfigError(f"duration must be positive and finite, got {self.duration}")
        if self.metrics_warmup > self.duration:
            raise ConfigError(f"metrics_warmup must not exceed duration={self.duration}, "
                              f"got {self.metrics_warmup}")

    def trajectory_spec(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.trajectory_params.items()))
        return f"{self.trajectory_kind}({inner})"

    def build(self):
        trajectory = make_trajectory(self.trajectory_kind, **self.trajectory_params)
        model = self.ge.scaled(self.mismatch)
        if self.controller_kind == "feedforward":
            return trajectory, FeedforwardController(trajectory, self.vehicle, model)
        return trajectory, CascadeController(trajectory, self.vehicle, model, self.gains)

    # -- config io ------------------------------------------------------------

    @classmethod
    def from_file(cls, path, overrides=None):
        # a file that sets no name is named after itself
        name = os.path.splitext(os.path.basename(path))[0]
        cfg = KeyValueConfig([("name", name, 0)], source=str(path), sources=["<file name>"])
        cfg = cfg.merged_with(KeyValueConfig.from_path(path))
        if overrides:
            cfg = cfg.merged_with(overrides)
        return cls.from_config(cfg)

    @classmethod
    def from_config(cls, cfg: KeyValueConfig):
        """Scenario from a config; a key that no section reads is a ConfigError."""
        kwargs = read_section(cls, cfg, extra=("vehicle_file", "ge_file") + _SECTIONS)
        kind = kwargs.get("trajectory_kind", cls.trajectory_kind)
        if kind not in TRAJECTORY_KEYS:
            raise ConfigError(f"{cfg.where('trajectory')}: unknown trajectory kind {kind!r}; "
                              f"choose from {', '.join(TRAJECTORY_KEYS)}")
        controller = kwargs.get("controller_kind", cls.controller_kind)
        if controller not in CONTROLLER_KINDS:
            raise ConfigError(f"{cfg.where('controller')}: unknown controller kind "
                              f"{controller!r}; choose from {', '.join(CONTROLLER_KINDS)}")
        return cls(
            trajectory_params=read_section(TRAJECTORY_KEYS[kind], cfg, "traj."),
            gains=ControlGains(**read_section(ControlGains, cfg, "ctrl.")),
            sim=SimConfig(**read_section(SimConfig, cfg, "sim.")),
            vehicle=VehicleParams.from_config(_with_file(cfg, "vehicle")),
            ge=GroundEffectParams.from_config(_with_file(cfg, "ge")),
            **kwargs,
        )

    def resolved_text(self):
        """The scenario as config text that from_file reads back to an equal scenario."""
        lines = write_section(self)
        lines += [f"traj.{key} = {float(value)!r}"
                  for key, value in sorted(self.trajectory_params.items())]
        lines += write_section(self.gains, "ctrl.") + write_section(self.sim, "sim.")
        lines += ["vehicle." + line for line in self.vehicle.config_lines()]
        lines += ["ge." + line for line in self.ge.config_lines()]
        return "\n".join(lines) + "\n"


def _with_file(cfg, section):
    """The section's keys of the file that '<section>_file' names, then cfg's own."""
    key = section + "_file"
    base = KeyValueConfig.from_path(cfg.value(key)) if key in cfg else KeyValueConfig([])
    return base.merged_with(cfg.subset(section))


@dataclass
class MetricsReport:
    name: str
    trajectory: str
    seed: int
    rmse_xoy_cm: float
    rmse_z_cm: float
    rmse_all_cm: float
    max_ep_cm: float
    std_ep_cm: float
    attitude_rmse_rad: float
    crashed: bool
    infeasible: bool
    angle_profile: list = field(default_factory=list)   # (h0, E) pairs

    def to_dict(self):
        record = asdict(self)
        record["angle_profile"] = [[float(h), float(e)] for h, e in self.angle_profile]
        return record

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Report from to_json text; a missing or unknown key is a ConfigError."""
        try:
            record = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"not a metrics record: {err}") from None
        if not isinstance(record, dict):
            raise ConfigError("not a metrics record: expected a JSON object")
        # records written before the profile existed carry none
        record.setdefault("angle_profile", [])
        names = {f.name for f in fields(cls)}
        missing, unknown = names - record.keys(), record.keys() - names
        if missing or unknown:
            raise ConfigError(f"metrics record: missing keys {sorted(missing)}, "
                              f"unknown keys {sorted(unknown)}")
        for f in fields(cls):
            if not _JSON_VALUE_CHECKS[f.type](record[f.name]):
                raise ConfigError(f"metrics record: {f.name} must be {_JSON_VALUE_NAMES[f.type]}, "
                                  f"got {record[f.name]!r}")
        record["angle_profile"] = [tuple(p) for p in record["angle_profile"]]
        return cls(**record)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what from_json accepts for each MetricsReport field type, and how its errors name it
_JSON_VALUE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in v),
}
_JSON_VALUE_NAMES = {"str": "a string", "int": "an integer", "float": "a number",
                     "bool": "true or false", "list": "a list of [h, E] number pairs"}


def attitude_errors(log: TrajectoryLog):
    """Per-row rotation angle between the true and commanded attitudes."""
    q = log.cols(["qw", "qx", "qy", "qz"])
    qd = log.cols(["cmd_qw", "cmd_qx", "cmd_qy", "cmd_qz"])
    dots = np.abs(np.sum(q * qd, axis=1))
    return 2.0 * np.arccos(np.minimum(dots, 1.0))


def compute_metrics(log: TrajectoryLog, scenario: Scenario):
    """Table-style tracking metrics over the post-warmup part of the log."""
    trimmed = log.after(scenario.metrics_warmup)
    if len(trimmed) == 0:
        trimmed = log
    err = trimmed.cols(["px", "py", "pz"]) - trimmed.cols(["ref_px", "ref_py", "ref_pz"])
    norms = np.linalg.norm(err, axis=1)
    rmse_xoy = math.sqrt(float(np.mean(err[:, 0] ** 2 + err[:, 1] ** 2)))
    rmse_z = math.sqrt(float(np.mean(err[:, 2] ** 2)))
    rmse_all = math.sqrt(float(np.mean(norms**2)))
    ang = attitude_errors(trimmed)
    return MetricsReport(
        name=scenario.name,
        trajectory=scenario.trajectory_spec(),
        seed=scenario.seed,
        rmse_xoy_cm=100.0 * rmse_xoy,
        rmse_z_cm=100.0 * rmse_z,
        rmse_all_cm=100.0 * rmse_all,
        max_ep_cm=100.0 * float(np.max(norms)),
        std_ep_cm=100.0 * float(np.std(norms)),
        attitude_rmse_rad=math.sqrt(float(np.mean(ang**2))),
        crashed=log.crashed,
        infeasible=log.infeasible,
    )


def angle_error_profile(log: TrajectoryLog, half_width=0.02, step=None):
    """Attitude-error RMS binned by altitude.

    E(h0) is the RMS rotation angle between true and commanded attitude over
    rows with h within half_width of h0; windows with fewer than 10 rows are
    dropped. Returns an (n, 2) array of (h0, E).
    """
    if len(log) == 0:
        raise InputError("empty log")
    ang = attitude_errors(log)
    h = log.col("h")
    if step is None:
        step = half_width
    grid = np.arange(h.min() + half_width, h.max() - half_width + 1e-12, step)
    out = []
    for h0 in grid:
        mask = (h >= h0 - half_width) & (h <= h0 + half_width)
        if int(mask.sum()) >= 10:
            out.append((float(h0), math.sqrt(float(np.mean(ang[mask] ** 2)))))
    return np.array(out).reshape(-1, 2)


def run(scenario: Scenario, out_dir=None):
    """Execute one scenario; optionally write its artifact directory."""
    _, controller = scenario.build()
    log = run_closed_loop(
        controller, scenario.vehicle, scenario.ge, scenario.sim,
        scenario.duration, seed=scenario.seed,
    )
    metrics = compute_metrics(log, scenario)
    if scenario.trajectory_kind == "hover_descent" and not log.crashed:
        profile = angle_error_profile(log.after(scenario.metrics_warmup))
        metrics.angle_profile = [tuple(row) for row in profile]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "scenario.resolved"), "w", encoding="utf-8") as fh:
            fh.write(scenario.resolved_text())
        log.to_csv(os.path.join(out_dir, "log.csv"))
        with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
            fh.write(metrics.to_json() + "\n")
    return log, metrics


def sweep(scenario_path, param, values, out_root=None, seed=None):
    """Run one scenario once per parameter value, in order, in this process.

    Each value is parsed into its scenario before anything runs, so an
    unknown param, a bad value or no value fails at once with a ConfigError.
    """
    if not values:
        raise ConfigError("--values names no value")
    seeded = [] if seed is None else [("seed", str(seed), 0)]
    scenarios = [Scenario.from_file(scenario_path, overrides=KeyValueConfig(
        [(param, str(value), 0)] + seeded, source="--param")) for value in values]
    reports = []
    for value, scenario in zip(values, scenarios):
        out_dir = None if out_root is None else os.path.join(
            out_root, f"{param.replace('.', '_')}={str(value).replace('/', '_')}")
        reports.append(run(scenario, out_dir=out_dir)[1])
    return reports


# the compared metrics: (MetricsReport field, column title, text column width)
COMPARED_METRICS = (
    ("rmse_xoy_cm", "RMSE XOY", 12),
    ("rmse_z_cm", "RMSE Z", 10),
    ("rmse_all_cm", "RMSE all", 10),
    ("max_ep_cm", "max|E|", 10),
    ("std_ep_cm", "std|E|", 10),
)


class ComparisonTable:
    """Side-by-side metric table with percent improvement over a baseline."""

    HEADERS = ["name", *(key for key, _, _ in COMPARED_METRICS), "reduction_vs_baseline_pct"]

    def __init__(self, rows, baseline_name, mismatched):
        self.rows = rows
        self.baseline_name = baseline_name
        self.mismatched_trajectories = mismatched

    @staticmethod
    def _cells(row, digits, reduction_digits):
        """A row's name, compared metrics and reduction, as fixed-point text."""
        return [row["name"], *(f"{row[key]:.{digits}f}" for key, _, _ in COMPARED_METRICS),
                f"{row['reduction_pct']:.{reduction_digits}f}"]

    def to_csv(self):
        lines = [",".join(self.HEADERS)]
        lines += [",".join(self._cells(row, 4, 2)) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_text(self):
        widths = [28, *(width for _, _, width in COMPARED_METRICS), 12]
        head = ["scenario", *(title for _, title, _ in COMPARED_METRICS), "vs base %"]
        out = ["".join(h.ljust(w) for h, w in zip(head, widths))]
        for row in self.rows:
            cells = self._cells(row, 3, 1)
            cells[0] = cells[0][:27]
            out.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        if self.mismatched_trajectories:
            out.append("warning: reports cover different trajectories "
                       f"({', '.join(sorted(self.mismatched_trajectories))})")
        out.append(f"baseline: {self.baseline_name} (units: cm)")
        return "\n".join(out) + "\n"


def compare(reports, baseline=None):
    """Comparison across metric reports; reduction is in total RMSE."""
    if not reports:
        raise InputError("need at least one report")
    base = reports[0] if baseline is None else next(
        (r for r in reports if r.name == baseline), None
    )
    if base is None:
        raise InputError(f"baseline {baseline!r} not among the reports")
    specs = {r.trajectory for r in reports}
    rows = []
    for r in reports:
        reduction = 0.0
        if base.rmse_all_cm > 0.0:
            reduction = 100.0 * (1.0 - r.rmse_all_cm / base.rmse_all_cm)
        rows.append({"name": r.name, **{key: getattr(r, key) for key, _, _ in COMPARED_METRICS},
                     "reduction_pct": reduction})
    mismatched = specs if len(specs) > 1 else set()
    return ComparisonTable(rows, base.name, mismatched)


def write_series_csv(path, columns, arrays):
    """Plot-ready x/y series emission (one column per array)."""
    data = np.column_stack(arrays)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in data:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
