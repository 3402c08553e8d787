"""Command-line entry points for the experiment harness.

Exit codes: 0 success, 1 failed oracle check, 2 vehicle crashed,
3 infeasible reference, 4 configuration error, 5 identification failure,
6 simulation fault (non-finite state), 7 reference generation failed,
8 controller fault, 9 I/O error (an unreadable input or a failed write).
An input error (an argument outside a command's domain, such as an unknown
--baseline) exits 4 like a configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import KeyValueConfig
from .errors import (
    ConfigError,
    ControllerFault,
    FitError,
    InputError,
    ParameterError,
    ReferenceGenerationError,
    SimulationFault,
)
from .estimation import (
    fit_drag_from_log,
    fit_thrust_factor,
    fit_torque_lever,
)
from .groundeffect import (
    GroundEffectParams,
    leveling_torque_quadrature,
    thrust_factor,
    thrust_factor_prime,
    torque_lever,
)
from .harness import MetricsReport, Scenario, compare, run, sweep
from .simulator import TrajectoryLog, csv_rows
from .vehicle import VehicleParams

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CRASH = 2
EXIT_INFEASIBLE = 3
EXIT_CONFIG = 4
EXIT_FIT = 5
EXIT_SIM_FAULT = 6
EXIT_REFERENCE = 7
EXIT_CONTROLLER = 8
EXIT_IO = 9


def _exit_code(reports):
    """The exit code of a set of runs: any crash ranks before any infeasible reference."""
    if any(report.crashed for report in reports):
        return EXIT_CRASH
    return EXIT_INFEASIBLE if any(report.infeasible for report in reports) else EXIT_OK


def _print_failure(report, prefix=""):
    """Say on stderr why a run does not exit 0: a crash, else an infeasible reference."""
    if report.crashed:
        print(f"{prefix}run crashed: log truncated", file=sys.stderr)
    elif report.infeasible:
        print(f"{prefix}reference infeasible for the actuator limits", file=sys.stderr)


def _cmd_run(args):
    seed = [] if args.seed is None else [("seed", str(args.seed), 0)]
    scenario = Scenario.from_file(args.scenario, overrides=KeyValueConfig(seed, source="<cli>"))
    out_dir = os.path.join(args.out, scenario.name) if args.out else None
    _, metrics = run(scenario, out_dir=out_dir)
    print(metrics.to_json())
    _print_failure(metrics)
    return _exit_code([metrics])


def _cmd_sweep(args):
    values = [v for chunk in args.values for v in chunk.split(",") if v]
    reports = sweep(args.scenario, args.param, values, out_root=args.out, seed=args.seed)
    for value, report in zip(values, reports):
        print(f"{args.param}={value}: rmse_all={report.rmse_all_cm:.3f} cm "
              f"crashed={report.crashed} infeasible={report.infeasible}")
        _print_failure(report, f"{args.param}={value}: ")
    return _exit_code(reports)


def _load_samples_csv(path, columns):
    """Rows of a numeric CSV with an optional header line, each with at least the named columns."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            [float(v) for v in fh.readline().strip().split(",")]
            fh.seek(0)
        except ValueError:
            pass
        data = csv_rows(fh, path, "sample row")
    if data.shape[1] < len(columns):   # also a file with no rows: its shape is (0, 0)
        raise ConfigError(f"{path}: samples need rows of columns: {', '.join(columns)}")
    return data


def _is_trajectory_log(path):
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    return first.startswith("# crashed=")


def _flown_vehicle(log_path):
    """The vehicle of the scenario.resolved beside a run's log.csv, else the default."""
    resolved = os.path.join(os.path.dirname(os.path.abspath(log_path)), "scenario.resolved")
    if not os.path.exists(resolved):
        print(f"identify: no scenario.resolved beside {log_path}; "
              "fitting with the default vehicle", file=sys.stderr)
        return VehicleParams()
    return VehicleParams.from_config(KeyValueConfig.from_path(resolved).subset("vehicle"))


def _cmd_identify(args):
    if args.op == "drag":
        fit = fit_drag_from_log(TrajectoryLog.from_csv(args.input), _flown_vehicle(args.input))
        result = json.dumps(asdict(fit), indent=2, sort_keys=True)
    else:
        if args.op == "mg":
            data = _load_samples_csv(args.input, ("h", "tilt_rad", "thrust", "torque"))
            report = fit_torque_lever(data[:, 0], data[:, 1], data[:, 2], data[:, 3])
        elif _is_trajectory_log(args.input):
            log = TrajectoryLog.from_csv(args.input)
            vehicle = _flown_vehicle(args.input)
            speeds = log.cols(["n1", "n2", "n3", "n4"])
            thrust = vehicle.k_t * np.sum(speeds**2, axis=1)
            a_ext_z = log.col("obs_aext_z")
            h = log.col("h")
            ok = thrust > 1e-6
            samples = vehicle.m * a_ext_z[ok] / thrust[ok]
            report = fit_thrust_factor(h[ok], samples)
        else:
            data = _load_samples_csv(args.input, ("h", "factor"))
            report = fit_thrust_factor(data[:, 0], data[:, 1])
        print(report.to_text())
        result = report.to_json()
    print(result)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"fit_{args.op}.json"), "w", encoding="utf-8") as fh:
            fh.write(result + "\n")
    return EXIT_OK


def _cmd_compare(args):
    reports = []
    for path in args.metrics:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            reports.append(MetricsReport.from_json(text))
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None
    table = compare(reports, baseline=args.baseline)
    print(table.to_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "comparison.csv"), "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
    return EXIT_OK


def _oracle_torque_quadrature(ge):
    worst = {"small": 0.0, "large": 0.0}
    thrust = 7.0
    for h in np.linspace(0.1, 1.0, 10):
        for deg in (0.5, 1.0, 2.0, 5.0, 10.0):
            tilt = math.radians(deg)
            closed = torque_lever(h, ge) * thrust * math.sin(tilt)
            reference = leveling_torque_quadrature(h, tilt, thrust, ge)
            rel = abs(closed - reference) / abs(reference)
            key = "small" if deg <= 2.0 else "large"
            worst[key] = max(worst[key], rel)
    print(f"closed form vs quadrature: worst {worst['small']*100:.4f}% (tilt <= 2 deg), "
          f"{worst['large']*100:.4f}% (tilt <= 10 deg)")
    return worst["small"] <= 0.005 and worst["large"] <= 0.05


def _oracle_lever_identity(ge):
    b = 0.30
    tied = GroundEffectParams(g1=ge.g1, g2=ge.g2, g3=0.0, g4=ge.g1, g5=b * b * ge.g2 / 4.0)
    grid = np.linspace(0.0, 2.0, 1000)
    worst = max(
        abs(torque_lever(h, tied) + (b * b / 8.0) * thrust_factor_prime(h, tied))
        for h in grid
    )
    print(f"lever vs -(b^2/8) dF/dh: worst abs dev {worst:.3e} over {len(grid)} points")
    return worst < 1e-9


def _oracle_thrust_derivative(ge):
    worst = 0.0
    for h in np.linspace(0.01, 2.0, 200):
        eps = 1e-6 * max(h, 0.1)
        fd = (thrust_factor(h + eps, ge) - thrust_factor(h - eps, ge)) / (2 * eps)
        worst = max(worst, abs(thrust_factor_prime(h, ge) - fd) / max(abs(fd), 1e-9))
    print(f"analytic vs central-difference dF/dh: worst rel dev {worst:.3e}")
    return worst < 1e-6


def _cmd_oracle(args):
    ge = GroundEffectParams()
    checks = {
        "torque-quadrature": _oracle_torque_quadrature,
        "lever-identity": _oracle_lever_identity,
        "thrust-derivative": _oracle_thrust_derivative,
    }
    if args.check == "all":
        selected = list(checks.items())
    elif args.check in checks:
        selected = [(args.check, checks[args.check])]
    else:
        raise ConfigError(f"unknown oracle check {args.check!r}; "
                          f"choose from {', '.join(checks)} or all")
    ok = True
    for name, fn in selected:
        passed = fn(ge)
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nearground",
        description="Near-ground multicopter simulation and identification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="artifact directory root")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True, help="config key to vary")
    p_sweep.add_argument("--values", required=True, nargs="+",
                         help="comma- or space-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_id = sub.add_parser("identify", help="fit model parameters from a CSV")
    p_id.add_argument("op", choices=["fg", "mg", "drag"])
    p_id.add_argument("input")
    p_id.add_argument("--out", default=None)
    p_id.set_defaults(func=_cmd_identify)

    p_cmp = sub.add_parser("compare", help="tabulate metric reports")
    p_cmp.add_argument("metrics", nargs="+", help="metrics.json files")
    p_cmp.add_argument("--baseline", default=None, help="baseline scenario name")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_orc = sub.add_parser("oracle", help="run standalone numerical checks")
    p_orc.add_argument("check", help="torque-quadrature | lever-identity | "
                                     "thrust-derivative | all")
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


# (exception types, exit code, stderr label) of the errors a command may raise
_ERRORS = (
    ((ConfigError, ParameterError, InputError, FileNotFoundError), EXIT_CONFIG, "config error"),
    ((OSError,), EXIT_IO, "I/O error"),   # below exit 4: FileNotFoundError is an OSError
    ((FitError,), EXIT_FIT, "identification failed"),
    ((SimulationFault,), EXIT_SIM_FAULT, "simulation fault"),
    ((ReferenceGenerationError,), EXIT_REFERENCE, "reference generation failed"),
    ((ControllerFault,), EXIT_CONTROLLER, "controller fault"),
)
_HANDLED = tuple(kind for kinds, _, _ in _ERRORS for kind in kinds)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as err:
        code, label = next((code, label) for kinds, code, label in _ERRORS
                           if isinstance(err, kinds))
        print(f"{label}: {' '.join(str(err).split())}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
