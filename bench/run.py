#!/usr/bin/env python3
"""nearground benchmark: simulated-time throughput on four experiment workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one table

One process, one thread, no worker pool. A run repeats its workload until
the next repetition would overrun --seconds, checks every repetition's
outputs and digests every log. With --trace 0 it reports the end-to-end
metrics: throughput and CPU time per repetition (medians), set-up time
(median of fresh interpreters timed from start to the first physics step),
peak memory and tracking error. With --trace 1 it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
plus the tracing overhead. The second-to-last stdout line holds the
details (per-repetition values, quartiles, failures, digests, provenance);
the last line is the result object.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, pinned before numpy loads and inherited by the
# set-up probes, so no run competes with itself for the two cores.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (exits non-zero when the package sources are absent)
from spans import Tracer, layer_metrics  # noqa: E402

ROOT = workloads.ROOT
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


# -- provenance ------------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout read from .git, or None when it is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _tree_digest():
    """sha256 over the package sources and scenario configs, which a run reads."""
    h = hashlib.sha256()
    for top in (workloads.SRC, os.path.join(ROOT, "configs")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fname in sorted(filenames):
                if fname.endswith((".py", ".cfg")):
                    path = os.path.join(dirpath, fname)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def provenance():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nearground": workloads.nearground.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _tree_digest(),
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


# -- measurement helpers ------------------------------------------------------------

def _median(values):
    return float(statistics.median(values))


def _quartiles(values):
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def log_digests(rep, rep_dir):
    """sha256 of every run's log.csv bytes; in-memory logs are written out first."""
    out = {name: _sha256(path) for name, path in rep.log_files.items()}
    for name, log in rep.logs.items():
        path = os.path.join(rep_dir, f"{name}.log.csv")
        log.to_csv(path)
        out[name] = _sha256(path)
    return dict(sorted(out.items()))


def load_reference(name, seed):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(name, {}).get(str(seed), {})
    except FileNotFoundError:
        return {}


def measure_setup(name, seed, tiny, probes):
    """Median seconds from starting a fresh interpreter to its first physics step."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, probe, name, str(seed), "1" if tiny else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return _median(times), times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload ----------------------------------------------------------------------

E2E_UNITS = {"sim_rate": "s/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "track_rmse_cm": "cm"}


def layer_unit(name):
    stat = name.rsplit(".", 1)[-1]
    if "us" in stat.split("_"):
        return "us"
    if stat in ("share", "overhead_frac"):
        return "frac"
    if stat == "bytes":
        return "bytes"
    return "count"


def run_workload(name, seed, seconds, trace, tiny=False):
    """Measure one workload; returns (details, result) as printed."""
    workload = workloads.WORKLOADS[name]
    work_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "tiny": tiny, "provenance": provenance()}
    reference = {} if tiny else load_reference(name, seed)
    reasons = {}          # run name -> why it failed, over all repetitions
    attempted = failed = 0
    first_digests = first_counts = None
    reps = []
    tracers = []

    try:
        if trace:
            # Untimed warm-up, so the first untraced repetition is not the
            # only one that pays first-call costs.
            workload.rep(seed, os.path.join(work_dir, "warmup"), True)
        else:
            details["setup_s"], details["setup_probes_s"] = measure_setup(
                name, seed, tiny, 2 if tiny else SETUP_PROBES)
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(reps) % 2 == 1
            rep_dir = os.path.join(work_dir, f"rep{len(reps)}")
            os.makedirs(rep_dir)
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                rep = workload.rep(seed, rep_dir, tiny)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            finally:
                if tracer is not None:
                    tracer.remove()

            digests = log_digests(rep, rep_dir)
            shutil.rmtree(rep_dir)
            first_digests = first_digests or digests
            for run, digest in digests.items():
                if digest != first_digests.get(run):
                    rep.fail(run, "log differs from the first repetition")
            if tracer is not None:
                first_counts = first_counts or tracer.counts()
                if tracer.counts() != first_counts:
                    rep.fail("trace", "traced counts differ between repetitions")
                tracers.append(tracer)
            attempted += rep.runs
            failed += len(rep.failures)
            for run, why in rep.failures.items():
                reasons.setdefault(run, []).extend(why)
            reps.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "sim_s": rep.sim_s,
                         "steps": rep.steps, "runs": rep.runs,
                         "rmse_cm": sum(rep.rmse_cm) / max(len(rep.rmse_cm), 1)})

            elapsed = time.perf_counter() - start
            kinds_done = len({r["traced"] for r in reps}) == (2 if trace else 1)
            next_wall = max(r["wall_s"] for r in reps[-2:])
            if kinds_done and elapsed + next_wall > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    rates = [r["sim_s"] / r["wall_s"] for r in untraced]
    details["reps"] = reps
    details["sim_rate_quartiles"] = _quartiles(rates)
    details["attempted"] = attempted
    details["failed_frac"] = failed / attempted
    details["failures"] = reasons
    details["log_sha256"] = {
        run: {"sha256": digest,
              "reference": ("none" if run not in reference
                            else "match" if reference[run] == digest else "mismatch")}
        for run, digest in (first_digests or {}).items()
    }
    mismatched = sum(v["reference"] == "mismatch" for v in details["log_sha256"].values())
    unreferenced = sum(v["reference"] == "none" for v in details["log_sha256"].values())

    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        values = layer_metrics(tracers, sum(r["wall_s"] for r in traced_reps),
                               [r["steps"] for r in traced_reps])
        values["trace.overhead_frac"] = (
            _median([r["wall_s"] for r in traced_reps])
            / _median([r["wall_s"] for r in untraced]) - 1.0)
        values["bench.log_digest.mismatched"] = mismatched
        values["bench.log_digest.unreferenced"] = unreferenced
        details["counts"] = first_counts
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "sim_rate": _median(rates),
            "cpu_s": _median([r["cpu_s"] for r in untraced]),
            "setup_s": details["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
            "track_rmse_cm": _median([r["rmse_cm"] for r in untraced]),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return details, result


# -- all workloads, one table -------------------------------------------------------------

def run_all(seed, seconds):
    """Each workload in its own fresh interpreter, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        details = json.loads(lines[-2])["details"]
        metrics = results[name]["metrics"]
        print(f"{name}:")
        for metric, entry in metrics.items():
            print(f"  {metric:<16} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_frac':<16} {details['failed_frac']:>14.6g} "
              f"({results[name]['failed']} failed of {results[name]['attempted']} attempted)")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every scenario seed")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measurement time; repetitions stop before overrunning it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shortened runs for the self-test; not comparable")
    args = parser.parse_args(argv)

    if args.workload == "all":
        results = run_all(args.seed, args.seconds)
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    details, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                   tiny=args.tiny)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
