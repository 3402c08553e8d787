#!/usr/bin/env python3
"""Quick self-test of the benchmark (about two minutes on two cores).

    python3 bench/selftest.py

For each workload it runs a tiny version once untraced and twice traced,
and checks that
  * every run exits 0 and ends with the result object, outputs correct;
  * the metric names and units are exactly those of BENCHMARK.json;
  * counts (steps, calls, solver and fit iterations, bytes) and log
    digests repeat exactly across runs.
It then checks that the benchmark fails, without a result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


def parse(proc, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        details = json.loads(lines[-2])["details"]
        raise AssertionError(f"{what}: outputs not correct: {details['failures']}")
    return json.loads(lines[-2])["details"], result


def declared(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def exact(result):
    """Metrics that must repeat bit for bit: counts and bytes."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes")}


def digests(details):
    return {run: d["sha256"] for run, d in details["log_sha256"].items()}


def check_workload(spec, workload):
    d0, r0 = parse(bench(workload, 0), f"{workload} --trace 0")
    d1, r1 = parse(bench(workload, 1), f"{workload} --trace 1")
    d2, r2 = parse(bench(workload, 1), f"{workload} --trace 1 (repeat)")
    for section, result in (("end_to_end", r0), ("per_layer", r1)):
        if emitted(result) != declared(spec, section):
            raise AssertionError(
                f"{workload}: {section} names/units differ from BENCHMARK.json: "
                f"{sorted(set(emitted(result).items()) ^ set(declared(spec, section).items()))}")
    if d1["counts"] != d2["counts"] or exact(r1) != exact(r2):
        raise AssertionError(f"{workload}: counts differ between traced runs")
    if not digests(d0) == digests(d1) == digests(d2):
        raise AssertionError(f"{workload}: log digests differ between runs")
    steps = r1["metrics"]["simulator.loop.steps"]["value"]
    print(f"ok  {workload}: {len(r1['metrics'])} layer metrics, {steps} steps, "
          f"{len(digests(d0))} logs, counts and digests repeat")


def check_bare_directory(spec):
    """Only BENCHMARK.json and bench/: the run must fail without printing a result."""
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("closed_loop", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_bare_directory(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
