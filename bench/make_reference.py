#!/usr/bin/env python3
"""Regenerate reference_digests.json: the log.csv sha256 of every run.

    python3 bench/make_reference.py

Runs one repetition of each workload for benchmark seeds 0-9 and
records the digest of each run's log. Every benchmark run reports whether
its logs match these; regenerate only when a change to the program is
meant to change its logs, and say so with the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

SEEDS = range(10)


def main():
    reference = {}
    work = os.path.join(run.WORK, f"reference-{os.getpid()}")
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                rep_dir = os.path.join(work, name, str(seed))
                os.makedirs(rep_dir)
                rep = workload.rep(seed, rep_dir, False)
                if rep.failures:
                    raise SystemExit(f"{name} seed {seed}: {rep.failures}")
                reference.setdefault(name, {})[str(seed)] = run.log_digests(rep, rep_dir)
                shutil.rmtree(rep_dir)
                print(name, seed, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
