"""The benchmark's bit-exact guard, run as part of the test suite.

Runs the ``closed_loop`` and ``feedforward`` workloads of ``bench/`` once for
seed 0 (about 6 s) and checks that the sha256 of each run's ``log.csv``
equals its entry in ``bench/reference_digests.json``. The test only reads
``bench/``. Like the pinned digests in test_harness.py, the reference depends
on the BLAS kernel numpy dispatches to (it was recorded on x86-64 with
OpenBLAS's Haswell kernels): the 3- and 4-element dot products and matrix-
vector products of the per-step path are fused multiply-add chains whose
rounding another kernel does not reproduce.
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True   # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("workload", ["closed_loop", "feedforward"])
def test_bench_log_digest_matches_reference(tmp_path, workload):
    with open(os.path.join(BENCH, "reference_digests.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[workload]["0"]
    rep = _workloads().WORKLOADS[workload].rep(0, str(tmp_path), False)
    assert rep.failures == {}
    assert sorted(rep.logs) == sorted(reference)
    for name, log in rep.logs.items():
        path = tmp_path / f"{name}.log.csv"
        log.to_csv(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == reference[name], name
