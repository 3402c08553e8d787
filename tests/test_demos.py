import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# 04, 05 and 07 repeat the acceptance runs of criteria 4-6 and take ~90 s.
QUICK_DEMOS = [
    "01_ground_effect_curves.py",
    "02_leveling_torque_quadrature.py",
    "03_equivalent_inertia.py",
    "06_identification.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(tmp_path, demo):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
