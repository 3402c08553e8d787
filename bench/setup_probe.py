"""Set-up probe: a fresh interpreter that stops after its first physics step.

    python3 bench/setup_probe.py WORKLOAD SEED TINY

run.py reads the monotonic clock just before starting this process; the
probe prints the monotonic time at which its first RK4 step returned, so
the difference covers interpreter start, imports, scenario load, build and
the initial state.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (imports nearground: part of the timed set-up)

workloads.first_physics_step(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
print(time.monotonic())
