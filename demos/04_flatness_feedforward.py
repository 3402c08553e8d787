"""Reference pipeline check: flying the figure-eight open loop.

Feeds the reference thrust and torque straight into the simulator with no
state feedback. Against the equivalent-inertia plant with ideal motors the
vehicle re-traces the trajectory to about a millimeter per lap, which is
the whole point of the flatness construction.
"""

import os

import numpy as np

from nearground import (
    FeedforwardController,
    GroundEffectParams,
    SimConfig,
    VehicleParams,
    lemniscate_period,
    make_trajectory,
    run_closed_loop,
    write_series_csv,
)

veh, ge = VehicleParams(), GroundEffectParams()
period = lemniscate_period(0.75, 1.0)
traj = make_trajectory("lemniscate", speed=1.0, height=0.12)

cfg = SimConfig(dt=1e-3, motor_tau=0.0, torque_formulation="equivalent",
                log_decimation=2)
ff = FeedforwardController(traj, veh, ge)
log = run_closed_loop(ff, veh, ge, cfg, duration=2.0 * period, seed=0)

err = log.cols(["px", "py", "pz"]) - log.cols(["ref_px", "ref_py", "ref_pz"])
drift = np.linalg.norm(err, axis=1)
print(f"two laps of the 1 m/s figure-eight at h = 0.12 m, open loop:")
print(f"  max position drift {100*np.max(drift):.3f} cm")
print(f"  drift after one lap {100*drift[len(drift)//2]:.3f} cm")

out = "demo_out"
os.makedirs(out, exist_ok=True)
write_series_csv(os.path.join(out, "feedforward_path.csv"),
                 ["t", "x", "y", "ref_x", "ref_y", "drift"],
                 [log.col("t"), log.col("px"), log.col("py"),
                  log.col("ref_px"), log.col("ref_py"), drift])
print(f"wrote feedforward_path.csv to {out}/")
