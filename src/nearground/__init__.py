"""Desk-scale multicopter toolkit for flight near the ground.

Models the extra thrust, leveling torque, and altitude-varying rotor drag
a small quadrotor sees near a flat surface; generates dynamically
consistent references from position/yaw trajectories; closes the loop with
a cascade controller combining model feedforward and incremental torque
inversion; and ships a deterministic simulation and identification
harness that reproduces the hover and tracking experiments.

The package exports what the command line, the demos, the benchmark and the
acceptance suite use; every other name stays importable from its module.
"""

from .controller import (
    CascadeController,
    ControlGains,
    FeedforwardController,
    allocate,
    attitude_error_vector,
)
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
    WrenchObserverRunner,
    fit_drag_coefficients,
    fit_drag_from_log,
    fit_thrust_factor,
    fit_thrust_factor_from_log,
    fit_torque_lever,
    spearman,
    thrust_factor_from_platform,
)
from .flatness import (
    flat_reference,
    hover_descent,
    hover_point,
    lemniscate,
    lemniscate_period,
    make_trajectory,
)
from .groundeffect import (
    GroundEffectParams,
    drag_coefficients,
    equivalent_inertia,
    leveling_torque_quadrature,
    thrust_factor,
    thrust_factor_prime,
    torque_lever,
    torque_lever_peak,
)
from .harness import (
    MetricsReport,
    Scenario,
    angle_error_profile,
    compare,
    compute_metrics,
    run,
    sweep,
    write_series_csv,
)
from .simulator import (
    SimConfig,
    TrajectoryLog,
    hover_initial_state,
    imu_sample,
    run_closed_loop,
    simulate_attitude,
    step,
)
from .vehicle import GRAVITY, VehicleParams

__version__ = "0.1.0"
