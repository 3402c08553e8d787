"""Desk-scale multicopter toolkit for flight near the ground.

Models the extra thrust, leveling torque, and altitude-varying rotor drag
a small quadrotor sees near a flat surface; generates dynamically
consistent references from position/yaw trajectories; closes the loop with
a cascade controller combining model feedforward and incremental torque
inversion; and ships a deterministic simulation and identification
harness that reproduces the hover and tracking experiments.
"""

from .controller import (
    CascadeController,
    ControlCommand,
    ControlGains,
    FeedforwardController,
    acceleration_command,
    allocate,
    attitude_error_vector,
    bodyrate_command,
    thrust_command,
    torque_command_indi,
    torque_command_model,
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
    DragFit,
    FilteredDerivative,
    FitReport,
    LowPass,
    WrenchEstimate,
    WrenchObserverRunner,
    fit_drag_coefficients,
    fit_drag_from_log,
    fit_thrust_factor,
    fit_torque_lever,
    normalize_coefficient_curve,
    spearman,
    thrust_factor_from_flight,
    thrust_factor_from_platform,
    wrench_observer,
)
from .flatness import (
    FlatOutput,
    FlatReference,
    flat_reference,
    hover_descent,
    hover_point,
    lemniscate,
    lemniscate_period,
    make_trajectory,
    reference_rates,
    reference_thrust_attitude,
)
from .groundeffect import (
    GroundEffectParams,
    added_thrust_force,
    drag_coefficients,
    drag_force,
    drag_matrix,
    equivalent_inertia,
    leveling_torque,
    leveling_torque_quadrature,
    thrust_factor,
    thrust_factor_prime,
    torque_lever,
    torque_lever_peak,
)
from .harness import (
    ComparisonTable,
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
    Measurement,
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
