"""Ground-effect disturbance models.

Implements the near-ground thrust amplification F(h), its derivative, the
leveling-torque lever M(h) with a slow quadrature reference used by tests,
altitude-varying rotor drag D(h), and the equivalent inertia J'(h) that
absorbs the leveling torque into the rotational model.

Altitude h is always the distance from the ground plane to the center of
the rotor plane.

This module holds the only copy of each formula. The curves
``_factor(h, g1, g2)`` and ``_lever(h, g3, g4, g5)`` take their
coefficients, so the checked entries here, the simulator's plant and the
fit residuals in estimation.py evaluate one expression each. The plant
calls the two curves and the unchecked kernels (``leveling_axis``,
``world_drag``, ``added_inertia``) every step; the leveling torque is
lever(h) T ``leveling_axis(R)``. Gravity is ``vehicle.GRAVITY``. The drag
table lookup is a bisect over Python floats that reproduces np.interp bit
for bit; the knots it searches are derived once per parameter object
(``GroundEffectParams.drag_knots``, set by ``__post_init__`` as vehicle.py's
derived constants are), which is an immutable value varied with
``dataclasses.replace``.

The kernels follow the per-step arithmetic rule stated in simulator.py's docstring.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .config import KeyValueConfig, read_section, write_section
from .errors import ConfigError, InputError, ParameterError
from .vehicle import GRAVITY, FrozenParams, InertiaOperator, VehicleParams, read_only

# Default drag table: force-unit coefficients (kg/s), increasing with h.
# The 0.10 m rows are exactly 0.5963 (x) and 0.6179 (y) times the 2.0 m rows.
_DEFAULT_DRAG_TABLE = np.array(
    [
        # h,     d_x,       d_y
        [0.05, 0.170000, 0.148000],
        [0.10, 0.178890, 0.154475],
        [0.20, 0.210000, 0.180000],
        [0.40, 0.255000, 0.215000],
        [0.70, 0.282000, 0.236000],
        [1.20, 0.295000, 0.246000],
        [2.00, 0.300000, 0.250000],
    ]
)


@dataclass(frozen=True, eq=False)
class GroundEffectParams(FrozenParams):
    """Parameters of the ground-effect force, torque, and drag models.

    g1, g2 shape the extra-thrust curve g2/(h^2+g1); g3, g4, g5 shape the
    torque lever g5*h/(h^2+g3*h+g4)^2. The drag table rows are (h, d_x, d_y)
    with coefficients in kg/s. With the defaults the torque parameters are
    tied to the thrust curve (g3=0, g4=g1, g5=b^2*g2/4 for b=0.30 m) so the
    lever equals -(b^2/8) * dF/dh identically. ``drag_table`` is a read-only
    copy of the table given; ``drag_knots``, derived once, holds its altitudes
    and its (d_x, d_y) columns as lists of floats.
    """

    g1: float = 0.08          # m^2
    g2: float = 0.04          # m^2 (dimensionless F at h=0 is g2/g1)
    g3: float = 0.0           # m
    g4: float = 0.08          # m^2
    g5: float = 9.0e-4        # m^3  (= 0.30^2 * 0.04 / 4)
    drag_table: np.ndarray = None
    tilt_saturation_deg: float = 10.0   # torque stops growing past this tilt; <=0 disables

    def __post_init__(self):
        table = _DEFAULT_DRAG_TABLE if self.drag_table is None else self.drag_table
        object.__setattr__(self, "drag_table", read_only(np.array(table, dtype=float)))
        for name in ("g1", "g2", "g3", "g4", "g5", "tilt_saturation_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.g1 > 0.0 and self.g2 >= 0.0):
            raise ParameterError(f"need g1 > 0 and g2 >= 0, got g1={self.g1}, g2={self.g2}")
        if not (self.g4 > 0.0 and self.g5 >= 0.0):
            raise ParameterError(f"need g4 > 0 and g5 >= 0, got g4={self.g4}, g5={self.g5}")
        # h^2 + g3 h + g4 > 0 for all h >= 0: value at h=0 is g4 > 0 and the
        # vertex -g3/2 only enters h >= 0 for negative g3.
        if not (self.g3 >= 0.0 or self.g4 - self.g3 * self.g3 / 4.0 > 0.0):
            raise ParameterError("h^2 + g3*h + g4 must stay positive for h >= 0")
        t = self.drag_table
        if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] < 2:
            raise ConfigError("drag table needs >= 2 rows of (h, d_x, d_y)")
        if not np.all(np.isfinite(t)):
            raise ConfigError("drag table entries must be finite")
        if not np.all(np.diff(t[:, 0]) > 0.0):
            raise ConfigError("drag table altitudes must be strictly increasing")
        if not np.all(t[:, 1:] >= 0.0):
            raise ConfigError("drag coefficients must be non-negative")
        object.__setattr__(self, "drag_knots", (t[:, 0].tolist(), t[:, 1:].T.tolist()))

    @classmethod
    def from_config(cls, cfg: KeyValueConfig):
        """Parameters from a ground-effect section; drag_sample rows form the drag table."""
        rows = []
        for value, where in cfg.get_all("drag_sample"):
            parts = value.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{where}: drag_sample needs 'h, d_x, d_y', got {value!r}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ConfigError(f"{where}: drag_sample: cannot parse {value!r}") from None
        return cls(drag_table=rows or None, **read_section(cls, cfg, extra=("drag_sample",)))

    def config_lines(self):
        """The section as 'key = value' lines that from_config reads back."""
        return write_section(self) + ["drag_sample = " + ", ".join(map(repr, row))
                                      for row in self.drag_table.tolist()]

    def scaled(self, factor):
        """Copy with all model magnitudes multiplied (controller mismatch knob)."""
        table = self.drag_table.copy()
        table[:, 1:] *= factor
        return replace(self, g2=self.g2 * factor, g5=self.g5 * factor, drag_table=table)


def _check_h(h):
    if h < 0.0:
        raise InputError(f"altitude must be non-negative, got {h}")
    return float(h)


def _factor(h, g1, g2):
    return g2 / (h * h + g1)


def _lever(h, g3, g4, g5):
    den = h * h + g3 * h + g4
    return g5 * h / (den * den)


def thrust_factor(h, params: GroundEffectParams):
    """Fractional extra thrust near ground: g2 / (h^2 + g1)."""
    return _factor(_check_h(h), params.g1, params.g2)


def thrust_factor_prime(h, params: GroundEffectParams):
    """d(thrust_factor)/dh, analytic; non-positive for h >= 0."""
    h = _check_h(h)
    den = h * h + params.g1
    return -2.0 * params.g2 * h / (den * den)


def torque_lever(h, params: GroundEffectParams):
    """Leveling-torque lever arm (m): torque = lever * T * sin(tilt)."""
    return _lever(_check_h(h), params.g3, params.g4, params.g5)


def torque_lever_peak(params: GroundEffectParams):
    """(h*, lever(h*)) over 4001 points of (0, 2] m; the lever is unimodal on h >= 0."""
    grid = np.linspace(1e-4, 2.0, 4001)
    vals = _lever(grid, params.g3, params.g4, params.g5)
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i])


def leveling_axis(R, params: GroundEffectParams):
    """R^T (z_B x z_W), unchecked: magnitude sin(tilt), zero body-z component.

    Past the saturation tilt the magnitude is held at sin(tilt_saturation_deg)
    (the measured plateau), direction unchanged.
    """
    axis = R.T.dot(np.array([R[1, 2], -R[0, 2], 0.0]))
    if params.tilt_saturation_deg > 0.0:
        s = math.sqrt(float(axis.dot(axis)))
        s_max = math.sin(math.radians(params.tilt_saturation_deg))
        if s > s_max:
            axis *= s_max / s
    return axis


def leveling_torque_quadrature(h, tilt, thrust, params: GroundEffectParams,
                               b=0.30, intervals=4096):
    """Torque magnitude by direct quadrature of the rotor-ring model.

    Distributes the extra thrust F(H)·T/(2π) on the circle of diameter b,
    with ring height H(θ) = h - (b/2) sin(tilt) cos(θ), and integrates the
    moment arm (b/2) cosθ with composite Simpson. No linearization in h, so
    this serves as the independent reference for the closed-form lever.
    """
    h = _check_h(h)
    if intervals % 2:
        raise InputError("Simpson quadrature needs an even interval count")
    radius = b / 2.0
    if h - radius * abs(math.sin(tilt)) <= 0.0:
        raise InputError("lowest rotor point at or below ground")
    theta = np.linspace(0.0, 2.0 * np.pi, intervals + 1)
    ring_h = h - radius * math.sin(tilt) * np.cos(theta)
    density = _factor(ring_h, params.g1, params.g2) * thrust / (2.0 * np.pi)
    integrand = density * radius * np.cos(theta)
    weights = np.ones(intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    step = 2.0 * np.pi / intervals
    return float(step / 3.0 * weights.dot(integrand))


def drag_coefficients(h, params: GroundEffectParams):
    """(d_x, d_y) in kg/s at altitude h, linear interpolation, end-clamped."""
    altitudes, columns = params.drag_knots
    dx, dy = _interp(_check_h(h), altitudes, columns)
    return dx, dy


def _interp(x, xp, columns):
    """[np.interp(x, xp, fp) for fp in columns] for one float x; xp strictly increasing.

    Bit for bit numpy's double-precision kernel: the same knot search
    (xp[j] <= x < xp[j+1]), the same slope and expression, the exact knot
    and end-clamp cases, its retry from the right knot when the first
    evaluation is NaN, and NaN in, NaN out. One search serves every column.
    """
    if x != x:
        return [x for _ in columns]
    j = bisect_right(xp, x) - 1
    if j < 0:
        return [fp[0] for fp in columns]
    if j >= len(xp) - 1 or xp[j] == x:
        return [fp[j] for fp in columns]
    x0, x1 = xp[j], xp[j + 1]
    out = []
    for fp in columns:
        y0, y1 = fp[j], fp[j + 1]
        slope = (y1 - y0) / (x1 - x0)
        y = slope * (x - x0) + y0
        if y != y:
            y = slope * (x - x1) + y1
            if y != y and y0 == y1:
                y = y0
        out.append(y)
    return out


def world_drag(R, v, h, params: GroundEffectParams):
    """World-frame rotor drag -R D(h) R^T v (N), unchecked: R must be a rotation."""
    dx, dy = drag_coefficients(h, params)
    vx, vy, vz = R.T.dot(v).tolist()
    return (-R).dot(np.array([dx * vx, dy * vy, 0.0 * vz]))


def added_inertia(lever_thrust, m):
    """Roll/pitch inertia (kg m^2) of the virtual payload: (lever*T)^2 / (m g^2)."""
    return lever_thrust * lever_thrust / (m * GRAVITY * GRAVITY)


def equivalent_inertia(h, params: GroundEffectParams, vehicle: VehicleParams, thrust=None):
    """Inertia absorbing the leveling torque as a virtual hung payload.

    J' = J + diag(s^2, s^2, 0)/m with s = lever(h)*T/g. When no thrust is
    given the hover value T = m g / (1 + F(h)) is used. This is the one
    entry point to J'(h); ``vehicle.inertia_operator(J')`` applies it.
    """
    h = _check_h(h)
    if thrust is None:
        thrust = vehicle.m * GRAVITY / (1.0 + _factor(h, params.g1, params.g2))
    added = added_inertia(_lever(h, params.g3, params.g4, params.g5) * thrust, vehicle.m)
    return InertiaOperator(None, vehicle.inertia).plus_roll_pitch(added).matrix
