"""Vehicle parameterization, mixing matrix, and rotor-speed conversions.

Rotor speeds are in rpm throughout; the thrust/torque coefficients carry
rpm^-2 units so no angular-rate conversion appears anywhere. The fixed
sign matrix below defines the rotor numbering and spin directions; any
consistent assignment to physical arms is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import KeyValueConfig
from .errors import ParameterError

GRAVITY = 9.81

# Signs mapping squared rotor speeds to (thrust, roll, pitch, yaw) channels.
SIGN_MATRIX = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0, 1.0],
        [-1.0, -1.0, 1.0, 1.0],
    ]
)


@dataclass
class VehicleParams:
    """Mass, inertia, geometry and mixing coefficients of a quadrotor."""

    m: float = 1.0                      # kg
    inertia: np.ndarray = None          # 3x3, kg m^2
    b: float = 0.30                     # diagonal wheelbase, m
    k_t: float = 1.70e-8                # N / rpm^2
    k_tx: float = 1.62e-8               # N / rpm^2, roll channel
    k_ty: float = 1.66e-8               # N / rpm^2, pitch channel
    k_i: float = 2.80e-10               # N m / rpm^2, reaction torque
    n_max: float = 20000.0              # rpm
    rotor_plane_offset: float = 0.0     # rotor plane height above origin, m

    def __post_init__(self):
        if self.inertia is None:
            self.inertia = np.diag([5.0e-3, 5.0e-3, 9.0e-3])
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.validate()

    def validate(self):
        if self.m <= 0.0:
            raise ParameterError("mass must be positive")
        if self.b <= 0.0:
            raise ParameterError("wheelbase must be positive")
        for name in ("k_t", "k_tx", "k_ty", "k_i"):
            if getattr(self, name) <= 0.0:
                raise ParameterError(f"coefficient {name} must be positive")
        if self.n_max <= 0.0:
            raise ParameterError("n_max must be positive")
        J = self.inertia
        if J.shape != (3, 3) or np.max(np.abs(J - J.T)) > 1e-12:
            raise ParameterError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(J) <= 0.0):
            raise ParameterError("inertia must be positive definite")

    @property
    def J(self):
        return self.inertia

    def hover_thrust(self):
        return self.m * GRAVITY

    def hover_speed(self):
        """Per-rotor speed (rpm) balancing weight out of ground effect."""
        return float(np.sqrt(self.m * GRAVITY / (4.0 * self.k_t)))

    CONFIG_KEYS = ("mass", "wheelbase", "k_t", "k_tx", "k_ty", "k_i", "n_max",
                   "rotor_plane_offset", "inertia_xx", "inertia_yy", "inertia_zz",
                   "inertia_xy", "inertia_xz", "inertia_yz")

    @classmethod
    def from_config(cls, cfg: KeyValueConfig):
        cfg.reject_unknown(cls.CONFIG_KEYS)
        J = np.diag(
            [
                cfg.get_float("inertia_xx", 5.0e-3),
                cfg.get_float("inertia_yy", 5.0e-3),
                cfg.get_float("inertia_zz", 9.0e-3),
            ]
        )
        J[0, 1] = J[1, 0] = cfg.get_float("inertia_xy", 0.0)
        J[0, 2] = J[2, 0] = cfg.get_float("inertia_xz", 0.0)
        J[1, 2] = J[2, 1] = cfg.get_float("inertia_yz", 0.0)
        return cls(
            m=cfg.get_float("mass", 1.0),
            inertia=J,
            b=cfg.get_float("wheelbase", 0.30),
            k_t=cfg.get_float("k_t", 1.70e-8),
            k_tx=cfg.get_float("k_tx", 1.62e-8),
            k_ty=cfg.get_float("k_ty", 1.66e-8),
            k_i=cfg.get_float("k_i", 2.80e-10),
            n_max=cfg.get_float("n_max", 20000.0),
            rotor_plane_offset=cfg.get_float("rotor_plane_offset", 0.0),
        )

    @classmethod
    def from_file(cls, path):
        return cls.from_config(KeyValueConfig.from_path(path))


@dataclass
class RotorSpeeds:
    """Four rotor speeds in rpm."""

    n: np.ndarray

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=float).reshape(4)
        if np.any(self.n < 0.0):
            raise ParameterError("rotor speeds must be non-negative")

    def squared(self):
        return self.n * self.n

    def within_limits(self, params: VehicleParams):
        return bool(np.all(self.n <= params.n_max + 1e-9))


def _speeds_squared(speeds):
    if isinstance(speeds, RotorSpeeds):
        return speeds.squared()
    n = np.asarray(speeds, dtype=float).reshape(4)
    return n * n


def _mixing_key(params: VehicleParams):
    return (params.b, params.k_t, params.k_tx, params.k_ty, params.k_i)


@lru_cache(maxsize=32)
def _mixing_pair(b, k_t, k_tx, k_ty, k_i):
    arm = np.sqrt(2.0) * b / 4.0
    gains = np.array([k_t, arm * k_tx, arm * k_ty, k_i])
    M = gains[:, None] * SIGN_MATRIX
    # SIGN_MATRIX has orthogonal rows of squared norm 4: S^-1 = S^T / 4.
    Minv = (SIGN_MATRIX.T / 4.0) / gains[None, :]
    M.setflags(write=False)
    Minv.setflags(write=False)
    return M, Minv


def build_mixing_matrix(params: VehicleParams):
    """4x4 map from squared rotor speeds to (T, tau_x, tau_y, tau_z).

    Cached on (b, k_t, k_tx, k_ty, k_i) and read-only; copy it to modify it.
    """
    return _mixing_pair(*_mixing_key(params))[0]


def mixing_matrix_inverse(params: VehicleParams):
    """Inverse of build_mixing_matrix, cached and read-only the same way."""
    return _mixing_pair(*_mixing_key(params))[1]


def wrench_from_speeds(speeds, params: VehicleParams):
    """(T, tau_body) produced by a speed vector."""
    w = build_mixing_matrix(params) @ _speeds_squared(speeds)
    return float(w[0]), w[1:4]


def thrust_from_speeds(speeds, params: VehicleParams):
    """Total rotor thrust T = k_t * sum(n_i^2), in newtons."""
    return float(params.k_t * np.sum(_speeds_squared(speeds)))


def composite_speeds(speeds, params: VehicleParams):
    """Composite rotor-speed channels (thrust, roll, pitch, yaw equivalents).

    Defined as diag(k_t, k_tx, k_ty, k_i)^-1 M N^2; component 1 times k_t
    recovers the total thrust.
    """
    scale = np.array([params.k_t, params.k_tx, params.k_ty, params.k_i])
    return (build_mixing_matrix(params) @ _speeds_squared(speeds)) / scale
