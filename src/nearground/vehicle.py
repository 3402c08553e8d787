"""Vehicle parameterization and mixing matrix.

Rotor speeds are in rpm throughout; the thrust/torque coefficients carry
rpm^-2 units so no angular-rate conversion appears anywhere. The fixed
sign matrix below defines the rotor numbering and spin directions; any
consistent assignment to physical arms is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import KeyValueConfig, read_section, write_section
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


# config keys of the inertia matrix entries: the one field with six keys
INERTIA_KEYS = {"inertia_xx": (0, 0), "inertia_yy": (1, 1), "inertia_zz": (2, 2),
                "inertia_xy": (0, 1), "inertia_xz": (0, 2), "inertia_yz": (1, 2)}


@dataclass
class VehicleParams:
    """Mass, inertia, geometry and mixing coefficients of a quadrotor."""

    m: float = field(default=1.0, metadata={"key": "mass"})             # kg
    inertia: np.ndarray = None          # 3x3, kg m^2
    b: float = field(default=0.30, metadata={"key": "wheelbase"})       # diagonal, m
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
        # "not x > 0" style comparisons also reject NaN
        if not self.m > 0.0:
            raise ParameterError(f"mass must be positive, got {self.m}")
        if not self.b > 0.0:
            raise ParameterError(f"wheelbase must be positive, got {self.b}")
        for name in ("k_t", "k_tx", "k_ty", "k_i", "n_max"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if np.isnan(self.rotor_plane_offset):
            raise ParameterError("rotor_plane_offset must not be NaN")
        J = self.inertia
        if J.shape != (3, 3) or not np.max(np.abs(J - J.T)) <= 1e-12:
            raise ParameterError("inertia must be a symmetric 3x3 matrix")
        if not np.all(np.linalg.eigvalsh(J) > 0.0):
            raise ParameterError("inertia must be positive definite")

    def hover_thrust(self):
        return self.m * GRAVITY

    @classmethod
    def from_config(cls, cfg: KeyValueConfig):
        """Parameters from a vehicle section; inertia_* keys set entries of the default matrix."""
        kwargs = read_section(cls, cfg, extra=INERTIA_KEYS)
        J = cls().inertia
        for key, (i, j) in INERTIA_KEYS.items():
            if key in cfg:
                J[i, j] = J[j, i] = cfg.parse(key, "float")
        return cls(inertia=J, **kwargs)

    @classmethod
    def from_file(cls, path):
        return cls.from_config(KeyValueConfig.from_path(path))

    def config_lines(self):
        """The vehicle section as 'key = value' lines that from_config reads back."""
        J = self.inertia
        return write_section(self) + [f"{key} = {float(J[i, j])!r}"
                                      for key, (i, j) in INERTIA_KEYS.items()]


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
