"""Vehicle parameterization and mixing matrix.

Rotor speeds are in rpm throughout; the thrust/torque coefficients carry
rpm^-2 units so no angular-rate conversion appears anywhere. The fixed
sign matrix below defines the rotor numbering and spin directions; any
consistent assignment to physical arms is acceptable.

``VehicleParams`` is an immutable value: vary it with ``dataclasses.replace``.
Its derived constants (the mixing matrix, its inverse and the inertia's
``InertiaOperator``) are built once, by ``__post_init__``. They are plain
attributes, not ``functools.cached_property``: that writes the instance
``__dict__``, after which CPython reads every attribute of the object
through a slower lookup, and the plant reads parameters on every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import KeyValueConfig, read_section, write_section
from .errors import ParameterError
from .quaternions import cross

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


def read_only(a):
    """The array a, its write flag cleared."""
    a.setflags(write=False)
    return a


class FrozenParams:
    """Value semantics of a frozen parameter dataclass, over its fields.

    Equality and hash compare arrays by value. Copies and pickles are rebuilt
    from the fields through ``__post_init__``, read-only arrays and all.
    """

    @classmethod
    def from_file(cls, path):
        return cls.from_config(KeyValueConfig.from_path(path))

    def _key(self):
        return tuple((v.shape, *v.ravel().tolist()) if isinstance(v, np.ndarray) else v
                     for v in self.__reduce__()[1])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


# config keys of the inertia matrix entries: the one field with six keys
INERTIA_KEYS = {"inertia_xx": (0, 0), "inertia_yy": (1, 1), "inertia_zz": (2, 2),
                "inertia_xy": (0, 1), "inertia_xz": (0, 2), "inertia_yz": (1, 2)}


@dataclass(frozen=True, eq=False)
class VehicleParams(FrozenParams):
    """Mass, inertia, geometry and mixing coefficients of a quadrotor.

    ``inertia`` is a read-only copy of the matrix given. Derived once:
    ``mixing``, the read-only 4x4 map from squared rotor speeds to
    (T, tau_x, tau_y, tau_z), its inverse ``mixing_inverse``, and
    ``inertia_op``, the InertiaOperator of ``inertia``.
    """

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
        J = np.diag([5.0e-3, 5.0e-3, 9.0e-3]) if self.inertia is None else self.inertia
        J = read_only(np.array(J, dtype=float))
        object.__setattr__(self, "inertia", J)
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
        if J.shape != (3, 3) or not np.max(np.abs(J - J.T)) <= 1e-12:
            raise ParameterError("inertia must be a symmetric 3x3 matrix")
        if not np.all(np.linalg.eigvalsh(J) > 0.0):
            raise ParameterError("inertia must be positive definite")
        arm = np.sqrt(2.0) * self.b / 4.0
        gains = np.array([self.k_t, arm * self.k_tx, arm * self.k_ty, self.k_i])
        object.__setattr__(self, "mixing", read_only(gains[:, None] * SIGN_MATRIX))
        # SIGN_MATRIX has orthogonal rows of squared norm 4: S^-1 = S^T / 4.
        object.__setattr__(self, "mixing_inverse",
                           read_only((SIGN_MATRIX.T / 4.0) / gains[None, :]))
        object.__setattr__(self, "inertia_op", inertia_operator(J))

    @classmethod
    def from_config(cls, cfg: KeyValueConfig):
        """Parameters from a vehicle section; inertia_* keys set entries of the default matrix."""
        kwargs = read_section(cls, cfg, extra=INERTIA_KEYS)
        J = np.array(cls().inertia)
        for key, (i, j) in INERTIA_KEYS.items():
            if key in cfg:
                J[i, j] = J[j, i] = cfg.parse(key, "float")
        return cls(inertia=J, **kwargs)

    def config_lines(self):
        """The vehicle section as 'key = value' lines that from_config reads back."""
        J = self.inertia
        return write_section(self) + [f"{key} = {float(J[i, j])!r}"
                                      for key, (i, j) in INERTIA_KEYS.items()]


class InertiaOperator:
    """A 3x3 matrix M (an inertia, its inverse or J'(h)) applied to float triples.

    ``dot(v)`` is ``M.dot(v)`` byte for byte. For a diagonal M (every
    off-diagonal entry zero) it is the float expression 0.0 + m_i * v_i:
    BLAS's sum over a row adds only exact zeros to the one product m_i * v_i,
    and its accumulator starts at +0.0, so the call and the expression round
    identically. That holds while the products are finite; otherwise a zero
    entry times an infinity is NaN in BLAS, so a non-finite result is
    recomputed by the call. Any other M costs one ``.dot`` call. Exactly one
    of ``diag`` (a list of floats) and ``matrix`` is set.
    """

    __slots__ = ("diag", "matrix")

    def __init__(self, diag, matrix):
        self.diag = diag
        self.matrix = matrix

    def dot(self, v):
        """M v for a sequence of three floats, as a list."""
        if self.diag is None:
            return self.matrix.dot(np.array(v)).tolist()
        d0, d1, d2 = self.diag
        v0, v1, v2 = v
        p0, p1, p2 = 0.0 + d0 * v0, 0.0 + d1 * v1, 0.0 + d2 * v2
        if math.isfinite(p0 + p1 + p2):
            return [p0, p1, p2]
        return np.diag(self.diag).dot(np.array(v)).tolist()

    def solve(self, v):
        """M^-1 v as a list: a quotient per component, or np.linalg.solve."""
        if self.diag is None:
            return np.linalg.solve(self.matrix, np.array(v)).tolist()
        d0, d1, d2 = self.diag
        v0, v1, v2 = v
        return [v0 / d0, v1 / d1, v2 / d2]

    def torque(self, omega, omega_dot):
        """M w_dot + w x M w for float triples, as a list: the one rotational law.

        M = J'(h) gives the reference and model torque, M = J the observer's.
        """
        t0, t1, t2 = self.dot(omega_dot)
        c0, c1, c2 = cross(omega, self.dot(omega))
        return [t0 + c0, t1 + c1, t2 + c2]

    def plus_roll_pitch(self, added):
        """The operator of M + diag(added, added, 0), summed as equivalent_inertia sums it."""
        if self.diag is None:
            M = self.matrix.copy()
            M[0, 0] += added
            M[1, 1] += added
            return InertiaOperator(None, M)
        d0, d1, d2 = self.diag
        return InertiaOperator([d0 + added, d1 + added, d2], None)


def inertia_operator(M):
    """InertiaOperator of a 3x3 matrix, from a read-only C-ordered copy of it."""
    M = read_only(np.array(M, dtype=float, order="C"))
    d = np.diag(M).tolist()
    if np.count_nonzero(M - np.diag(d)):
        return InertiaOperator(None, M)
    return InertiaOperator(d, None)
