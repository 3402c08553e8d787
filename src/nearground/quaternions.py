"""Quaternion helpers (scalar-first Hamilton convention, world-from-body).

A unit quaternion q = (w, x, y, z) here maps body-frame vectors into the
world frame through the rotation matrix whose rows rot_rows(q) gives.

The per-step helpers (``normalize``, ``multiply``, ``cross``, ``rot_rows``)
take and return sequences of Python floats; ``cross``, ``rot_rows`` and
``_shepperd`` also take component arrays for flatness.py's blocks.
Their arithmetic follows the per-step rule stated in simulator.py's docstring.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def normalize(q):
    """q / |q| for a sequence of Python floats, as a list."""
    a = np.array(q)
    n = math.sqrt(float(a.dot(a)))
    if n == 0.0:
        raise InputError("zero quaternion cannot be normalized")
    return [v / n for v in q]


def _floats(v):
    return np.asarray(v, dtype=float).tolist()


def multiply(a, b):
    """Hamilton product a ∘ b of two sequences of four Python floats, as a list."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


def cross(a, b):
    """a x b for two sequences of three Python floats, as a list.

    The same multiply-then-subtract per component as numpy.cross, so the
    result is bit-identical, without numpy.cross's generic axis handling,
    which on 3-vectors costs an order of magnitude more than the arithmetic.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def rot_rows(q):
    """The rotation matrix of q as three row lists; its columns are the body axes in world axes."""
    w, x, y, z = q
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def _from_rows(R):
    """Quaternion (a list) from three rotation-matrix row lists (Shepperd's method)."""
    (r00, _, _), (_, r11, _), (_, _, r22) = R
    case = (0 if r00 + r11 + r22 > 0.0 else 1 if r00 >= r11 and r00 >= r22
            else 2 if r11 >= r22 else 3)
    q = _shepperd(case, R, math.sqrt)
    if q[0] < 0.0:
        q = [-v for v in q]
    return normalize(q)


def _shepperd(case, R, sqrt):
    """Shepperd's case 0-3 (the trace, r00, r11 or r22 largest) on the rows R, before the sign lift.

    The entries are floats, or arrays of one sample per element with sqrt np.sqrt.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    if case == 0:
        s = sqrt(r00 + r11 + r22 + 1.0) * 2.0
        return [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    if case == 1:
        s = sqrt(1.0 + r00 - r11 - r22) * 2.0
        return [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    if case == 2:
        s = sqrt(1.0 + r11 - r00 - r22) * 2.0
        return [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    s = sqrt(1.0 + r22 - r00 - r11) * 2.0
    return [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]


def from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.sqrt(axis.dot(axis))
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def geodesic_angle(qa, qb):
    """Rotation angle (rad) taking attitude qa to qb, double-cover safe."""
    d = abs(float(np.dot(qa, qb)))
    return 2.0 * np.arccos(min(d, 1.0))


def from_z_axis_yaw(z_b, yaw):
    """Complete an attitude from a body z-axis and a Z-Y-X yaw angle.

    x_B = normalize(y_C × z_B) with y_C = (-sin yaw, cos yaw, 0), then
    y_B = z_B × x_B. This keeps x_B orthogonal to y_C, so the horizontal
    heading of x_B equals the yaw angle exactly (the Z-Y-X definition).
    """
    z_b = np.asarray(z_b, dtype=float)
    n = math.sqrt(float(z_b.dot(z_b)))
    if not n > 0.0:
        raise InputError("body z axis must be non-zero")
    z = [v / n for v in z_b.tolist()]
    x_b = np.array(cross([float(-np.sin(yaw)), float(np.cos(yaw)), 0.0], z))
    n = math.sqrt(float(x_b.dot(x_b)))
    if n < 1e-9:
        raise InputError("degenerate attitude: thrust axis parallel to yaw heading")
    x = [v / n for v in x_b.tolist()]
    y = cross(z, x)
    return np.array(_from_rows([[x[0], y[0], z[0]], [x[1], y[1], z[1]], [x[2], y[2], z[2]]]))
