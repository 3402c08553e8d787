"""Quaternion helpers (scalar-first Hamilton convention, world-from-body).

A unit quaternion q = (w, x, y, z) here maps body-frame vectors into the
world frame through rot_matrix(q).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.sqrt(q @ q)
    if n == 0.0:
        raise InputError("zero quaternion cannot be normalized")
    return q / n


def multiply(a, b):
    """Hamilton product a ∘ b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def cross(a, b):
    """a x b for two float64 arrays of shape (3,).

    The same multiply-then-subtract per component as numpy.cross, so the
    result is bit-identical, without numpy.cross's generic axis handling,
    which on 3-vectors costs an order of magnitude more than the arithmetic.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def rot_matrix(q):
    """3x3 rotation matrix; columns are the body axes in world coordinates."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def from_matrix(R):
    """Quaternion from a rotation matrix (Shepperd's method)."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0.0:
        q = -q
    return normalize(q)


def from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.sqrt(axis @ axis)
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def geodesic_angle(qa, qb):
    """Rotation angle (rad) taking attitude qa to qb, double-cover safe."""
    d = abs(float(np.dot(qa, qb)))
    return 2.0 * np.arccos(min(d, 1.0))


def check_rotation(R, tol=1e-6):
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        raise InputError("matrix is not orthonormal within tolerance")
    return R


def from_z_axis_yaw(z_b, yaw):
    """Complete an attitude from a body z-axis and a Z-Y-X yaw angle.

    x_B = normalize(y_C × z_B) with y_C = (-sin yaw, cos yaw, 0), then
    y_B = z_B × x_B. This keeps x_B orthogonal to y_C, so the horizontal
    heading of x_B equals the yaw angle exactly (the Z-Y-X definition).
    """
    z_b = np.asarray(z_b, dtype=float)
    z_b = z_b / np.sqrt(z_b @ z_b)
    y_c = np.array([-np.sin(yaw), np.cos(yaw), 0.0])
    x_b = cross(y_c, z_b)
    n = np.sqrt(x_b @ x_b)
    if n < 1e-9:
        raise InputError("degenerate attitude: thrust axis parallel to yaw heading")
    x_b /= n
    y_b = cross(z_b, x_b)
    return from_matrix(np.column_stack([x_b, y_b, z_b]))
