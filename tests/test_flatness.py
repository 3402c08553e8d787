import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearground import flatness
from nearground import quaternions as quat
from nearground.errors import InputError, ParameterError, ReferenceGenerationError
from nearground.flatness import (
    FlatOutput,
    FlatReference,
    flat_reference,
    hover_descent,
    hover_point,
    lemniscate,
    lemniscate_period,
    make_trajectory,
)
from nearground.groundeffect import (
    GroundEffectParams,
    drag_coefficients,
    equivalent_inertia,
    thrust_factor,
)
from nearground.vehicle import GRAVITY, VehicleParams, inertia_operator

VEH = VehicleParams()
GE = GroundEffectParams()


def _ge_free():
    # ground effect and drag switched off through the parameters themselves
    table = np.array([[0.1, 0.0, 0.0], [2.0, 0.0, 0.0]])
    return GroundEffectParams(g2=0.0, g5=0.0, drag_table=table)


def _block(*flats):
    """The block of the given flat-output samples, stacked in their order."""
    return FlatOutput(*(np.array([getattr(flat, name) for flat in flats])
                        for name in ("p", "v", "a", "j", "s", "yaw", "yaw_rate", "yaw_accel")))


# flat_reference's own stages on a block of one, for a capped iteration or a given attitude

def _thrust_attitude(flat, vehicle, ge, max_iter):
    block, faults = _block(flat), flatness._Faults(1)
    h, dx, dy = flatness._altitude_drag(block, vehicle, ge, faults)
    thrust, q, iterations = flatness._thrust_attitude(
        block, flatness._factor(h, ge.g1, ge.g2), dx / vehicle.m, dy / vehicle.m, vehicle.m,
        faults, max_iter)
    faults.check(0)
    return thrust[0].item(), q[0], iterations[0].item()


def _rates(flat, vehicle, ge, attitude):
    block, faults = _block(flat), flatness._Faults(1)
    _, dx, dy = flatness._altitude_drag(block, vehicle, ge, faults)
    R = np.array([quat.rot_rows(np.asarray(attitude, dtype=float).tolist())])
    omega, omega_dot = flatness._rates(block, R, dx / vehicle.m, dy / vehicle.m, faults)
    faults.check(0)
    return omega[0], omega_dot[0]


def _model_torque(omega, omega_dot, h, thrust, vehicle, ge):
    """J'(h) w_dot + w x J'(h) w as the cascade and flat_reference evaluate it."""
    J = inertia_operator(equivalent_inertia(h, ge, vehicle, thrust))
    return np.array(J.torque(quat._floats(omega), quat._floats(omega_dot)))


# -- trajectories ------------------------------------------------------------

def test_lemniscate_anchor():
    f = lemniscate(0.0, half_width=0.75, height=1.2, peak_speed=1.0)
    assert np.allclose(f.p, [0.0, 0.0, 1.2])
    assert np.linalg.norm(f.v) > 0.5


def test_lemniscate_peak_speed_dense_sampling():
    period = lemniscate_period(0.75, 1.0)
    ts = np.linspace(0.0, period, 20001)
    speeds = [np.linalg.norm(lemniscate(t, 0.75, 1.0, 1.0).v) for t in ts]
    assert abs(max(speeds) - 1.0) < 1e-6


def test_lemniscate_derivatives_match_finite_differences():
    # 5-point central differences of the position as the independent oracle
    dt = 1e-3
    for t0 in (0.37, 1.91, 4.2):
        samples = [lemniscate(t0 + k * dt, 0.75, 1.0, 1.0).p for k in (-2, -1, 0, 1, 2)]
        f = lemniscate(t0, 0.75, 1.0, 1.0)
        v_fd = (samples[0] - 8 * samples[1] + 8 * samples[3] - samples[4]) / (12 * dt)
        a_fd = (-samples[0] + 16 * samples[1] - 30 * samples[2] + 16 * samples[3] - samples[4]) / (
            12 * dt * dt
        )
        assert np.max(np.abs(v_fd - f.v)) < 1e-6 * max(1.0, np.max(np.abs(f.v)))
        assert np.max(np.abs(a_fd - f.a)) < 1e-6 * max(1.0, np.max(np.abs(f.a)))
        j_fd = [
            (lemniscate(t0 + k * dt, 0.75, 1.0, 1.0).a - lemniscate(t0 - k * dt, 0.75, 1.0, 1.0).a)
            / (2 * k * dt)
            for k in (1,)
        ][0]
        assert np.max(np.abs(j_fd - f.j)) < 1e-4
        s_fd = (lemniscate(t0 + dt, 0.75, 1.0, 1.0).j - lemniscate(t0 - dt, 0.75, 1.0, 1.0).j) / (
            2 * dt
        )
        assert np.max(np.abs(s_fd - f.s)) < 1e-4


def test_hover_descent_boundaries():
    f0 = hover_descent(0.0, 1.0, 0.1, 20.0, 0.0)
    assert f0.p[2] == 1.0 and np.allclose(f0.v, 0.0)
    f1 = hover_descent(20.0, 1.0, 0.1, 20.0, 0.0)
    assert f1.p[2] == 0.1 and np.allclose(f1.v, 0.0)
    fh = hover_descent(1.0, 1.0, 0.1, 20.0, hold=2.0)
    assert fh.p[2] == 1.0 and np.allclose(fh.v, 0.0)


def test_hover_descent_peak_rate_closed_form():
    h0, h1, T = 1.0, 0.1, 20.0
    ts = np.linspace(0.0, T, 20001)
    vmax = max(abs(hover_descent(t, h0, h1, T, 0.0).v[2]) for t in ts)
    # 9th-order smoothstep: peak slope 630/256 at midpoint
    assert abs(vmax - (630.0 / 256.0) * (h0 - h1) / T) < 1e-6


def test_hover_descent_is_c4_smooth():
    dt = 1e-4
    for t0 in (5.0, 10.0, 14.7):
        f = hover_descent(t0, 1.0, 0.1, 20.0, 0.0)
        vp = hover_descent(t0 + dt, 1.0, 0.1, 20.0, 0.0)
        vm = hover_descent(t0 - dt, 1.0, 0.1, 20.0, 0.0)
        assert abs((vp.v[2] - vm.v[2]) / (2 * dt) - f.a[2]) < 1e-6
        assert abs((vp.a[2] - vm.a[2]) / (2 * dt) - f.j[2]) < 1e-5
        assert abs((vp.j[2] - vm.j[2]) / (2 * dt) - f.s[2]) < 1e-3


def test_hover_descent_validation():
    with pytest.raises(ParameterError):
        hover_descent(0.0, 0.1, 1.0, 10.0, 0.0)
    with pytest.raises(ParameterError):
        hover_descent(0.0, 1.0, 0.1, -1.0, 0.0)


@pytest.mark.parametrize("speed", [0.0, -1.0, math.nan])
def test_lemniscate_rejects_a_non_positive_speed(speed):
    with pytest.raises(ParameterError, match="lemniscate speed must be positive"):
        lemniscate_period(0.75, speed)
    if math.isfinite(speed):
        with pytest.raises(ParameterError, match="lemniscate speed must be positive"):
            make_trajectory("lemniscate", speed=speed)


def test_make_trajectory_kinds():
    assert callable(make_trajectory("lemniscate", speed=1.0))
    assert callable(make_trajectory("hover_descent"))
    assert np.allclose(make_trajectory("hover", height=0.5)(3.0).p, [0, 0, 0.5])
    with pytest.raises(ParameterError):
        make_trajectory("spiral")


# -- thrust and attitude -----------------------------------------------------

def test_static_hover_reference():
    flat = hover_point(0.0, [0.0, 0.0, 2.0])
    ref = flat_reference(flat, VEH, _ge_free())
    assert np.isclose(ref.thrust, VEH.m * GRAVITY, rtol=1e-12)
    assert quat.geodesic_angle(ref.attitude, np.array([1.0, 0.0, 0.0, 0.0])) < 1e-9
    # with the default curve the 2 m hover sits within 1% of plain weight
    T2 = flat_reference(flat, VEH, GE).thrust
    assert abs(T2 - VEH.m * GRAVITY) < 0.01 * VEH.m * GRAVITY


def test_hover_thrust_with_quarter_amplification():
    # h chosen so the extra-thrust factor is exactly 0.25
    h = math.sqrt(GE.g2 / 0.25 - GE.g1)
    assert np.isclose(thrust_factor(h, GE), 0.25, rtol=1e-12)
    flat = hover_point(0.0, [0.0, 0.0, h])
    T = flat_reference(flat, VEH, GE).thrust
    assert np.isclose(T, VEH.m * GRAVITY / 1.25, rtol=1e-12)


def test_force_balance_residual_after_convergence():
    # forward flight at low altitude: plug the solution back into the balance
    flat = FlatOutput([0.3, 0.0, 0.12], [1.0, 0.0, 0.0], [0.0, 0.3, 0.0],
                      np.zeros(3), np.zeros(3))
    ref = flat_reference(flat, VEH, GE)
    T, R = ref.thrust, np.array(quat.rot_rows(ref.attitude))
    h = flat.p[2]
    dx, dy = drag_coefficients(h, GE)
    resid = (
        flat.a
        + GRAVITY * np.array([0, 0, 1.0])
        + (dx / VEH.m) * (R[:, 0] @ flat.v) * R[:, 0]
        + (dy / VEH.m) * (R[:, 1] @ flat.v) * R[:, 1]
        - (1.0 + thrust_factor(h, GE)) * (T / VEH.m) * R[:, 2]
    )
    assert np.max(np.abs(resid)) < 1e-9


def test_dragfree_map_reduces_to_classic():
    flat = FlatOutput([0, 0, 1.0], [2.0, -1.0, 0.3], [0.5, 0.2, -0.4],
                      np.zeros(3), np.zeros(3), yaw=0.4)
    ref = flat_reference(flat, VEH, _ge_free())
    f = flat.a + GRAVITY * np.array([0, 0, 1.0])
    assert np.isclose(ref.thrust, VEH.m * np.linalg.norm(f), rtol=1e-12)
    # x_B keeps the commanded heading under the yaw completion
    R = np.array(quat.rot_rows(ref.attitude))
    assert abs(math.atan2(R[1, 0], R[0, 0]) - 0.4) < 1e-9


def test_fixed_point_iteration_counts():
    period = lemniscate_period(0.75, 3.0)
    for speed in (1.0, 3.0, 5.0):
        for t in np.linspace(0.0, period, 17):
            flat = lemniscate(t, 0.75, 0.12, speed)
            assert flat_reference(flat, VEH, GE).iterations <= 20


def test_free_fall_reference_rejected():
    flat = FlatOutput([0, 0, 1.0], np.zeros(3), [0, 0, -GRAVITY], np.zeros(3), np.zeros(3))
    with pytest.raises(ReferenceGenerationError):
        flat_reference(flat, VEH, GE)


def test_non_convergence_reported():
    flat = lemniscate(0.3, 0.75, 0.12, 3.0)
    with pytest.raises(ReferenceGenerationError):
        _thrust_attitude(flat, VEH, GE, max_iter=1)


# -- body rates --------------------------------------------------------------

def _conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _fd_omega(traj, t, dt=5e-4):
    """Body rates by central difference of the reference attitude."""
    qm, q0, qp = (flat_reference(traj(s), VEH, GE).attitude for s in (t - dt, t, t + dt))
    if np.dot(qm, q0) < 0:
        qm = -qm
    if np.dot(qp, q0) < 0:
        qp = -qp
    qdot = (qp - qm) / (2 * dt)
    return 2.0 * np.array(quat.multiply(_conjugate(q0).tolist(), qdot.tolist()))[1:]


def test_static_hover_rates_zero():
    flat = hover_point(0.0, [0, 0, 0.5])
    ref = flat_reference(flat, VEH, GE)
    assert np.allclose(ref.omega, 0.0, atol=1e-12)
    assert np.allclose(ref.omega_dot, 0.0, atol=1e-12)


def test_omega_matches_attitude_finite_differences():
    traj = lambda t: lemniscate(t, 0.75, 0.12, 1.0)
    for t in np.linspace(0.2, 6.0, 9):
        flat = traj(t)
        omega = flat_reference(flat, VEH, GE).omega
        assert np.max(np.abs(omega - _fd_omega(traj, t))) < 1e-4


def test_omega_dot_matches_rate_finite_differences():
    traj = lambda t: lemniscate(t, 0.75, 0.12, 1.0)
    dt = 5e-4
    for t in np.linspace(0.2, 6.0, 9):
        flat = traj(t)
        omega_dot = flat_reference(flat, VEH, GE).omega_dot
        om_p = flat_reference(traj(t + dt), VEH, GE).omega
        om_m = flat_reference(traj(t - dt), VEH, GE).omega
        fd = (om_p - om_m) / (2 * dt)
        assert np.max(np.abs(omega_dot - fd)) < 1e-3


def test_omega_with_yaw_rate():
    # pure yaw spin at hover maps to body-z rate
    flat = FlatOutput([0, 0, 1.0], np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
                      yaw=0.2, yaw_rate=0.7)
    omega = flat_reference(flat, VEH, _ge_free()).omega
    assert np.allclose(omega, [0.0, 0.0, 0.7], atol=1e-12)


# -- torque ------------------------------------------------------------------

def test_reference_torque_zero_rates():
    assert np.allclose(_model_torque(np.zeros(3), np.zeros(3), 0.2, 7.0, VEH, GE), 0.0)


def test_reference_torque_far_field_plain_inertia():
    omega = np.array([0.3, -0.2, 0.5])
    omega_dot = np.array([0.1, 0.4, -0.3])
    tau = _model_torque(omega, omega_dot, 50.0, 9.81, VEH, GE)
    plain = VEH.inertia @ omega_dot + np.cross(omega, VEH.inertia @ omega)
    assert np.max(np.abs(tau - plain)) < 1e-9


def test_reference_torque_gyroscopic_term_componentwise():
    # hand-expanded cross product for a diagonal inertia
    omega = np.array([0.0, 0.0, 1.3])
    Jp = VEH.inertia
    tau = _model_torque(omega, np.zeros(3), 50.0, 9.81, VEH, GE)
    # J omega is parallel to omega for pure yaw with diagonal J: no gyro term
    assert np.allclose(tau, 0.0, atol=1e-12)
    omega = np.array([0.4, 0.7, -0.2])
    tau = _model_torque(omega, np.zeros(3), 50.0, 9.81, VEH, GE)
    jw = np.array([Jp[0, 0] * 0.4, Jp[1, 1] * 0.7, Jp[2, 2] * -0.2])
    hand = np.array(
        [
            omega[1] * jw[2] - omega[2] * jw[1],
            omega[2] * jw[0] - omega[0] * jw[2],
            omega[0] * jw[1] - omega[1] * jw[0],
        ]
    )
    assert np.max(np.abs(tau - hand)) < 1e-12


def test_flat_reference_bundle_feasible():
    ref = flat_reference(lemniscate(1.3, 0.75, 0.12, 1.0), VEH, GE)
    assert ref.feasible
    assert np.all(ref.rotor_speeds >= 0.0) and np.all(ref.rotor_speeds <= VEH.n_max)
    assert ref.iterations <= 20


def test_flat_reference_flags_infeasible():
    monster = FlatOutput([0, 0, 1.0], np.zeros(3), [0, 0, 60.0], np.zeros(3), np.zeros(3))
    ref = flat_reference(monster, VEH, GE)
    assert not ref.feasible


# -- the float bodies against the array-based code they replaced --------------
#
# Below is the reference generation as it was when it ran on numpy arrays
# (FlatReference.attitude and friends built from small-array arithmetic and
# the @ operator). The float bodies must reproduce every field bit for bit.

_Z_W = np.array([0.0, 0.0, 1.0])


def _ref_from_z_axis_yaw(z_b, yaw):
    z_b = np.asarray(z_b, dtype=float)
    n = math.sqrt(float(z_b @ z_b))
    if not n > 0.0:
        raise InputError("body z axis must be non-zero")
    z = z_b / n
    x_b = np.array(quat.cross([float(-np.sin(yaw)), float(np.cos(yaw)), 0.0], z.tolist()))
    n = math.sqrt(float(x_b @ x_b))
    if n < 1e-9:
        raise InputError("degenerate attitude: thrust axis parallel to yaw heading")
    x = x_b / n
    y = np.array(quat.cross(z.tolist(), x.tolist()))
    r00, r01, r02 = x[0], y[0], z[0]
    r10, r11, r12 = x[1], y[1], z[1]
    r20, r21, r22 = x[2], y[2], z[2]
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif r00 >= r11 and r00 >= r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif r11 >= r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    q = np.array(q, dtype=float)
    if q[0] < 0.0:
        q = -q
    return q / np.sqrt(q @ q)


def _ref_thrust_attitude(flat, vehicle, ge, tol=1e-10, max_iter=20):
    h = flat.p[2] + vehicle.rotor_plane_offset
    if h < 0.0:
        raise ReferenceGenerationError(f"reference altitude below ground: h={h:.4f}")
    dx, dy = drag_coefficients(h, ge)
    dax, day = dx / vehicle.m, dy / vehicle.m
    f0 = flat.a + GRAVITY * _Z_W
    n0 = np.linalg.norm(f0)
    if n0 < 1e-9:
        raise ReferenceGenerationError("free-fall reference: thrust axis undefined")
    z_b = f0 / n0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q = _ref_from_z_axis_yaw(z_b, flat.yaw)
        R = np.array(quat.rot_rows(q))
        x_b, y_b = R[:, 0], R[:, 1]
        f = f0 + dax * (x_b @ flat.v) * x_b + day * (y_b @ flat.v) * y_b
        z_new = f / np.linalg.norm(f)
        delta = np.linalg.norm(z_new - z_b)
        z_b = z_new
        if delta < tol:
            break
    else:
        raise ReferenceGenerationError(
            f"thrust-axis fixed point did not converge in {max_iter} iterations"
        )
    q = _ref_from_z_axis_yaw(z_b, flat.yaw)
    fg = thrust_factor(h, ge)
    thrust = vehicle.m * float(z_b @ f0) / (1.0 + fg)
    if thrust <= 0.0:
        raise ReferenceGenerationError("reference thrust non-positive")
    return thrust, q, iterations


def _ref_rates(flat, vehicle, ge, attitude=None):
    if attitude is None:
        _, attitude, _ = _ref_thrust_attitude(flat, vehicle, ge)
    R = np.array(quat.rot_rows(attitude))
    x_b, y_b, z_b = R[:, 0], R[:, 1], R[:, 2]
    h = flat.p[2] + vehicle.rotor_plane_offset
    dx, dy = drag_coefficients(h, ge)
    d1, d2 = dx / vehicle.m, dy / vehicle.m

    gz = flat.a + GRAVITY * _Z_W
    c = float(z_b @ gz)
    v_b = R.T @ flat.v
    a_b = R.T @ flat.a
    j_b = R.T @ flat.j
    s_b = R.T @ flat.s

    yaw, dyaw, ddyaw = flat.yaw, flat.yaw_rate, flat.yaw_accel
    x_c = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    y_c = np.array([-math.sin(yaw), math.cos(yaw), 0.0])

    a11 = c + d1 * v_b[2]
    a12 = -(d1 - d2) * v_b[1]
    a21 = -float(y_c @ z_b)
    a22 = float(y_c @ y_b)
    r1 = j_b[0] + d1 * a_b[0]
    r2 = dyaw * float(x_c @ x_b)
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-12:
        raise ReferenceGenerationError("rate solve singular (thrust axis degenerate)")
    w2 = (r1 * a22 - a12 * r2) / det
    w3 = (a11 * r2 - r1 * a21) / det
    den1 = c + d2 * v_b[2]
    w1 = -(j_b[1] + d2 * a_b[1] + (d1 - d2) * v_b[0] * w3) / den1
    omega = np.array([w1, w2, w3])

    vdot_b = a_b - np.array(quat.cross(omega.tolist(), v_b.tolist()))
    adot_b = j_b - np.array(quat.cross(omega.tolist(), a_b.tolist()))
    jdot_b = s_b - np.array(quat.cross(omega.tolist(), j_b.tolist()))
    cdot = w2 * float(x_b @ gz) - w1 * float(y_b @ gz) + float(z_b @ flat.j)

    da11 = cdot + d1 * vdot_b[2]
    da12 = -(d1 - d2) * vdot_b[1]
    da21 = dyaw * float(x_c @ z_b) - w2 * float(y_c @ x_b) + w1 * float(y_c @ y_b)
    da22 = -dyaw * float(x_c @ y_b) - w3 * float(y_c @ x_b) + w1 * float(y_c @ z_b)
    dr1 = jdot_b[0] + d1 * adot_b[0]
    dr2 = (
        ddyaw * float(x_c @ x_b)
        + dyaw * dyaw * float(y_c @ x_b)
        + dyaw * w3 * float(x_c @ y_b)
        - dyaw * w2 * float(x_c @ z_b)
    )
    b1 = dr1 - da11 * w2 - da12 * w3
    b2 = dr2 - da21 * w2 - da22 * w3
    wd2 = (b1 * a22 - a12 * b2) / det
    wd3 = (a11 * b2 - b1 * a21) / det
    wd1 = -(
        jdot_b[1]
        + d2 * adot_b[1]
        + w1 * (cdot + d2 * vdot_b[2])
        + (d1 - d2) * (vdot_b[0] * w3 + v_b[0] * wd3)
    ) / den1
    return omega, np.array([wd1, wd2, wd3])


def _ref_torque(omega, omega_dot, h, thrust, vehicle, ge):
    Jp = equivalent_inertia(h, ge, vehicle, thrust=thrust)
    omega = np.asarray(omega, dtype=float)
    return Jp @ np.asarray(omega_dot, dtype=float) + \
        np.array(quat.cross(omega.tolist(), (Jp @ omega).tolist()))


def _ref_flat_reference(flat, vehicle, ge):
    thrust, attitude, iterations = _ref_thrust_attitude(flat, vehicle, ge)
    omega, omega_dot = _ref_rates(flat, vehicle, ge, attitude=attitude)
    h = flat.p[2] + vehicle.rotor_plane_offset
    torque = _ref_torque(omega, omega_dot, h, thrust, vehicle, ge)
    n_sq = vehicle.mixing_inverse @ np.concatenate(([thrust], torque))
    feasible = bool(np.all(n_sq >= -1e-9) and np.all(n_sq <= vehicle.n_max**2 + 1e-9))
    n_ref = np.sqrt(np.clip(n_sq, 0.0, None))
    Jp = inertia_operator(equivalent_inertia(h, ge, vehicle, thrust=thrust))
    # the model feedforward as the cascade's position tick evaluated it per sample
    R = np.array(quat.rot_rows(attitude))
    dx, dy = drag_coefficients(h, ge)
    a_drag = -(R.dot(np.diag([dx, dy, 0.0])).dot(R.T.dot(flat.v))) / vehicle.m
    a_ground = (thrust / vehicle.m) * thrust_factor(h, ge) * R[:, 2]
    return FlatReference(flat.p, flat.v, flat.a, flat.yaw, thrust, attitude, omega, omega_dot,
                         torque, n_ref, feasible, iterations, Jp, a_drag, a_ground)


_REFERENCE_FIELDS = ("p", "v", "a", "yaw", "thrust", "attitude", "omega", "omega_dot", "torque",
                     "rotor_speeds", "feasible", "iterations", "accel_drag", "accel_ground")


def _exact(value):
    """A value reduced to its type and bytes, every NaN as the one canonical NaN.

    Where a NaN sits is compared, its sign bit is not, as in the cross-product
    tests: the sign of a + b for two NaNs of opposite sign is not fixed in
    Python float arithmetic. CPython's generic float add keeps b's NaN and its
    specialised add, used once the call site has warmed up, keeps a's.
    """
    if isinstance(value, FlatReference):
        return tuple(_exact(getattr(value, name)) for name in _REFERENCE_FIELDS)
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            value = np.where(np.isnan(value), np.nan, value)
        return value.dtype.str, value.shape, value.tobytes()
    x = np.float64(value)
    return type(value), (np.float64(np.nan) if np.isnan(x) else x).tobytes()


def _outcome(fn, *args, **kwargs):
    with np.errstate(all="ignore"):
        try:
            return _exact(fn(*args, **kwargs))
        except Exception as err:
            return type(err), str(err)


_VEHICLES = (VEH, VehicleParams(m=1.3, rotor_plane_offset=0.04))
_MODELS = (GE, GE.scaled(1.05))


def _component(bound):
    return st.floats(-bound, bound)


@st.composite
def _flat_outputs(draw):
    def vec(bound):
        return [draw(_component(bound)) for _ in range(3)]

    p = [draw(_component(2.0)), draw(_component(2.0)), draw(st.floats(-0.05, 2.0))]
    return FlatOutput(p, vec(5.0), vec(15.0), vec(60.0), vec(300.0),
                      yaw=draw(_component(4.0)), yaw_rate=draw(_component(3.0)),
                      yaw_accel=draw(_component(20.0)))


@settings(max_examples=300, deadline=None)
@given(_flat_outputs(), st.sampled_from(_VEHICLES), st.sampled_from(_MODELS),
       st.integers(1, 20))
def test_float_reference_bit_identical_to_array_code(flat, vehicle, ge, max_iter):
    assert _outcome(flat_reference, flat, vehicle, ge) == \
        _outcome(_ref_flat_reference, flat, vehicle, ge)
    assert _outcome(_thrust_attitude, flat, vehicle, ge, max_iter=max_iter) == \
        _outcome(_ref_thrust_attitude, flat, vehicle, ge, max_iter=max_iter)


@settings(max_examples=100, deadline=None)
@given(_flat_outputs(), st.lists(st.floats(), min_size=6, max_size=6),
       st.sampled_from(_MODELS))
def test_float_reference_non_finite_like_array_code(flat, jerk_snap, ge):
    # any jerk and snap, NaN and infinities too: they pass the thrust solve
    # and reach the rates, the torque and the rotor-speed clip
    flat.j, flat.s = np.array(jerk_snap[:3]), np.array(jerk_snap[3:])
    assert _outcome(flat_reference, flat, VEH, ge) == \
        _outcome(_ref_flat_reference, flat, VEH, ge)


@settings(max_examples=100, deadline=None)
@given(st.lists(_component(20.0), min_size=6, max_size=6), st.floats(0.0, 2.0),
       st.floats(0.0, 30.0), st.sampled_from(_VEHICLES), st.sampled_from(_MODELS))
def test_float_torque_bit_identical_to_array_code(rates, h, thrust, vehicle, ge):
    args = (np.array(rates[:3]), np.array(rates[3:]), h, thrust, vehicle, ge)
    assert _outcome(_model_torque, *args) == _outcome(_ref_torque, *args)


def test_float_rates_divide_by_zero_like_array_code():
    # this attitude makes the thrust-axis scalar c and v_b[2] exactly zero, so
    # the roll-rate row divides by zero while the 2x2 rate solve stays regular
    attitude = np.array([0.5, 0.5, 0.5, 0.5])
    flat = FlatOutput([0.0, 0.0, 1.0], [0.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.3, 0.2, 0.1],
                      np.zeros(3), yaw=0.5, yaw_rate=0.2)
    got = _outcome(_rates, flat, VEH, GE, attitude=attitude)
    assert got == _outcome(_ref_rates, flat, VEH, GE, attitude=attitude)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega, _ = _rates(flat, VEH, GE, attitude=attitude)
    assert not np.isfinite(omega[0])


def test_float_reference_raises_like_array_code():
    hover = [0.0, 0.0, 1.0]
    moving = FlatOutput(hover, [1.5, -0.5, 0.2], [2.0, 1.0, 0.5], np.zeros(3), np.zeros(3),
                        yaw=0.7, yaw_rate=0.4, yaw_accel=-1.0)
    cases = [
        (FlatOutput(hover, np.zeros(3), [0.0, 0.0, -GRAVITY], np.zeros(3), np.zeros(3)), 20),
        (FlatOutput([0.0, 0.0, -0.5], np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)), 20),
        (moving, 1),
    ]
    for flat, max_iter in cases:
        for vehicle in _VEHICLES:
            for ge in _MODELS:
                got = _outcome(_thrust_attitude, flat, vehicle, ge, max_iter)
                assert got[0] is ReferenceGenerationError
                assert got == _outcome(_ref_thrust_attitude, flat, vehicle, ge,
                                       max_iter=max_iter)
                if max_iter == 20:
                    assert _outcome(flat_reference, flat, vehicle, ge) == \
                        _outcome(_ref_flat_reference, flat, vehicle, ge) == got


# -- a block of samples against the array code, sample by sample ----------------

_FREE_FALL = FlatOutput([0.0, 0.0, 1.0], np.zeros(3), [0.0, 0.0, -GRAVITY], np.zeros(3),
                        np.zeros(3))


@st.composite
def _lap_samples(draw):
    # low and fast laps, the ground effect at its strongest; some dip below the ground
    return lemniscate(draw(st.floats(0.0, 10.0)), 0.75, draw(st.floats(-0.05, 0.3)),
                      draw(st.floats(0.5, 6.0)))


@st.composite
def _rest_samples(draw):
    # at rest at any heading, as hover and descent runs start: the model drag is a sum of zeros
    return FlatOutput([0.0, 0.0, draw(st.floats(0.0, 2.0))], np.zeros(3), np.zeros(3),
                      np.zeros(3), np.zeros(3), yaw=draw(_component(4.0)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_flat_outputs(), _lap_samples(), _rest_samples(), st.just(_FREE_FALL)),
                min_size=1, max_size=16),
       st.sampled_from(_VEHICLES), st.sampled_from(_MODELS))
def test_block_reference_bit_identical_to_array_code_per_sample(flats, vehicle, ge):
    block = flatness.ReferenceBlock(_block(*flats), vehicle, ge)
    for k, flat in enumerate(flats):
        got = _outcome(block.reference, k)
        assert got == _outcome(_ref_flat_reference, flat, vehicle, ge)
        if isinstance(got[0], tuple):   # a record: its flat sample is the one given, unchanged
            assert got[:4] == _exact((flat.p, flat.v, flat.a, flat.yaw))


def test_block_samples_stop_at_their_own_iteration_counts():
    times = np.linspace(0.0, lemniscate_period(0.75, 5.0), 64)
    flats = [lemniscate(t, 0.75, 0.08, 5.0) for t in times]
    block = flatness.ReferenceBlock(_block(*flats), VEH, GE)
    counts = [block.reference(k).iterations for k in range(len(flats))]
    assert len(set(counts)) >= 2
    assert counts == [flat_reference(flat, VEH, GE).iterations for flat in flats]


def test_trajectories_sample_blocks_as_single_times():
    times = np.linspace(-1.0, 25.0, 97)
    for traj in (make_trajectory("lemniscate", speed=2.0, height=0.3),
                 make_trajectory("hover_descent", h_start=1.0, h_end=0.1, duration=20.0,
                                 hold=2.0),
                 make_trajectory("hover", x=0.2, y=-0.1, height=0.5)):
        block = traj(times)
        for k, t in enumerate(times.tolist()):
            one = traj(t)
            for name in ("p", "v", "a", "j", "s"):
                assert getattr(block, name)[k].tobytes() == getattr(one, name).tobytes()


def test_stacked_matmul_is_per_item_dot():
    # the rule every block reduction rests on: a stacked matmul calls the BLAS
    # kernel of each item's own .dot, where a 2-D gemm rounds differently
    rng = np.random.default_rng(7)
    n = 2000

    def same(got, want):
        return got.tobytes() == np.array(want).tobytes()

    for k in (3, 4):
        x, y = rng.standard_normal((n, k)) * rng.uniform(0.1, 100.0, (n, 1)), \
            rng.standard_normal((n, k))
        assert same(flatness._dots(x, y), [x[i].dot(y[i]) for i in range(n)]), k
    R, v = rng.standard_normal((n, 3, 3)), rng.standard_normal((n, 3))
    assert same(flatness._dots(R[:, :, 0], v), [R[i][:, 0].dot(v[i]) for i in range(n)])
    assert same(flatness._products(R, v), [R[i].dot(v[i]) for i in range(n)])
    Rt = R.transpose(0, 2, 1)
    assert same(flatness._products(Rt, v), [R[i].T.dot(v[i]) for i in range(n)])
    M, u = rng.standard_normal((4, 4)), rng.standard_normal((n, 4))
    assert same(flatness._products(M, u), [M.dot(u[i]) for i in range(n)])


def test_array_sin_cos_equal_math():
    t = np.random.default_rng(8).uniform(-60.0, 60.0, 20000)
    assert np.sin(t).tobytes() == np.array([math.sin(x) for x in t.tolist()]).tobytes()
    assert np.cos(t).tobytes() == np.array([math.cos(x) for x in t.tolist()]).tobytes()
