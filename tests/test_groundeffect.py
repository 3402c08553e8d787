import copy
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearground import quaternions as quat
from nearground.errors import ConfigError, InputError, ParameterError
from nearground.groundeffect import (
    GroundEffectParams,
    _interp,
    drag_coefficients,
    drag_matrix,
    equivalent_inertia,
    leveling_torque,
    leveling_torque_quadrature,
    thrust_factor,
    thrust_factor_prime,
    torque_lever,
    torque_lever_peak,
    world_drag,
)
from nearground.simulator import SimConfig, _Plant
from nearground.vehicle import GRAVITY, VehicleParams

P = GroundEffectParams()
VEH = VehicleParams()


# -- thrust factor -----------------------------------------------------------

def test_thrust_factor_limits():
    assert thrust_factor(100.0, P) < 1e-3 * thrust_factor(0.0, P)
    assert np.isclose(thrust_factor(0.0, P), P.g2 / P.g1, rtol=1e-15)


def test_thrust_factor_strictly_decreasing():
    h = np.linspace(0.0, 3.0, 301)
    vals = np.array([thrust_factor(x, P) for x in h])
    assert np.all(np.diff(vals) < 0.0)


def test_thrust_factor_rejects_negative_h():
    with pytest.raises(InputError):
        thrust_factor(-0.01, P)


def test_thrust_factor_prime_at_zero():
    assert thrust_factor_prime(0.0, P) == 0.0


def test_thrust_factor_prime_matches_central_difference():
    # independent finite-difference oracle over the full working range
    for h in np.linspace(0.01, 2.0, 100):
        step = 1e-6 * max(h, 0.1)
        fd = (thrust_factor(h + step, P) - thrust_factor(h - step, P)) / (2 * step)
        assert abs(thrust_factor_prime(h, P) - fd) <= 1e-6 * max(abs(fd), 1e-6)


def test_thrust_factor_prime_minimizer_matches_grid_search():
    grid = np.linspace(1e-4, 1.0, 20001)
    slope = np.array([thrust_factor_prime(h, P) for h in grid])
    h_star = grid[np.argmin(slope)]  # most negative = steepest decay
    mag = np.abs([thrust_factor(h + 5e-7, P) - thrust_factor(h - 5e-7, P) for h in grid])
    h_fd = grid[np.argmax(mag)]
    assert abs(h_star - h_fd) < 2e-4
    assert abs(h_star - math.sqrt(P.g1 / 3.0)) < 1e-3


# -- torque lever ------------------------------------------------------------

def test_torque_lever_zero_at_ground_contact_height():
    assert torque_lever(0.0, P) == 0.0


def test_torque_lever_matches_derivative_identity():
    # with g3=0, g4=g1, g5=b^2 g2/4 the lever equals -(b^2/8) dF/dhexactly
    b = 0.30
    tied = GroundEffectParams(g1=P.g1, g2=P.g2, g3=0.0, g4=P.g1, g5=b * b * P.g2 / 4.0)
    for h in np.linspace(0.0, 2.0, 1000):
        lhs = torque_lever(h, tied)
        rhs = -(b * b / 8.0) * thrust_factor_prime(h, tied)
        assert abs(lhs - rhs) < 1e-9


def test_torque_lever_interior_peak():
    h_star, peak = torque_lever_peak(P)
    assert 0.01 < h_star < 1.0
    assert peak > torque_lever(0.01, P)
    assert peak > torque_lever(1.0, P)
    # rises then decays rather than increasing monotonically toward ground
    assert torque_lever(0.02, P) < peak and torque_lever(1.5, P) < peak


def test_torque_lever_invalid_params():
    with pytest.raises(ParameterError):
        GroundEffectParams(g4=0.0)
    with pytest.raises(ParameterError):
        GroundEffectParams(g3=-2.0, g4=0.5)
    for name in ("g1", "g2", "g3", "g4", "g5", "tilt_saturation_deg"):
        with pytest.raises(ParameterError):
            GroundEffectParams(**{name: math.nan})


# -- leveling torque ---------------------------------------------------------

def test_leveling_torque_zero_when_level():
    tau = leveling_torque(np.eye(3), 7.0, 0.2, P)
    assert np.allclose(tau, 0.0)


def test_leveling_torque_roll_tilt_direction_and_magnitude():
    delta = math.radians(5.0)
    R = quat.rot_matrix(quat.from_axis_angle([1.0, 0.0, 0.0], delta))
    T, h = 7.0, 0.2
    tau = leveling_torque(R, T, h, P)
    assert np.isclose(np.linalg.norm(tau), torque_lever(h, P) * T * math.sin(delta), rtol=1e-12)
    # positive roll tilt draws a negative roll torque: it opposes the tilt
    assert tau[0] < 0.0
    assert abs(tau[1]) < 1e-12 and abs(tau[2]) < 1e-15


def test_leveling_torque_matches_quadrature():
    delta = math.radians(5.0)
    R = quat.rot_matrix(quat.from_axis_angle([0.0, 1.0, 0.0], delta))
    T, h = 7.0, 0.2
    tau = np.linalg.norm(leveling_torque(R, T, h, P))
    ref = leveling_torque_quadrature(h, delta, T, P)
    assert abs(tau - ref) <= 0.02 * abs(ref)


def test_leveling_torque_saturates_past_plateau_tilt():
    h, T = 0.2, 7.0
    R10 = quat.rot_matrix(quat.from_axis_angle([1.0, 0.0, 0.0], math.radians(10.0)))
    R25 = quat.rot_matrix(quat.from_axis_angle([1.0, 0.0, 0.0], math.radians(25.0)))
    t10 = np.linalg.norm(leveling_torque(R10, T, h, P))
    t25 = np.linalg.norm(leveling_torque(R25, T, h, P))
    assert np.isclose(t25, t10, rtol=1e-9)
    unsat = GroundEffectParams(tilt_saturation_deg=0.0)
    t25_free = np.linalg.norm(leveling_torque(R25, T, h, unsat))
    assert t25_free > t10 * 1.5


def test_leveling_torque_rejects_bad_rotation():
    with pytest.raises(InputError):
        leveling_torque(np.eye(3) * 1.01, 5.0, 0.2, P)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=0.4),
    st.floats(min_value=0.05, max_value=1.5),
)
def test_leveling_torque_has_no_body_z_component(ax, ay, az, angle, h):
    axis = np.array([ax, ay, az])
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([1.0, 0.0, 0.0])
    R = quat.rot_matrix(quat.from_axis_angle(axis, angle))
    tau = leveling_torque(R, 6.0, h, P)
    assert abs(tau[2]) < 1e-12


def test_leveling_torque_linear_in_thrust():
    delta = math.radians(4.0)
    R = quat.rot_matrix(quat.from_axis_angle([1.0, 1.0, 0.0], delta))
    h = 0.25
    t1 = leveling_torque(R, 3.0, h, P)
    t2 = leveling_torque(R, 6.0, h, P)
    t3 = leveling_torque(R, 9.0, h, P)
    assert np.allclose(t2, 2.0 * t1, rtol=1e-14)
    assert np.allclose(t3, 3.0 * t1, rtol=1e-14)


# -- quadrature reference ----------------------------------------------------

def test_quadrature_zero_tilt():
    assert abs(leveling_torque_quadrature(0.2, 0.0, 7.0, P)) < 1e-15


def test_quadrature_small_tilt_matches_closed_form():
    # closed form: -(1/8) b^2 sin(tilt) dF/dh T, valid to 0.5% for tilt <= 2 deg
    b = 0.30
    for h in np.linspace(0.1, 1.0, 10):
        for deg in (0.5, 1.0, 2.0):
            tilt = math.radians(deg)
            closed = -(b * b / 8.0) * math.sin(tilt) * thrust_factor_prime(h, P) * 7.0
            ref = leveling_torque_quadrature(h, tilt, 7.0, P, b=b)
            assert abs(closed - ref) <= 0.005 * abs(ref)


def test_quadrature_step_halving_converged():
    a = leveling_torque_quadrature(0.15, math.radians(8.0), 7.0, P, intervals=2048)
    c = leveling_torque_quadrature(0.15, math.radians(8.0), 7.0, P, intervals=4096)
    assert abs(a - c) <= 1e-8 * abs(c)


def test_quadrature_rejects_ground_strike():
    with pytest.raises(InputError):
        leveling_torque_quadrature(0.05, math.radians(30.0), 7.0, P)


# -- ground-effect force -----------------------------------------------------

def _added_thrust_force(R, thrust, h):
    """The plant's world-frame extra force F(h) T z_B at the rotation R."""
    f_ge, _ = _Plant(VEH, P, SimConfig()).ground(R.tolist(), h, thrust)
    return np.array(f_ge)


def test_added_thrust_force_zero_thrust():
    assert np.allclose(_added_thrust_force(np.eye(3), 0.0, 0.2), 0.0)


def test_added_thrust_force_level_hover():
    T = VEH.m * GRAVITY
    f = _added_thrust_force(np.eye(3), T, 0.3)
    assert np.allclose(f, [0.0, 0.0, thrust_factor(0.3, P) * T])


def test_added_thrust_force_tilt_invariant_magnitude():
    # equal h and T under two different attitudes give equal magnitude
    T, h = 7.0, 0.15
    Ra = quat.rot_matrix(quat.from_axis_angle([1.0, 0.0, 0.0], 0.1))
    Rb = quat.rot_matrix(quat.from_axis_angle([0.3, 1.0, 0.2], 0.25))
    fa = _added_thrust_force(Ra, T, h)
    fb = _added_thrust_force(Rb, T, h)
    assert np.isclose(np.linalg.norm(fa), np.linalg.norm(fb), rtol=1e-12)


# -- drag --------------------------------------------------------------------

def test_drag_clamps_beyond_table():
    t = P.drag_table
    dx, dy = drag_coefficients(t[-1, 0] + 5.0, P)
    assert (dx, dy) == (t[-1, 1], t[-1, 2])
    dx0, dy0 = drag_coefficients(0.0, P)
    assert (dx0, dy0) == (t[0, 1], t[0, 2])


def test_drag_exact_at_nodes():
    for h, dx, dy in P.drag_table:
        got = drag_coefficients(h, P)
        assert got == (dx, dy)


def test_drag_table_encodes_low_over_high_ratios():
    dx_low, dy_low = drag_coefficients(0.1, P)
    dx_high, dy_high = drag_coefficients(2.0, P)
    assert np.isclose(dx_low / dx_high, 0.5963, atol=1e-12)
    assert np.isclose(dy_low / dy_high, 0.6179, atol=1e-12)


def test_drag_force_zero_velocity_and_body_z():
    R = quat.rot_matrix(quat.from_axis_angle([0.0, 1.0, 0.0], 0.3))
    assert np.allclose(world_drag(R, np.zeros(3), 0.4, P), 0.0)
    v = 1.7 * R[:, 2]  # motion straight along body z sees no rotor drag
    assert np.max(np.abs(world_drag(R, v, 0.4, P))) < 1e-12


def test_drag_force_level_forward_flight():
    dx, _ = drag_coefficients(0.5, P)
    f = world_drag(np.eye(3), np.array([1.0, 0.0, 0.0]), 0.5, P)
    assert np.allclose(f, [-dx, 0.0, 0.0])


def test_drag_force_perpendicular_to_body_z():
    R = quat.rot_matrix(quat.from_axis_angle([1.0, 0.4, 0.0], 0.35))
    f = world_drag(R, np.array([0.7, -0.4, 0.2]), 0.3, P)
    assert abs(f @ R[:, 2]) < 1e-12


def test_empty_drag_table_rejected():
    with pytest.raises(ConfigError):
        GroundEffectParams(drag_table=np.zeros((1, 3)))
    for row in ([math.nan, 0.2, 0.2], [1.0, math.nan, 0.2]):
        with pytest.raises(ConfigError):
            GroundEffectParams(drag_table=[[0.5, 0.2, 0.2], row])


# -- equivalent inertia ------------------------------------------------------

def test_equivalent_inertia_far_field():
    Jp = equivalent_inertia(10.0, P, VEH)
    assert np.max(np.abs(Jp - VEH.inertia)) < 1e-9


def test_equivalent_inertia_structure():
    Jp = equivalent_inertia(0.2, P, VEH, thrust=7.0)
    added = Jp - VEH.inertia
    assert added[0, 0] == added[1, 1] > 0.0
    assert added[2, 2] == 0.0
    assert np.count_nonzero(added) == 2


def test_equivalent_inertia_peaks_with_torque_lever():
    h_star, _ = torque_lever_peak(P)
    grid = np.linspace(0.02, 1.5, 400)
    added = [equivalent_inertia(h, P, VEH, thrust=7.0)[0, 0] - VEH.inertia[0, 0] for h in grid]
    assert abs(grid[int(np.argmax(added))] - h_star) < 0.01


def test_params_scaled_mismatch():
    mp = P.scaled(1.05)
    assert np.isclose(mp.g2, P.g2 * 1.05)
    assert np.isclose(mp.g5, P.g5 * 1.05)
    assert np.allclose(mp.drag_table[:, 0], P.drag_table[:, 0])
    assert np.allclose(mp.drag_table[:, 1], P.drag_table[:, 1] * 1.05)


def test_ge_config_parse(tmp_path):
    path = tmp_path / "ge.cfg"
    path.write_text(
        "g1 = 0.07\ng2 = 0.035\ng3 = 0\ng4 = 0.07\ng5 = 8e-4\n"
        "drag_sample = 0.1, 0.15, 0.13\ndrag_sample = 2.0, 0.3, 0.25\n"
    )
    p = GroundEffectParams.from_file(path)
    assert p.g1 == 0.07
    assert p.drag_table.shape == (2, 3)
    bad = tmp_path / "bad.cfg"
    bad.write_text("drag_sample = 0.1, 0.15\n")
    with pytest.raises(ConfigError):
        GroundEffectParams.from_file(bad)


# -- drag lookup against np.interp ---------------------------------------------

def _bits(x):
    return np.float64(x).tobytes()


def _interp_ref(x, xp, fp):
    with np.errstate(all="ignore"):
        return np.interp(x, np.array(xp), np.array(fp))


_KNOTS = P.drag_table[:, 0].tolist()
_default_h = st.one_of(
    st.sampled_from(_KNOTS),                                  # each knot exactly
    st.floats(min_value=0.0, max_value=_KNOTS[0]),            # below the first row
    st.floats(min_value=_KNOTS[-1], allow_nan=False),         # above the last, to +inf
    st.floats(min_value=0.0, max_value=2.5),
    st.just(math.nan),
)


@given(_default_h)
def test_drag_coefficients_bit_identical_to_np_interp(h):
    t = P.drag_table
    got = drag_coefficients(h, P)
    assert _bits(got[0]) == _bits(np.interp(h, t[:, 0], t[:, 1]))
    assert _bits(got[1]) == _bits(np.interp(h, t[:, 0], t[:, 2]))


# strictly increasing knots: arbitrary finite floats, or runs of subnormal gaps
_xp_any = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                   max_size=8, unique=True).map(sorted)
_xp_subnormal = st.lists(st.integers(1, 40), min_size=1, max_size=7).map(
    lambda gaps: [float(k) * 5e-324 for k in np.cumsum([-3] + gaps)])


@st.composite
def _table_and_x(draw):
    xp = draw(st.one_of(_xp_any, _xp_subnormal))
    # infinite values reach numpy's retry from the right knot
    fp = draw(st.lists(st.floats(allow_nan=False), min_size=len(xp), max_size=len(xp)))
    lo, hi = xp[0], xp[-1]
    span = hi - lo if math.isfinite(hi - lo) else 1e308
    x = draw(st.one_of(
        st.sampled_from(xp),
        st.floats(min_value=lo, max_value=hi),
        st.floats(max_value=lo, allow_nan=False),
        st.floats(min_value=hi, allow_nan=False),
        st.floats(min_value=max(lo - span, -1e308), max_value=min(hi + span, 1e308)),
        st.just(math.nan),
    ))
    return xp, fp, x


@settings(max_examples=500)
@given(_table_and_x())
# numpy's retry from the right knot: x - x0 overflows; inf - inf in the slope; in the value
@example(([-1e308, 1e308], [0.0, 1.0], 9e307))
@example(([0.0, 1.0], [math.inf, math.inf], 0.5))
@example(([0.0, 1.0], [-math.inf, math.inf], 0.5))
def test_interp_kernel_bit_identical_to_np_interp(case):
    xp, fp, x = case
    (got,) = _interp(x, xp, [fp])
    assert _bits(got) == _bits(_interp_ref(x, xp, fp))


def test_drag_table_is_read_only_and_copied():
    table = np.array([[0.1, 0.2, 0.1], [1.0, 0.3, 0.25]])
    p = GroundEffectParams(drag_table=table)
    table[0, 1] = 9.0       # the caller's array is not the one the lookup reads
    assert drag_coefficients(0.1, p) == (0.2, 0.1)
    with pytest.raises(ValueError):
        p.drag_table[0, 1] = 9.0
    with pytest.raises(FrozenInstanceError):
        p.drag_table = np.array([[0.1, 0.5, 0.4], [1.0, 0.6, 0.5]])
    # the knots are derived once: every access returns the same object
    assert p.drag_knots is p.drag_knots
    assert p.drag_knots == ([0.1, 1.0], [[0.2, 0.3], [0.1, 0.25]])
    other = replace(p, drag_table=[[0.1, 0.5, 0.4], [1.0, 0.6, 0.5]])
    assert drag_coefficients(0.1, other) == (0.5, 0.4)
    assert drag_coefficients(0.1, p) == (0.2, 0.1)


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_ground_effect_params_are_values(copy_of):
    table = [[0.1, 0.2, 0.1], [1.0, 0.3, 0.25]]
    p = GroundEffectParams(g2=0.05, drag_table=table)
    assert p == GroundEffectParams(g2=0.05, drag_table=np.array(table)) and p != P
    assert p != replace(p, drag_table=[[0.1, 0.2, 0.1], [1.0, 0.3, 0.26]]) and p != VEH
    assert p != replace(p, drag_table=[[0.1, 0.2, 0.1], [1.0, 0.3, 0.25], [2.0, 0.3, 0.25]])
    assert hash(p) == hash(GroundEffectParams(g2=0.05, drag_table=table))
    assert len({p, replace(p), P, P.scaled(1.0)}) == 2
    other = copy_of(p)
    assert other == p and other.drag_table is not p.drag_table
    assert not other.drag_table.flags.writeable
    assert other.drag_table.tobytes() == p.drag_table.tobytes()
    assert other.drag_knots == p.drag_knots
