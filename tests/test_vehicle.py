import copy
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearground.errors import ConfigError, ParameterError
from nearground.groundeffect import (
    GroundEffectParams,
    equivalent_inertia,
    equivalent_inertia_op,
)
from nearground.vehicle import SIGN_MATRIX, VehicleParams, inertia_operator


def test_sign_matrix_pattern():
    expected = np.array(
        [
            [1, 1, 1, 1],
            [-1, 1, 1, -1],
            [-1, 1, -1, 1],
            [-1, -1, 1, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(SIGN_MATRIX, expected)


def test_unit_coefficients_give_sign_matrix():
    # arm factor sqrt(2)*b/4 collapses to 1 when b = 4/sqrt(2)
    p = VehicleParams(k_t=1.0, k_tx=1.0, k_ty=1.0, k_i=1.0, b=4.0 / np.sqrt(2.0))
    assert np.allclose(p.mixing, SIGN_MATRIX, atol=1e-15)


def test_mixing_matrix_invertible():
    p = VehicleParams()
    M = p.mixing
    assert abs(np.linalg.det(M)) > 0.0
    assert np.max(np.abs(M @ np.linalg.inv(M) - np.eye(4))) < 1e-12
    assert np.max(np.abs(M @ p.mixing_inverse - np.eye(4))) < 1e-12


def test_nonpositive_coefficient_rejected():
    with pytest.raises(ParameterError):
        VehicleParams(k_t=0.0)
    with pytest.raises(ParameterError):
        VehicleParams(b=-0.1)
    with pytest.raises(ParameterError):
        VehicleParams(inertia=np.diag([1e-3, -1e-3, 1e-3]))
    for name in ("m", "b", "k_t", "k_tx", "k_ty", "k_i", "n_max", "rotor_plane_offset"):
        with pytest.raises(ParameterError):
            VehicleParams(**{name: np.nan})
    with pytest.raises(ParameterError):
        VehicleParams(inertia=np.diag([5e-3, np.nan, 9e-3]))


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=4, max_size=4),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_allocation_round_trip(scales, b_scale):
    # random coefficients + random wrench: M (M^-1 w) = w to 1e-9 relative
    p = VehicleParams(
        k_t=1.7e-8 * scales[0],
        k_tx=1.6e-8 * scales[1],
        k_ty=1.6e-8 * scales[2],
        k_i=2.8e-10 * scales[3],
        b=0.3 * b_scale,
    )
    M = p.mixing
    rng = np.random.default_rng(int(sum(scales) * 1000))
    w = np.array([8.0, 0.1, -0.1, 0.02]) * rng.uniform(0.5, 1.5, 4)
    back = M @ (p.mixing_inverse @ w)
    assert np.max(np.abs(back - w)) < 1e-9 * max(1.0, np.max(np.abs(w)))


def test_wrench_round_trip_through_speeds():
    p = VehicleParams()
    rng = np.random.default_rng(3)
    n = rng.uniform(3000.0, 15000.0, 4)
    wrench = p.mixing @ (n * n)
    assert np.allclose(p.mixing_inverse @ wrench, n * n, rtol=1e-12)


def _thrust(n, p):
    """Total thrust: the first row of the mixing matrix applied to the squared speeds."""
    return float(p.mixing[0] @ (n * n))


def test_thrust_zero_and_symmetric():
    p = VehicleParams()
    assert _thrust(np.zeros(4), p) == 0.0
    n0 = 9000.0
    assert np.isclose(_thrust(np.full(4, n0), p), 4.0 * p.k_t * n0**2, rtol=1e-14)


def test_thrust_term_by_term_oracle():
    p = VehicleParams()
    n = np.array([100.0, 200.0, 300.0, 400.0])
    # independent scalar evaluation of the four-term sum
    expected = 0.0
    for ni in n:
        expected += p.k_t * ni * ni
    assert np.isclose(_thrust(n, p), expected, rtol=1e-15)


def test_composite_speeds_symmetry_and_zero():
    # equal speeds give thrust and no torque; zero speeds give no wrench
    p = VehicleParams()
    n0 = 8000.0
    M = p.mixing
    assert np.allclose(M @ np.full(4, n0 * n0), [4.0 * p.k_t * n0 * n0, 0.0, 0.0, 0.0],
                       atol=1e-12)
    assert np.array_equal(M @ np.zeros(4), np.zeros(4))


def test_composite_speeds_pure_roll():
    # squared speeds from M^-1 applied to a thrust+roll wrench excite only
    # the thrust and roll channels
    p = VehicleParams()
    w = np.array([8.0, 0.05, 0.0, 0.0])
    n2 = p.mixing_inverse @ w
    assert np.all(n2 > 0.0)
    back = p.mixing @ n2
    assert abs(back[0]) > 0.0 and abs(back[1]) > 0.0
    assert abs(back[2]) < 1e-9 * abs(back[0])
    assert abs(back[3]) < 1e-9 * abs(back[0])


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_composite_thrust_channel_consistency(seed):
    # the thrust row of the mixing matrix is k_t times the sum of squared speeds
    p = VehicleParams()
    n = np.random.default_rng(seed).uniform(0.0, p.n_max, 4)
    assert np.isclose(_thrust(n, p), p.k_t * np.sum(n * n), rtol=1e-12)


def test_config_round_trip(tmp_path):
    path = tmp_path / "vehicle.cfg"
    path.write_text(
        "mass = 1.2\nwheelbase = 0.25\nk_t = 2.0e-8\nk_tx = 1.9e-8\n"
        "k_ty = 1.95e-8\nk_i = 3.0e-10\nn_max = 18000\ninertia_xx = 4e-3\n"
        "inertia_yy = 4e-3\ninertia_zz = 8e-3\n"
    )
    p = VehicleParams.from_file(path)
    assert p.m == 1.2 and p.b == 0.25 and p.n_max == 18000.0
    assert p.inertia[2, 2] == 8e-3


def test_config_error_reports_key_and_line(tmp_path):
    path = tmp_path / "vehicle.cfg"
    path.write_text("mass = 1.0\nwheelbase = oops\n")
    with pytest.raises(ConfigError) as err:
        VehicleParams.from_file(path)
    assert "wheelbase" in str(err.value) and ":2" in str(err.value)


def test_mixing_matrices_cached_read_only_and_exact():
    J = np.diag([4e-3, 5e-3, 8e-3])
    p = VehicleParams(b=0.25, k_tx=1.5e-8, inertia=J)
    arm = np.sqrt(2.0) * p.b / 4.0
    gains = np.array([p.k_t, arm * p.k_tx, arm * p.k_ty, p.k_i])
    fresh_M = gains[:, None] * SIGN_MATRIX
    fresh_Minv = (SIGN_MATRIX.T / 4.0) / gains[None, :]
    J[0, 0] = 1.0           # the caller's array is not the one the parameters hold
    for derived, fresh in ((p.mixing, fresh_M), (p.mixing_inverse, fresh_Minv),
                           (p.inertia, np.diag([4e-3, 5e-3, 8e-3]))):
        assert not derived.flags.writeable
        assert derived.tobytes(order="A") == fresh.tobytes(order="A")
        assert derived.strides == fresh.strides
        with pytest.raises(ValueError):
            derived[0, 0] = 1.0
    # each derived constant is built once: every access returns the same object
    for name in ("mixing", "mixing_inverse", "inertia_op"):
        assert getattr(p, name) is getattr(p, name)
    assert p.inertia_op.diag == [4e-3, 5e-3, 8e-3]
    with pytest.raises(FrozenInstanceError):
        p.b = 0.30
    other = replace(p, b=0.30)
    assert not np.array_equal(other.mixing, p.mixing)


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_vehicle_params_are_values(copy_of):
    J = np.diag([4e-3, 5e-3, 8e-3])
    p = VehicleParams(b=0.25, inertia=J)
    assert p == VehicleParams(b=0.25, inertia=J.copy()) and p != VehicleParams(inertia=J)
    assert p != replace(p, inertia=np.diag([4e-3, 5e-3, 9e-3])) and p != "p"
    assert hash(p) == hash(VehicleParams(b=0.25, inertia=J.tolist()))
    assert len({p, replace(p), VehicleParams()}) == 2
    other = copy_of(p)
    assert other == p and other.inertia is not p.inertia
    for name in ("inertia", "mixing", "mixing_inverse"):
        assert not getattr(other, name).flags.writeable
        assert getattr(other, name).tobytes() == getattr(p, name).tobytes()
    assert other.inertia_op.diag == p.inertia_op.diag


# every finite double: both zeros, subnormals, and magnitudes whose products overflow
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_OFFDIAG_J = np.array([[5e-3, 2e-4, -1e-4], [2e-4, 5e-3, 1.5e-4], [-1e-4, 1.5e-4, 9e-3]])


def _bytes_of(values):
    return np.array(values, dtype=float).tobytes()


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(1e-6, 10.0), min_size=3, max_size=3),
       st.lists(_FINITE, min_size=3, max_size=3), st.floats(0.0, 2.0), st.floats(0.0, 30.0),
       st.booleans())
def test_inertia_operator_products_are_the_blas_products(diag, v, h, thrust, offdiag):
    # the float products of a diagonal inertia, J^-1 and J'(h) give BLAS's bytes;
    # the off-diagonal inertia takes the .dot path
    J = _OFFDIAG_J if offdiag else np.diag(diag)
    vehicle = VehicleParams(inertia=J)
    Jinv = np.linalg.inv(J)
    Jp = equivalent_inertia(h, GroundEffectParams(), vehicle, thrust=thrust)
    va = np.array(v)
    with np.errstate(all="ignore"):
        cases = [
            (inertia_operator(J), J),
            (inertia_operator(Jinv), Jinv),
            (equivalent_inertia_op(h, GroundEffectParams(), vehicle, thrust=thrust), Jp),
        ]
        for op, M in cases:
            assert (op.diag is None) == offdiag
            assert _bytes_of(op.dot(v)) == M.dot(va).tobytes()


@settings(deadline=None, max_examples=100)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e308, np.inf, -np.inf, np.nan]),
                min_size=3, max_size=3))
def test_inertia_operator_non_finite_like_blas(v):
    # a zero entry times an infinity is NaN in BLAS; the diagonal form then
    # defers to the call (NaNs compared by position, their sign is not part of the contract)
    J = VehicleParams().inertia
    with np.errstate(all="ignore"):
        got, want = np.array(inertia_operator(J).dot(v)), J.dot(np.array(v))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert _bytes_of(got[~np.isnan(got)]) == want[~np.isnan(want)].tobytes()
