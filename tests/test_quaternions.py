import ast
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nearground
from nearground import quaternions as quat
from nearground.errors import InputError
from nearground.vehicle import VehicleParams

# Defaults include +-0.0, subnormals and magnitudes whose products overflow.
finite_vec3 = arrays(np.float64, 3, elements=st.floats(allow_nan=False, allow_infinity=False))
any_vec3 = arrays(np.float64, 3, elements=st.floats())


@given(finite_vec3, finite_vec3)
def test_cross_bit_identical_to_numpy(a, b):
    with np.errstate(all="ignore"):
        ref = np.cross(a, b)
    assert np.array(quat.cross(a.tolist(), b.tolist())).tobytes() == ref.tobytes()


@given(any_vec3, any_vec3)
def test_cross_non_finite_matches_numpy(a, b):
    with np.errstate(all="ignore"):
        ref = np.cross(a, b)
    got = np.array(quat.cross(a.tolist(), b.tolist()))
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def _numpy_cross_uses(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "cross"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "cross" for alias in node.names):
                yield node.lineno


def test_package_does_not_use_numpy_cross():
    # numpy.cross costs ~10x quaternions.cross on 3-vectors; the per-step
    # dynamics call it tens of thousands of times per simulated lap.
    pkg = os.path.dirname(nearground.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{line}" for line in _numpy_cross_uses(tree)]
    assert found == []


def test_from_z_axis_yaw_rejects_zero_axis():
    with pytest.raises(InputError):
        quat.from_z_axis_yaw(np.zeros(3), 0.0)
    with pytest.raises(InputError):
        quat.from_z_axis_yaw(np.array([np.nan, 0.0, 1.0]), 0.0)


# Finite values: +-0.0, subnormals and magnitudes whose products overflow.
finite_vec4 = arrays(np.float64, 4, elements=st.floats(allow_nan=False, allow_infinity=False))
finite_mat3 = arrays(np.float64, (3, 3),
                     elements=st.floats(allow_nan=False, allow_infinity=False))


@given(finite_mat3, finite_mat3, finite_vec3, finite_vec3, finite_vec4, finite_vec4,
       st.integers(0, 2), st.integers(0, 2))
def test_dot_bit_identical_to_matmul(R, S, a, b, p, r, i, j):
    # every operand shape and layout the per-step path reduces with .dot
    vehicle = VehicleParams()
    pairs = [
        (a, b), (p, r),                               # 3- and 4-vector dots
        (R[:, i], a), (a, R[:, i]), (R[:, i], R[:, j]),  # strided columns
        (R, a), (R.T, a), (-R, a),                    # matrix-vector, both layouts
        (R, S), (R, np.diag(S.diagonal())),           # 3x3 products (model drag)
        (vehicle.mixing_inverse, p),                  # read-only 4x4, derived once
        (vehicle.mixing, p),
    ]
    with np.errstate(all="ignore"):
        for x, y in pairs:
            assert x.dot(y).tobytes() == (x @ y).tobytes()


# the modules every simulation step runs through; estimation.py keeps @ in
# its batch fits, which run once per identification, not per step
PER_STEP_MODULES = ("quaternions.py", "groundeffect.py", "simulator.py", "controller.py",
                    "flatness.py")


def test_per_step_modules_do_not_use_matmul_operator():
    # a @ b dispatches through the matmul ufunc, about twice the cost of
    # a.dot(b) on 3-vectors for the same BLAS call and the same bytes
    pkg = os.path.dirname(nearground.__file__)
    found = []
    for name in PER_STEP_MODULES:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]
    assert found == []
