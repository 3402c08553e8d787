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

# Defaults include +-0.0, subnormals and magnitudes whose products overflow.
finite_vec3 = arrays(np.float64, 3, elements=st.floats(allow_nan=False, allow_infinity=False))
any_vec3 = arrays(np.float64, 3, elements=st.floats())


@given(finite_vec3, finite_vec3)
def test_cross_bit_identical_to_numpy(a, b):
    with np.errstate(all="ignore"):
        ref = np.cross(a, b)
    assert quat.cross(a, b).tobytes() == ref.tobytes()


@given(any_vec3, any_vec3)
def test_cross_non_finite_matches_numpy(a, b):
    with np.errstate(all="ignore"):
        ref = np.cross(a, b)
    got = quat.cross(a, b)
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
