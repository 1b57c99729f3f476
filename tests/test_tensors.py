import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from prunekit.errors import ValidationError
from prunekit.tensors import frobenius_norm, validate_tensor

finite_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5),
    elements=st.floats(-1e6, 1e6),
)


def test_frobenius_identity():
    assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_hand_summed():
    # 2^2 + 1^2 = 5
    assert frobenius_norm(np.array([[2.0, 0.0], [0.0, 1.0]])) == pytest.approx(
        math.sqrt(5), abs=1e-12
    )


def test_l2_345():
    assert frobenius_norm(np.array([3.0, 4.0])) == 5.0


def test_l2_zero():
    assert frobenius_norm(np.zeros(3)) == 0.0


def test_l2_ones():
    assert frobenius_norm(np.ones(4)) == pytest.approx(2.0, abs=1e-15)


@given(finite_arrays, st.floats(-100, 100))
def test_scaling_homogeneity(arr, c):
    base = frobenius_norm(arr)
    scaled = frobenius_norm(c * arr)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


@given(finite_arrays)
def test_frobenius_equals_l2_of_flatten(arr):
    flat = arr.reshape(-1)
    assert frobenius_norm(arr) == frobenius_norm(flat)
    reference = math.sqrt(math.fsum(float(x) * float(x) for x in flat))
    assert frobenius_norm(arr) == pytest.approx(reference, rel=1e-12, abs=1e-12)


@given(finite_arrays, st.integers(0, 2**31))
def test_triangle_inequality(arr, seed):
    other = np.random.default_rng(seed).uniform(-1e6, 1e6, size=arr.shape)
    lhs = frobenius_norm(arr + other)
    rhs = frobenius_norm(arr) + frobenius_norm(other)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_validate_rejects_nan():
    with pytest.raises(ValidationError, match="non-finite"):
        validate_tensor(np.array([np.nan, 1.0]))


def test_validate_rejects_inf():
    with pytest.raises(ValidationError, match="non-finite"):
        validate_tensor(np.array([np.inf]))


def test_validate_rejects_rank_5():
    with pytest.raises(ValidationError):
        validate_tensor(np.zeros((1, 1, 1, 1, 1)))


def test_validate_rejects_empty_extent():
    with pytest.raises(ValidationError):
        validate_tensor(np.zeros((2, 0)))
