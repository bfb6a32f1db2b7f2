"""Binary32 arithmetic and activation function tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsub.scalar32 import (
    activation64,
    activation_derivative,
    activation_derivative_vec,
    apply_activation,
    apply_activation_vec,
    fp_mul_add,
    is_finite_f32,
)

F32 = np.float32

finite32 = st.floats(
    allow_nan=False, allow_infinity=False, width=32, allow_subnormal=True
)


def test_mul_add_exact_case():
    assert fp_mul_add(0.5, 2.0, 1.0) == F32(2.0)


def test_mul_add_two_rounding_derived():
    # product of f32(1.0000001) with itself, evaluated in binary64 and
    # rounded once, happens to agree with the two-rounding path here
    a = F32(1.0000001)
    expected = F32(float(a) * float(a))
    assert expected == F32(1.0000002)
    assert fp_mul_add(a, a, 0.0) == expected


@given(x=finite32, acc=finite32)
def test_mul_add_zero_multiplicand(x, acc):
    assert fp_mul_add(0.0, x, acc) == F32(acc)


@given(a=finite32, b=finite32, acc=finite32)
def test_mul_add_deterministic(a, b, acc):
    with np.errstate(all="ignore"):
        r1 = fp_mul_add(a, b, acc)
        r2 = fp_mul_add(a, b, acc)
    assert r1.tobytes() == r2.tobytes()


def test_mul_add_nan_inf_propagate():
    with np.errstate(all="ignore"):
        assert np.isnan(fp_mul_add(float("nan"), 1.0, 0.0))
        assert np.isinf(fp_mul_add(3.0e38, 2.0, 0.0))
        assert np.isnan(fp_mul_add(float("inf"), 1.0, float("-inf")))


@pytest.mark.parametrize(
    "kind,x,expected",
    [
        ("identity", -2.5, -2.5),
        ("relu", -3.0, 0.0),
        ("relu", 1.5, 1.5),
        ("tanh", 0.0, 0.0),
    ],
)
def test_activation_values(kind, x, expected):
    assert apply_activation(kind, x) == F32(expected)


@pytest.mark.parametrize(
    "kind,x,expected",
    [
        ("identity", 7.0, 1.0),
        ("relu", 0.0, 0.0),  # fixed subgradient at the kink
        ("relu", -1e-30, 0.0),
        ("relu", 1e-30, 1.0),
        ("tanh", 0.0, 1.0),
    ],
)
def test_derivative_values(kind, x, expected):
    assert activation_derivative(kind, x) == F32(expected)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        apply_activation("sigmoid", 0.0)
    with pytest.raises(ValueError):
        activation_derivative("sigmoid", 0.0)


@given(x=finite32)
@settings(max_examples=200)
def test_tanh_bounded(x):
    assert abs(apply_activation("tanh", x)) <= F32(1.0)


def test_tanh_matches_binary64_reference():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-4, 4, size=50).astype(np.float32):
        assert apply_activation("tanh", x) == F32(math.tanh(float(x)))


@pytest.mark.parametrize("kind", ["identity", "relu", "tanh"])
def test_derivative_matches_finite_difference(kind):
    # centered binary64 difference, h = 1e-4; relu near the kink excluded
    rng = np.random.default_rng(42)
    h = 1e-4
    checked = 0
    while checked < 100:
        x = float(rng.uniform(-3, 3))
        if kind == "relu" and abs(x) < 2 * h:
            continue
        fd = (activation64(kind, x + h) - activation64(kind, x - h)) / (2 * h)
        got = float(activation_derivative(kind, F32(x)))
        assert abs(got - fd) < 1e-3, (kind, x, got, fd)
        checked += 1


def test_vector_forms_match_scalar_bitwise():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3, 3, size=64).astype(np.float32)
    xs[0] = 0.0
    xs[1] = -0.0
    for kind in ("identity", "relu", "tanh"):
        va = apply_activation_vec(kind, xs)
        vd = activation_derivative_vec(kind, xs)
        for i, x in enumerate(xs):
            assert va[i].tobytes() == apply_activation(kind, x).tobytes()
            assert vd[i].tobytes() == activation_derivative(kind, x).tobytes()


def _numpy_finite_f32(v) -> bool:
    with np.errstate(over="ignore"):
        return bool(np.isfinite(F32(v)))


def test_is_finite_f32_boundary_matches_numpy_rounding():
    top = float(np.finfo(np.float32).max)
    limit = 2.0**128 - 2.0**103  # the binary32 rounding midpoint above top
    values = [
        0.0, -0.0, 5e-324, 1.0, top, limit, 2.0**128, 1e39, 1e308,
        math.nextafter(limit, 0.0), math.nextafter(limit, math.inf),
        math.nextafter(top, math.inf),
        float("nan"), float("inf"),
    ]
    for v in values + [-v for v in values]:
        assert is_finite_f32(v) == _numpy_finite_f32(v), v
    assert is_finite_f32(top) and not is_finite_f32(limit)


@given(st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=300)
def test_is_finite_f32_matches_numpy_rounding(v):
    assert is_finite_f32(v) == _numpy_finite_f32(v)
