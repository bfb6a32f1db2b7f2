"""Binary32 arithmetic and activation function tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsub import network
from pcsub.core import round32, stage_pred
from pcsub.network import NetworkConfig
from pcsub.oracle import oracle_tick
from pcsub.rules import is_finite_f32
from pcsub.scalar32 import ACTIVATION_KINDS, ACTIVATIONS_VEC, DERIVATIVES_VEC, TANH

from refimpl import Case, activation32, activation64, derivative32, derivative64
from refimpl import dense_zeros, engine_tick

F32 = np.float32


def f32(*values):
    return np.array(values, dtype=np.float32)

finite32 = st.floats(
    allow_nan=False, allow_infinity=False, width=32, allow_subnormal=True
)


def test_mul_add_two_rounding_derived():
    # PRED's MAC rounds the product, then the sum. Lane 1's product
    # (1+2**-12)**2 = 1 + 2**-11 + 2**-24 is a tie that rounds to even,
    # 1 + 2**-11, which cancels lane 0 exactly: mu = +0.0. A fused MAC
    # would keep the 2**-24.
    theta = np.array([-(1 + 2.0**-11), 1 + 2.0**-12, 0.0], dtype=np.float32)
    presyn_f = np.array([1.0, 1 + 2.0**-12], dtype=np.float32)
    fused = F32(float(theta[0]) * 1.0 + float(theta[1]) * float(presyn_f[1]))
    assert fused == F32(2.0**-24)
    zero = F32(0.0).tobytes()

    assert F32(stage_pred(theta.tolist(), presyn_f.tolist())).tobytes() == zero
    # with x = +0.0 the tick's eps is -mu (for a core of layer 1, whose
    # identity upper layer makes presyn_f the raw states)
    _, eps, _ = Case(
        NetworkConfig((1, 1)), 1, F32(0.0), theta.copy(), F32(0.0), F32(0.0),
        presyn_f, np.zeros(0, np.float32),
    ).tick()
    assert eps.tobytes() == zero

    # the oracle and the engine, on a 2-1 identity net whose bottom core
    # has these weights
    state = dense_zeros((2, 1))
    state.theta[1][0], state.states_in[1][:] = theta, presyn_f
    assert oracle_tick(state).eps[1].tobytes() == zero
    assert engine_tick(state).eps[1].tobytes() == zero


def test_mul_add_nan_inf_propagate():
    # PRED's MAC masks no special value: a NaN lane, an overflowing
    # product and inf + -inf all reach mu
    nan_lane = stage_pred([float("nan"), 0.0], [1.0])
    assert math.isnan(nan_lane)
    assert stage_pred([float(F32(3.0e38)), 0.0], [2.0]) == math.inf
    assert math.isnan(stage_pred([math.inf, -math.inf], [1.0]))


def test_round32_store_matches_numpy_at_the_range_ends():
    # core.py rounds each result by storing it into an array('f') item:
    # past the range to inf, the midpoint above the largest binary32 to
    # inf (the tie goes to even), below half the least subnormal to a
    # zero of the operand's sign, as numpy's binary32 cast does
    cases = {1e39: "inf", 2.0**128 - 2.0**103: "inf", 1e-46: "0.0", -1e-46: "-0.0"}
    with np.errstate(over="ignore"):
        for v, want in cases.items():
            got = F32(round32(v)).tobytes()
            assert got == F32(v).tobytes() == F32(want).tobytes(), v


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
    assert ACTIVATIONS_VEC[kind](f32(x))[0] == F32(expected)


@pytest.mark.parametrize(
    "kind,x,expected",
    [
        ("identity", 7.0, 1.0),
        ("relu", 0.0, 0.0),  # fixed subgradient at the kink
        ("relu", -1e-30, 0.0),
        ("relu", 1e-30, 1.0),
        ("tanh", 0.0, 1.0),
        ("tanh", 20.0, 0.0),  # tanh(20) rounds to 1.0 in binary64
    ],
)
def test_derivative_values(kind, x, expected):
    # the vector table, and the engine's own scalar f' where it has one
    assert DERIVATIVES_VEC[kind](f32(x))[0] == F32(expected)
    if kind == TANH:
        assert network._tanh_derivative(F32(x)) == F32(expected)


@given(x=finite32)
@settings(max_examples=200)
def test_tanh_bounded(x):
    assert abs(ACTIVATIONS_VEC["tanh"](f32(x))[0]) <= F32(1.0)


def test_tanh_matches_binary64_reference():
    xs = np.random.default_rng(7).uniform(-4, 4, size=50).astype(np.float32)
    for x, got in zip(xs, ACTIVATIONS_VEC["tanh"](xs)):
        assert got == F32(math.tanh(float(x)))


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
        got = float(DERIVATIVES_VEC[kind](f32(x))[0])
        assert abs(got - fd) < 1e-3, (kind, x, got, fd)
        if kind == TANH:  # the engine's own scalar f'
            got = float(network._tanh_derivative(F32(x)))
            assert abs(got - fd) < 1e-3, (kind, x, got, fd)
        checked += 1


def _vector_inputs(dtype):
    """Finite values in [-3, 3] and the special ones, in ``dtype``."""
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, tiny, -tiny]
    special += [3.4e38, -3.4e38]
    if dtype == np.float64:
        special += [5e-324, -5e-324, 1e308, -1e308]
    xs = np.random.default_rng(3).uniform(-3, 3, size=64)
    return np.concatenate([np.array(special), xs]).astype(dtype)


def test_vector_forms_match_scalar_bitwise():
    # every table, element by element, has the bytes of the reference's
    # binary64 equations rounded once to binary32, NaN payloads included;
    # so have the engine's own f (identity's is the operand itself) and
    # its scalar f' of tanh
    xs32, xs64 = _vector_inputs(np.float32), _vector_inputs(np.float64)
    for kind in ACTIVATION_KINDS:
        f, fprime = ACTIVATIONS_VEC[kind], DERIVATIVES_VEC[kind]
        engine_f = network._ACTIVATIONS.get(kind, lambda x: x)
        va, vd, ve = f(xs32), fprime(xs32), engine_f(xs32)
        assert va.dtype == vd.dtype == ve.dtype == np.float32
        for i, x in enumerate(xs32):
            want = activation32(kind, x).tobytes()
            assert va[i].tobytes() == want, (kind, x)
            assert ve[i].tobytes() == want, (kind, x)
            want = derivative32(kind, x).tobytes()
            assert vd[i].tobytes() == want, (kind, x)
            if kind == TANH:
                assert network._tanh_derivative(x).tobytes() == want, (kind, x)
        # binary64 keeps its dtype and follows the binary64 equations, as
        # the engine's energy reads it
        va, vd, ve = f(xs64), fprime(xs64), engine_f(xs64)
        assert va.dtype == vd.dtype == ve.dtype == np.float64
        for i, x in enumerate(xs64.tolist()):
            assert _same_value(va[i], activation64(kind, x)), (kind, x)
            assert _same_value(ve[i], activation64(kind, x)), (kind, x)
            assert _same_value(vd[i], derivative64(kind, x)), (kind, x)


def _same_value(a, b) -> bool:
    """Equal, or both NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


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


def test_is_finite_f32_ints_past_binary64_are_not_finite():
    # numpy rounds an int to binary64 first, so ints just below the
    # midpoint that round to it are not finite either
    limit = 2**128 - 2**103
    ints = [0, 2**64, limit - 2**75, limit - 2**74, limit - 1, limit, 10**400]
    for v in ints + [-v for v in ints]:
        want = abs(v) < 2**1024 and _numpy_finite_f32(v)
        assert is_finite_f32(v) == want, v


@given(st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=300)
def test_is_finite_f32_matches_numpy_rounding(v):
    assert is_finite_f32(v) == _numpy_finite_f32(v)
