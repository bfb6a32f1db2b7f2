"""Binary32 arithmetic contract and per-layer activation functions.

All datapath values are IEEE-754 binary32 (``np.float32``) with
round-to-nearest-even, which numpy guarantees for same-dtype operands.
Every arithmetic result is rounded to binary32 where it is produced;
NaN/Inf propagate and are detected downstream, never masked here. A value
is rounded once, when it enters the datapath or is computed, and not
again where it is read: re-rounding a binary32 value cannot change a bit,
it only costs a conversion call.

The MAC uses two roundings (multiply rounded, then add rounded) rather
than a fused single rounding, so the same sequence is reproducible in
any language. tanh is evaluated by the platform's binary64 ``math.tanh``
and then rounded once to binary32; this is the reference nonlinearity
(a synthesizable approximation would replace it wholesale).
"""

from __future__ import annotations

import math

import numpy as np

F32 = np.float32

IDENTITY = "identity"
RELU = "relu"
TANH = "tanh"

ACTIVATION_KINDS = (IDENTITY, RELU, TANH)

_ZERO = F32(0.0)
_ONE = F32(1.0)


# Smallest magnitude that rounds to infinity in binary32: halfway between
# the largest finite binary32 and 2**128, where the tie goes to even (2**128).
_F32_OVERFLOW = 2.0**128 - 2.0**103


def is_finite_f32(value) -> bool:
    """True when ``value`` is finite and stays finite rounded to binary32:
    the rule for every configured value that is cast to binary32."""
    return abs(float(value)) < _F32_OVERFLOW


def apply_activation(kind: str, x) -> np.float32:
    """Elementwise activation, result rounded to binary32."""
    x = F32(x)
    if kind == IDENTITY:
        return x
    if kind == RELU:
        return np.maximum(x, _ZERO)  # NaN propagates
    if kind == TANH:
        return F32(math.tanh(float(x)))
    raise ValueError(f"unknown activation kind: {kind!r}")


def _identity_derivative(x: np.float32) -> np.float32:
    return _ONE


def _relu_derivative(x: np.float32) -> np.float32:
    return _ONE if x > _ZERO else _ZERO


def _tanh_derivative(x: np.float32) -> np.float32:
    t = math.tanh(float(x))
    return F32(1.0 - t * t)


# kind -> f' of a binary32 operand: ``activation_derivative`` with the kind
# looked up once, by a caller that fixes it (the engine, per layer)
DERIVATIVES = {
    IDENTITY: _identity_derivative,
    RELU: _relu_derivative,
    TANH: _tanh_derivative,
}


def activation_derivative(kind: str, x) -> np.float32:
    """Derivative of ``apply_activation`` at x, rounded to binary32.

    relu uses the subgradient 0 at exactly x == 0 (fixed for determinism);
    tanh computes 1 - tanh(x)^2 in binary64 with a single final rounding.
    A binary32 ``x`` (every datapath operand) is used as is; anything else
    is rounded to binary32 first.
    """
    if kind not in DERIVATIVES:
        raise ValueError(f"unknown activation kind: {kind!r}")
    return DERIVATIVES[kind](x if type(x) is F32 else F32(x))


def activation64(kind: str, x: float) -> float:
    """Binary64 twin of ``apply_activation`` for oracles and teachers."""
    if kind == IDENTITY:
        return float(x)
    if kind == RELU:
        return float(x) if x > 0.0 else 0.0
    if kind == TANH:
        return math.tanh(float(x))
    raise ValueError(f"unknown activation kind: {kind!r}")


def derivative64(kind: str, x: float) -> float:
    """Binary64 twin of ``activation_derivative``."""
    if kind == IDENTITY:
        return 1.0
    if kind == RELU:
        return 1.0 if x > 0.0 else 0.0
    if kind == TANH:
        t = math.tanh(float(x))
        return 1.0 - t * t
    raise ValueError(f"unknown activation kind: {kind!r}")


def apply_activation_vec(kind: str, x: np.ndarray) -> np.ndarray:
    """Vector form, bit-identical per element to ``apply_activation``."""
    x = np.asarray(x, dtype=np.float32)
    if kind == IDENTITY:
        return x.copy()
    if kind == RELU:
        return np.maximum(x, _ZERO)
    if kind == TANH:
        # scalar math.tanh per element: immune to SIMD libm divergence; the
        # binary64 results are rounded to binary32 once, by np.array
        return np.array([math.tanh(v) for v in x.tolist()], dtype=np.float32)
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_derivative_vec(kind: str, x: np.ndarray) -> np.ndarray:
    """Vector form, bit-identical per element to ``activation_derivative``."""
    x = np.asarray(x, dtype=np.float32)
    if kind == IDENTITY:
        return np.ones_like(x)
    if kind == RELU:
        return np.where(x > 0, _ONE, _ZERO).astype(np.float32)
    if kind == TANH:
        # one math.tanh pass, as in apply_activation_vec; each binary64
        # 1 - t*t is rounded to binary32 once, by np.array
        return np.array(
            [1.0 - t * t for t in map(math.tanh, x.tolist())], dtype=np.float32
        )
    raise ValueError(f"unknown activation kind: {kind!r}")
