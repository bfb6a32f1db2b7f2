"""Binary32 arithmetic contract and per-layer activation functions.

All datapath values are IEEE-754 binary32 (``np.float32``) with
round-to-nearest-even, which numpy guarantees for same-dtype operands;
``core`` gets the same bits from Python floats, rounded once per result.
Every arithmetic result is rounded to binary32 where it is produced;
NaN/Inf propagate and are detected downstream, never masked here. A value
is rounded once, when it enters the datapath or is computed, and not
again where it is read: re-rounding a binary32 value cannot change a bit,
it only costs a conversion call. The rules for what may enter,
``is_finite_f32`` among them, are in ``rules``; this module holds only
the arithmetic and the activations.

The MAC uses two roundings (multiply rounded, then add rounded) rather
than a fused single rounding, so the same sequence is reproducible in
any language. tanh is evaluated by the platform's binary64 ``math.tanh``
and then rounded once to binary32; this is the reference nonlinearity
(a synthesizable approximation would replace it wholesale).

Each activation's f and f' are written once here, as vector forms in the
per-kind tables ``ACTIVATIONS_VEC`` and ``DERIVATIVES_VEC``, looked up
once by a caller that fixes the kind. They keep their input's dtype, so
the same entry serves the oracle's binary32 and binary64 modes and the
teacher. The engine writes its own f and f' (``network``), and
``core.core_tick`` takes both from its caller.
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


def _relu_vec(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, _ZERO)  # keeps x's dtype; NaN propagates


def _tanh_vec(x: np.ndarray) -> np.ndarray:
    # scalar math.tanh per element: immune to SIMD libm divergence; the
    # binary64 results are rounded to x's dtype once, by np.array
    return np.array([math.tanh(v) for v in x.tolist()], dtype=x.dtype)


# kind -> f of a vector, into a new array of its dtype: identity copies,
# relu keeps a NaN and gives +0.0 for -0.0 and negatives, tanh is binary64
# math.tanh rounded once. Looked up once per layer.
ACTIVATIONS_VEC = {
    IDENTITY: np.ndarray.copy,
    RELU: _relu_vec,
    TANH: _tanh_vec,
}


def _relu_derivative_vec(x: np.ndarray) -> np.ndarray:
    # the comparison writes 1.0/0.0 straight into one new array of x's
    # dtype: the subgradient 0 at exactly 0, and a NaN compares false, so
    # its f' is 0 too
    return np.greater(x, _ZERO, out=np.empty_like(x))


def _tanh_derivative_vec(x: np.ndarray) -> np.ndarray:
    # one math.tanh pass, as in _tanh_vec; each binary64 1 - t*t is rounded
    # to x's dtype once, by np.array
    return np.array([1.0 - t * t for t in map(math.tanh, x.tolist())], dtype=x.dtype)


# kind -> f' of a vector, into a new array of its dtype, in either precision
# as ``ACTIVATIONS_VEC`` is. Identity's f' is 1 everywhere; a caller may
# skip it, since f' * b is then b.
DERIVATIVES_VEC = {
    IDENTITY: np.ones_like,
    RELU: _relu_derivative_vec,
    TANH: _tanh_derivative_vec,
}
