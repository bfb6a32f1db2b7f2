"""Input rules: what may enter the datapath, and the exceptions raised.

The substrate takes its task only through parameters and a per-neuron
clamp, each value checked and rounded to binary32 once, where it enters.
Here is one rule per kind of input: it returns the value as the datapath
takes it, or raises ``ConfigurationError`` naming the key, for any
Python object. A value's consumer declares which rule checks it
(``NETWORK_RULES`` beside ``NetworkConfig``, ``HARNESS_RULES`` beside
``TrainProtocol``). Callers call a rule through the module, as
``rules.seed(key, value)``, so its short name shadows no field or local.

A ``ClampSignal`` per core is a tick's boundary condition. Its
observation enters the datapath when the signal is built: it is checked
and rounded to binary32 there, once, and 1e39 or a huge int becomes +inf
without a warning. A clamp map gives a layer a list or tuple of signals,
such as ``network.clamp_layer`` returns (the harness makes one per
sample and ticks it many times); ``check_clamp`` checks the map itself.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .scalar32 import ACTIVATION_KINDS, F32, IDENTITY

_ZERO = F32(0.0)
_INF = F32(np.inf)
_SEED_END = 1 << 64  # SplitMix64 keeps one u64 of state
_REAL = (int, float, np.integer, np.floating)

# Smallest magnitude that rounds to infinity in binary32: halfway between
# the largest finite binary32 and 2**128, where the tie goes to even (2**128).
_F32_OVERFLOW = 2.0**128 - 2.0**103


class ConfigurationError(ValueError):
    """Invalid sizes, shapes, or parameter values at construction time."""


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint file."""


class ConfigParseError(ValueError):
    """Config text failed validation; ``errors`` lists (line, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        msg = "; ".join(f"line {ln}: {m}" for ln, m in self.errors)
        super().__init__(msg or "invalid config")


def is_finite_f32(value) -> bool:
    """True when the real ``value`` is finite and stays finite rounded to
    binary32: the rule for every configured value that is cast to binary32.
    An int past the binary64 range is False, not an OverflowError."""
    if isinstance(value, int) and not -_F32_OVERFLOW < value < _F32_OVERFLOW:
        return False  # compared exactly, with no float() to overflow
    return abs(float(value)) < _F32_OVERFLOW


def _real_number(key: str, value):
    """``value`` once it is a Python or numpy real number, and not a bool:
    the one type rule of an observation, a step size and a scale."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise ConfigurationError(f"{key} must be a real number, got {value!r}")
    return value


def binary32(key: str, value, nonneg: bool = True) -> np.float32:
    """``value`` rounded to binary32, rejecting a non-real, NaN,
    infinities, binary32 overflow and (when ``nonneg``) negatives: the one
    rule for configured values and for per-tick step-size overrides. A
    binary32 value that is finite and >= 0 is returned as it is: a harness
    passes one binary32 zero to every tick of a phase."""
    if nonneg and type(value) is F32 and _ZERO <= value < _INF:
        return value
    if not is_finite_f32(_real_number(key, value)):
        raise ConfigurationError(f"{key} must be finite in binary32, got {value!r}")
    if nonneg and value < 0:
        raise ConfigurationError(f"{key} must be >= 0, got {value!r}")
    return F32(value)


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def integer(key: str, value, lo: int) -> int:
    """``value`` as an int, rejecting a bool, a non-integer (2.0 too) and a
    value below ``lo``: the one rule for sizes, seeds and tick counts."""
    if not _is_integer(value):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    if value < lo:
        raise ConfigurationError(f"{key} must be >= {lo}, got {value!r}")
    return int(value)


def boolean(key: str, value) -> bool:
    """``value`` as a bool, rejecting anything but a Python or numpy bool
    (the string 'false' is truthy): the one rule for on/off switches."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{key} must be a bool, got {value!r}")
    return bool(value)


def real(key: str, value, nonneg: bool = True) -> float:
    """``value`` as a float once ``binary32`` accepts it: the rule for a
    configured step size or scale, which a tick rounds to binary32."""
    binary32(key, value, nonneg)
    return float(value)


def seed(key: str, value) -> int:
    """A PRNG seed: an integer in [0, 2**64), so that no two seeds give
    the same stream."""
    value = integer(key, value, 0)
    if value >= _SEED_END:
        raise ConfigurationError(f"{key} must be < 2**64, got {value!r}")
    return value


def sizes(key: str, sizes, n_min: int, n_max: float = math.inf) -> tuple:
    """``sizes`` as a tuple of ints, once it is a list or tuple of
    ``n_min`` to ``n_max`` integers >= 1: the one rule for layer sizes and
    teacher dims."""
    if not isinstance(sizes, (list, tuple)) or not n_min <= len(sizes) <= n_max:
        count = n_min if n_max == n_min else f"{n_min} or more"
        raise ConfigurationError(
            f"{key} must be a list or tuple of {count} sizes, got {sizes!r}"
        )
    return tuple(integer(key, n, 1) for n in sizes)


def choice(key: str, value, choices):
    """``value`` once it is one of the strings ``choices``: the one rule for
    a named kind, mode or experiment. Any other object, a list or an array
    too, is unknown."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigurationError(
            f"unknown {key}: {value!r}; choose from {', '.join(choices)}"
        )
    return value


def activations(kinds, n_layers: int) -> tuple:
    """One known activation kind per layer, in a list or tuple; None is
    identity everywhere."""
    if kinds is None:
        return (IDENTITY,) * n_layers
    if not isinstance(kinds, (list, tuple)) or len(kinds) != n_layers:
        raise ConfigurationError(
            f"activations must be a list or tuple of {n_layers} kinds, got {kinds!r}"
        )
    return tuple(choice("activation kind", kind, ACTIVATION_KINDS) for kind in kinds)


def _observation(value) -> np.float32:
    """A real ``value`` rounded to binary32: NaN stays NaN, and a magnitude
    past the binary32 range, 1e39 or a huge int, becomes a signed infinity
    without a warning."""
    if is_finite_f32(value) or value != value:
        return F32(value)
    return _INF if value > 0 else -_INF


@dataclass(frozen=True)
class ClampSignal:
    """Per-neuron external observation; x_obs is read only when enabled.

    x_obs enters the datapath here: any real number but a bool is stored
    rounded to binary32, once, so a tick reads it as it is. x_set_en is
    stored as the bool its rule returns."""

    x_set_en: bool = False
    x_obs: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x_set_en", boolean("x_set_en", self.x_set_en))
        x_obs = _observation(_real_number("x_obs", self.x_obs))
        object.__setattr__(self, "x_obs", x_obs)


NO_CLAMP = ClampSignal()

ClampMap = dict[int, Sequence[ClampSignal]]


def check_clamp(clamp: Optional[ClampMap], sizes) -> ClampMap:
    """``clamp``, or an empty map for None, once it is a mapping whose every
    key is a layer index (a Python or numpy integer, not a bool, in [0,
    layers)) and whose every layer is a list or tuple of one
    ``ClampSignal`` per core: the one clamp rule of ``Network.tick`` and
    ``oracle_tick``, applied before either changes anything. Each signal
    checked its own fields when it was built."""
    if clamp is None:
        return {}
    # the concrete types first: an ABC isinstance costs about five times as
    # much, and this check runs on every clamped tick
    if type(clamp) is not dict and not isinstance(clamp, Mapping):
        raise ConfigurationError(
            f"clamp must map layer indices to signals, got {clamp!r}"
        )
    for s, signals in clamp.items():
        if type(s) is not int and not _is_integer(s):
            raise ConfigurationError(f"clamp key must be a layer index, got {s!r}")
        if s < 0 or s >= len(sizes):
            raise ConfigurationError(f"clamp for nonexistent layer {s}")
        # a concrete type check: an ABC isinstance costs ten times as much,
        # and this check runs on every layer of every clamped tick
        if not isinstance(signals, (list, tuple)):
            raise ConfigurationError(
                f"layer {s} clamp must be a sequence of ClampSignals, got {signals!r}"
            )
        if len(signals) != sizes[s]:
            raise ConfigurationError(
                f"layer {s} clamp has {len(signals)} signals, expected {sizes[s]}"
            )
        for signal in signals:
            if not isinstance(signal, ClampSignal):
                raise ConfigurationError(
                    f"layer {s} clamp entries must be ClampSignals, got {signal!r}"
                )
    return clamp
