"""One neural core: the six-stage tick schedule and the cycle model.

This module is the per-core reference of the tick. ``Network.tick`` does
not call it: the engine runs the same stage rules with its own code,
the lane-parallel stages a whole layer at a time, and the tests drive
``core_tick`` over a network's latches to check the engine bit for bit.
The cycle model (``tick_cycles``) and ``ClampSignal`` are the network's
too; ``CoreConfig`` configures this reference alone.

A core is a single scalar unit (i, layer). Its storage is row i of its
layer's register file: the activity x, the error eps and the (N+1,)
weight row theta, which ``Network.state`` keeps as per-layer binary32
arrays. ``core_tick`` is a stateless step over that row. Per tick it runs

    PRED -> ERR -> BACKSUM -> BACKVEC -> WUP -> STATE

on the row plus the inputs it is handed for the tick: the step sizes
alpha and gamma (supplied from outside, like the start pulse), f(presyn)
of the latched upper-layer states, the latched back column from the layer
below, and its clamp signal. It returns the new x and eps and the BACKVEC
products, and WUP updates theta in place. The bottom-up sum b is written
by BACKSUM and read by STATE in the same tick, so it is not stored.

All arithmetic is binary32 (see ``scalar32``). Every stage operand is
already binary32: a value is rounded once, where it enters the datapath
(network build, checkpoint load, the tick's read of a clamp observation,
the step-size rule) or where a stage produces it, and never again where
it is read. Operation order is pinned so an independent reference can
match bit-for-bit:

  PRED    mu = sum_j theta[j]*f(presyn[j]) + theta[N]*1, accumulated in
          ascending j from acc=0, bias lane last, one MAC per lane.
  ERR     eps = x_eff - mu.
  BACKSUM b = sum_k back[k], ascending k from 0 (plain adds).
  BACKVEC products theta[j]*eps for j < N (bias excluded), pre-update theta.
  WUP     coeff = alpha*eps (one rounding); theta[j] += coeff*f(presyn[j])
          as a MAC. Bias lane: coeff_b = (alpha*alpha_bias_scale)*eps,
          theta[N] += coeff_b, skipped when bias_frozen. alpha == 0 is a
          structural pass with no numeric writes, so weights stay
          bit-identical even under non-finite inputs.
  STATE   x += gamma*(f'(x_eff)*b - eps), each binary op rounded; under
          hard clamping the stored x is overwritten with x_obs instead.
          gamma == 0 leaves x bit-identical (same no-op rule as WUP).

Only PRED and BACKSUM have a lane order, so only they loop over lanes:
one scalar MAC or add per lane, ascending, which is the sequential
datapath itself. BACKVEC and WUP touch each lane independently and are
one binary32 array operation each, with the same roundings per lane
(WUP: multiply rounded, then add rounded).

The state a core emits downward is the x it held at the start of the
tick, which the network latches itself. A top core (no upper layer,
N = 0) runs no PRED, BACKVEC or WUP and emits no products.

Cycle cost per tick is 3N + M + 4 (N presyn lanes, M back inputs): N+1
for PRED, 1 for ERR, M for BACKSUM, N for BACKVEC, N+1 for WUP, 1 for
STATE. A topmost boundary core (no upper layer) drops PRED and WUP
entirely, leaving M + 2. The count depends on the shape alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .scalar32 import (
    ACTIVATION_KINDS,
    F32,
    activation_derivative,
)

_ZERO = F32(0.0)
_ONE = F32(1.0)
_NO_PRODUCTS = np.empty(0, dtype=np.float32)  # what a top core emits
_NO_PRODUCTS.flags.writeable = False


@dataclass
class CoreConfig:
    """Static per-core parameters (shared by all cores of a layer).

    ``activation`` is this core's own layer activation (used for f' in
    STATE). ``has_upper`` is False only for topmost boundary cores (N
    must then be 0).
    """

    n_presyn: int
    m_back: int
    activation: str = "identity"
    alpha_bias_scale: np.float32 = F32(1.0)
    bias_frozen: bool = False
    has_upper: bool = True

    def __post_init__(self):
        if self.n_presyn < 0 or self.m_back < 0:
            raise ConfigurationError(
                f"fan-ins must be non-negative, got N={self.n_presyn} M={self.m_back}"
            )
        if not self.has_upper and self.n_presyn != 0:
            raise ConfigurationError("a core without an upper layer must have N=0")
        if self.activation not in ACTIVATION_KINDS:
            raise ConfigurationError(f"unknown activation kind: {self.activation!r}")
        self.alpha_bias_scale = F32(self.alpha_bias_scale)


@dataclass(frozen=True)
class ClampSignal:
    """Per-neuron external observation; x_obs is read only when enabled."""

    x_set_en: bool = False
    x_obs: float = 0.0

    def __post_init__(self):
        # network._boolean's rule as one isinstance: clamp_layer builds a
        # signal per neuron per sample
        if not isinstance(self.x_set_en, (bool, np.bool_)):
            raise ConfigurationError(
                f"x_set_en must be a bool, got {self.x_set_en!r}"
            )


NO_CLAMP = ClampSignal()


def tick_cycles(n_presyn: int, m_back: int, has_upper: bool = True) -> int:
    """Per-tick cycle count of the sequential datapath."""
    if has_upper:
        return 3 * n_presyn + m_back + 4
    return m_back + 2


def stage_pred(theta, presyn_f) -> np.float32:
    """Prediction mu: MAC over the f(presyn) lanes ascending, bias lane last."""
    n = theta.shape[0] - 1
    acc = _ZERO
    for j in range(n):
        acc = theta[j] * presyn_f[j] + acc
    return theta[n] * _ONE + acc


def stage_err(x_eff, mu) -> np.float32:
    """eps = x_eff - mu on binary32 operands (one rounding)."""
    return x_eff - mu


def stage_backsum(back) -> np.float32:
    """b = sum of the M back products, ascending k from +0.0."""
    acc = _ZERO
    for v in np.asarray(back, dtype=np.float32):
        acc = acc + v
    return acc


def stage_backvec(theta, eps) -> np.ndarray:
    """Products theta[j]*eps for the upper layer, from pre-update theta."""
    n = theta.shape[0] - 1
    return theta[:n] * eps


def stage_wup(theta, presyn_f, eps, alpha, cfg: CoreConfig) -> None:
    """Hebbian update of the weight row in place; numeric no-op when
    alpha == 0."""
    if alpha == _ZERO:
        return
    n = theta.shape[0] - 1
    coeff = alpha * eps
    # lanes are independent: one array MAC, still two roundings per lane
    theta[:n] = coeff * presyn_f + theta[:n]
    if not cfg.bias_frozen:
        coeff_b = (alpha * cfg.alpha_bias_scale) * eps
        theta[n] = coeff_b * _ONE + theta[n]


def stage_state(
    x, x_eff, eps, b, clamp: ClampSignal, clamp_hard: bool, gamma,
    cfg: CoreConfig,
) -> np.float32:
    """Next x: the explicit Euler step, or the tick's rounded observation
    ``x_eff`` under a hard clamp."""
    if clamp_hard and clamp.x_set_en:
        return x_eff
    if gamma == _ZERO:
        return x
    fprime = activation_derivative(cfg.activation, x_eff)
    return x + gamma * (fprime * b - eps)


def core_tick(
    x: np.float32,
    theta: np.ndarray,
    cfg: CoreConfig,
    alpha: np.float32,
    gamma: np.float32,
    presyn_f,
    back,
    clamp: ClampSignal = NO_CLAMP,
    clamp_hard: bool = False,
):
    """Run the full six-stage schedule on one core's row; returns
    ``(x, eps, products)``: the next state, this tick's error and the
    BACKVEC products (theta[j]*eps, j < N) for the layer above.

    ``x`` is the state held at the start of the tick and ``theta`` the
    core's (N+1,) weight row, which WUP updates in place. ``alpha`` and
    ``gamma`` are the tick's binary32 step sizes, ``presyn_f`` holds
    f(presyn) of the N latched upper-layer states (a pure per-lane
    function, computed once per layer) and ``back`` the M latched products
    from the layer below. The clamp observation is the one value rounded
    to binary32 here. Run it under ``np.errstate(all="ignore")``, as the
    engine runs its own stages, so that an observation past the binary32
    range becomes inf without a warning.
    """
    x_eff = F32(clamp.x_obs) if clamp.x_set_en else x
    top = not cfg.has_upper  # a top core runs no PRED, BACKVEC or WUP
    mu = _ZERO if top else stage_pred(theta, presyn_f)
    eps = stage_err(x_eff, mu)
    b = stage_backsum(back)
    products = _NO_PRODUCTS if top else stage_backvec(theta, eps)
    if not top:
        stage_wup(theta, presyn_f, eps, alpha, cfg)
    x = stage_state(x, x_eff, eps, b, clamp, clamp_hard, gamma, cfg)
    return x, eps, products
