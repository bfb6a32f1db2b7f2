"""One neural core: local storage, six-stage tick schedule, cycle model.

A core is a single scalar unit (i, layer). Per tick it runs

    PRED -> ERR -> BACKSUM -> BACKVEC -> WUP -> STATE

entirely on locally stored values plus the inputs it is handed for the
tick: the step sizes alpha and gamma (supplied from outside, like the
start pulse), f(presyn) of the latched upper-layer states, the latched
back column from the layer below, and its clamp signal. All arithmetic
is binary32 (see ``scalar32``). Operation order is pinned so an
independent reference can match bit-for-bit:

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

``core_tick`` returns the BACKVEC products; the state the core emits
downward is the x it held at the start of the tick, which the network
latches before ticking.

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


@dataclass
class CoreState:
    """Mutable local storage: activity, error, weights (bias last), b."""

    x: np.float32
    eps: np.float32
    theta: np.ndarray  # (n_presyn + 1,) float32, index N is the bias lane
    b: np.float32 = _ZERO


@dataclass(frozen=True)
class ClampSignal:
    """Per-neuron external observation; x_obs is read only when enabled."""

    x_set_en: bool = False
    x_obs: float = 0.0


NO_CLAMP = ClampSignal()


def tick_cycles(n_presyn: int, m_back: int, has_upper: bool = True) -> int:
    """Per-tick cycle count of the sequential datapath."""
    if has_upper:
        return 3 * n_presyn + m_back + 4
    return m_back + 2


def core_new(cfg: CoreConfig, init_weights, init_x) -> CoreState:
    """Fresh core state; weights are copied, eps and b start at zero."""
    theta = np.array(init_weights, dtype=np.float32)
    if theta.shape != (cfg.n_presyn + 1,):
        raise ConfigurationError(
            f"need {cfg.n_presyn + 1} weights (incl. bias), got {theta.shape}"
        )
    return CoreState(x=F32(init_x), eps=_ZERO, theta=theta)


def effective_state(state: CoreState, clamp: ClampSignal) -> np.float32:
    """State used during the current tick: x_obs when clamped, else x."""
    return F32(clamp.x_obs) if clamp.x_set_en else state.x


def stage_pred(state: CoreState, presyn_f) -> np.float32:
    """Prediction mu: MAC over the f(presyn) lanes ascending, bias lane last."""
    theta = state.theta
    n = theta.shape[0] - 1
    acc = _ZERO
    for j in range(n):
        acc = theta[j] * presyn_f[j] + acc
    return theta[n] * _ONE + acc


def stage_err(state: CoreState, x_eff, mu) -> np.float32:
    state.eps = F32(x_eff) - F32(mu)
    return state.eps


def stage_backsum(state: CoreState, back) -> np.float32:
    acc = _ZERO
    for v in back:
        acc = acc + F32(v)
    state.b = acc
    return acc


def stage_backvec(state: CoreState) -> np.ndarray:
    """Products theta[j]*eps for the upper layer, from pre-update theta."""
    n = state.theta.shape[0] - 1
    return state.theta[:n] * state.eps


def stage_wup(state: CoreState, presyn_f, alpha, cfg: CoreConfig) -> None:
    """Hebbian weight update; numeric no-op when alpha == 0."""
    if alpha == _ZERO:
        return
    theta = state.theta
    eps = state.eps
    n = theta.shape[0] - 1
    coeff = alpha * eps
    for j in range(n):
        theta[j] = coeff * presyn_f[j] + theta[j]
    if not cfg.bias_frozen:
        coeff_b = (alpha * cfg.alpha_bias_scale) * eps
        theta[n] = coeff_b * _ONE + theta[n]


def stage_state(
    state: CoreState, x_eff, clamp: ClampSignal, clamp_hard: bool, gamma,
    cfg: CoreConfig,
) -> None:
    """Explicit Euler state step, or stored-state overwrite on hard clamp."""
    if clamp_hard and clamp.x_set_en:
        state.x = F32(clamp.x_obs)
        return
    if gamma == _ZERO:
        return
    fprime = activation_derivative(cfg.activation, x_eff)
    state.x = state.x + gamma * (fprime * state.b - state.eps)


def core_tick(
    state: CoreState,
    cfg: CoreConfig,
    alpha: np.float32,
    gamma: np.float32,
    presyn_f,
    back,
    clamp: ClampSignal = NO_CLAMP,
    clamp_hard: bool = False,
) -> np.ndarray:
    """Run the full six-stage schedule on this tick's inputs; returns the
    BACKVEC products (theta[j]*eps, j < N) for the layer above.

    ``alpha`` and ``gamma`` are the tick's binary32 step sizes,
    ``presyn_f`` holds f(presyn) of the N latched upper-layer states
    (a pure per-lane function, computed once per layer) and ``back`` the
    M latched products from the layer below.
    """
    x_eff = F32(clamp.x_obs) if clamp.x_set_en else state.x
    mu = stage_pred(state, presyn_f) if cfg.has_upper else _ZERO
    stage_err(state, x_eff, mu)
    stage_backsum(state, back)
    backvec = stage_backvec(state)
    if cfg.has_upper:
        stage_wup(state, presyn_f, alpha, cfg)
    stage_state(state, x_eff, clamp, clamp_hard, gamma, cfg)
    return backvec
