"""One neural core: the per-core reference of the six-stage tick.

``Network.tick`` does not call this module, and ``network`` imports
nothing from it: the engine runs the same stage rules with its own code,
the lane-parallel stages a whole layer at a time, and the tests drive
``core_tick`` over a network's latches to check the engine bit for bit.
Its config type (``NetworkConfig``) and the cycle model are the
network's; its clamp type (``ClampSignal``) is defined in ``rules``,
with every other input rule.

A core is a single scalar unit (i, layer s). Its storage is row i of its
layer's register file: the activity x, the error eps and the (N+1,)
weight row theta, which ``Network.state`` keeps as per-layer binary32
arrays. ``core_tick`` is a stateless step over that row. Per tick it runs

    PRED -> ERR -> BACKSUM -> BACKVEC -> WUP -> STATE

on the row plus the inputs it is handed for the tick: the step sizes
alpha and gamma (supplied from outside, like the start pulse), f(presyn)
of the latched upper-layer states, the layer's f', the latched back
column from the layer below, and its clamp signal. It returns the new x
and eps and the BACKVEC products, and WUP updates theta in place. The
bottom-up sum b is written by BACKSUM and read by STATE in the same tick,
so it is not stored.

The caller applies the activations: it hands over f(presyn) as values
and f' as a function of one binary32 operand, so this module holds no
activation code. Of the layer's ``NetworkConfig`` it reads
``clamp_hard``, ``bias_frozen`` and ``alpha_bias_scale``, which it rounds
to binary32 as the engine does. A core with s == 0 is a top core. N and M
are the lengths of the row and the back column it is handed, so any
(N, M) can be ticked, whatever the config's layer sizes.

All arithmetic is binary32 (see ``scalar32``). Every stage operand is
already binary32: a value is rounded once, where it enters the datapath
(network build, checkpoint load, the build of a ``ClampSignal``, the
step-size rule) or where a stage produces it, and never again where
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
tick, which the network latches itself. A top core runs no PRED, BACKVEC
or WUP and emits no products.
"""

from __future__ import annotations

import numpy as np

from .network import NetworkConfig
from .rules import NO_CLAMP, ClampSignal
from .scalar32 import F32

_ZERO = F32(0.0)
_ONE = F32(1.0)
_NO_PRODUCTS = np.empty(0, dtype=np.float32)  # what a top core emits
_NO_PRODUCTS.flags.writeable = False


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


def stage_wup(cfg: NetworkConfig, theta, presyn_f, eps, alpha) -> None:
    """Hebbian update of the weight row in place; numeric no-op when
    alpha == 0."""
    if alpha == _ZERO:
        return
    n = theta.shape[0] - 1
    coeff = alpha * eps
    # lanes are independent: one array MAC, still two roundings per lane
    theta[:n] = coeff * presyn_f + theta[:n]
    if not cfg.bias_frozen:
        coeff_b = (alpha * F32(cfg.alpha_bias_scale)) * eps
        theta[n] = coeff_b * _ONE + theta[n]


def stage_state(
    cfg: NetworkConfig, fprime, x, x_eff, eps, b, clamp: ClampSignal, gamma
) -> np.float32:
    """Next x: the explicit Euler step with the layer's f' ``fprime``, or
    the clamp's binary32 observation ``x_eff`` under a hard clamp."""
    if cfg.clamp_hard and clamp.x_set_en:
        return x_eff
    if gamma == _ZERO:
        return x
    return x + gamma * (fprime(x_eff) * b - eps)


def core_tick(
    cfg: NetworkConfig,
    s: int,
    x: np.float32,
    theta: np.ndarray,
    alpha: np.float32,
    gamma: np.float32,
    presyn_f,
    fprime,
    back,
    clamp: ClampSignal = NO_CLAMP,
):
    """Run the full six-stage schedule on one core of layer ``s`` under
    ``cfg``; returns ``(x, eps, products)``: the next state, this tick's
    error and the BACKVEC products (theta[j]*eps, j < N) for the layer
    above.

    ``x`` is the state held at the start of the tick and ``theta`` the
    core's (N+1,) weight row, which WUP updates in place. ``alpha`` and
    ``gamma`` are the tick's binary32 step sizes, ``presyn_f`` holds
    f(presyn) of the N latched upper-layer states (a pure per-lane
    function, computed once per layer), ``fprime`` maps a binary32 operand
    to the layer's f' rounded to binary32, and ``back`` holds the M latched
    products from the layer below. The clamp observation is read as the
    binary32 value its signal holds; ``alpha_bias_scale`` is rounded to
    binary32 here. Run it under ``np.errstate(all="ignore")``, as the engine runs
    its own stages, so that NaN and infinite operands propagate without a
    warning.
    """
    x_eff = clamp.x_obs if clamp.x_set_en else x
    top = s == 0  # a top core runs no PRED, BACKVEC or WUP
    mu = _ZERO if top else stage_pred(theta, presyn_f)
    eps = stage_err(x_eff, mu)
    b = stage_backsum(back)
    products = _NO_PRODUCTS if top else stage_backvec(theta, eps)
    if not top:
        stage_wup(cfg, theta, presyn_f, eps, alpha)
    x = stage_state(cfg, fprime, x, x_eff, eps, b, clamp, gamma)
    return x, eps, products
