"""One neural core: the per-core reference of the six-stage tick.

``Network.tick`` does not call this module, and ``network`` imports
nothing from it: the engine runs the same stage rules with its own code,
the lane-parallel stages a whole layer at a time, and the tests drive
``core_tick`` over a network's latches to check the engine bit for bit.
Nor do they share arithmetic: the engine and the oracle compute in
numpy's binary32, this module in Python floats without numpy, so a fault
in either (a flushed subnormal, a fused multiply-add, a NaN rule) moves
one side only. Its clamp type (``ClampSignal``) is defined in ``rules``.

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
and f' as a function of one binary32 operand. Of the layer's
``NetworkConfig`` it reads ``clamp_hard``, ``bias_frozen`` and
``alpha_bias_scale``, which it rounds to binary32 as the engine does. A
core with s == 0 is a top core. N and M are the lengths of the row and
the back column it is handed, whatever the config's layer sizes.

All arithmetic is binary32. ``core_tick`` reads every operand, a
binary32 value, as a Python float; each +, - and x is done in binary64
and rounded once to binary32 by ``round32``, which gives the correctly
rounded binary32 result because 53 >= 2*24 + 2 (Figueroa 1995, "When is
double rounding innocuous?"). A value is rounded once, where it enters
the datapath (network build, checkpoint load, the build of a
``ClampSignal``, the step-size rule) or where a stage produces it, and
never again where it is read. Operation order is pinned so an
independent implementation can match bit-for-bit:

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

A MAC is two roundings, the product's and then the sum's; the bias
lane's product with 1.0 is exact, so its MAC is the add alone. Every
stage walks its lanes in ascending order: the sequential datapath itself.

The state a core emits downward is the x it held at the start of the
tick, which the network latches itself. A top core runs no PRED, BACKVEC
or WUP and emits no products.
"""

from __future__ import annotations

from array import array

from .rules import NO_CLAMP, ClampSignal

_SLOT = array("f", [0.0])  # storing a float here is a C cast to binary32


def round32(v: float) -> float:
    """``v`` rounded once to binary32 (to nearest, ties to even), as a
    Python float: past the binary32 range to a signed inf, below half
    the least subnormal to a signed zero."""
    _SLOT[0] = v
    return _SLOT[0]


def stage_pred(theta, presyn_f) -> float:
    """Prediction mu: MAC over the f(presyn) lanes ascending, bias lane last."""
    n = len(theta) - 1
    acc = 0.0
    for j in range(n):
        acc = round32(round32(theta[j] * presyn_f[j]) + acc)
    return round32(theta[n] + acc)


def stage_err(x_eff, mu) -> float:
    """eps = x_eff - mu on binary32 operands (one rounding)."""
    return round32(x_eff - mu)


def stage_backsum(back) -> float:
    """b = sum of the M back products, ascending k from +0.0."""
    acc = 0.0
    for v in back:
        acc = round32(acc + v)
    return acc


def stage_backvec(theta, eps) -> list:
    """Products theta[j]*eps for the upper layer, from pre-update theta."""
    return [round32(w * eps) for w in theta[:-1]]


def stage_wup(cfg, theta, presyn_f, eps, alpha) -> None:
    """Hebbian update of the weight row, a list, in place; numeric no-op
    when alpha == 0."""
    if alpha == 0.0:
        return
    n = len(theta) - 1
    coeff = round32(alpha * eps)
    for j in range(n):
        theta[j] = round32(round32(coeff * presyn_f[j]) + theta[j])
    if not cfg.bias_frozen:
        coeff_b = round32(round32(alpha * round32(cfg.alpha_bias_scale)) * eps)
        theta[n] = round32(coeff_b + theta[n])


def stage_state(cfg, fprime, x, x_eff, eps, b, clamp: ClampSignal, gamma) -> float:
    """Next x: the explicit Euler step with the layer's f' ``fprime``, read
    as a float, or the clamp's observation ``x_eff`` under a hard clamp."""
    if cfg.clamp_hard and clamp.x_set_en:
        return x_eff
    if gamma == 0.0:
        return x
    drive = round32(round32(float(fprime(x_eff)) * b) - eps)
    return round32(x + round32(gamma * drive))


def core_tick(
    cfg, s: int, x, theta, alpha, gamma, presyn_f, fprime, back,
    clamp: ClampSignal = NO_CLAMP,
):
    """Run the full six-stage schedule on one core of layer ``s`` under
    ``cfg``; returns ``(x, eps, products)`` as Python floats: the next
    state, this tick's error and the list of BACKVEC products for the
    layer above.

    ``x`` is the state held at the start of the tick and ``theta`` the
    core's (N+1,) weight row, into which WUP writes the lanes it updates
    item by item (none when alpha == 0). ``alpha`` and ``gamma`` are the
    tick's step sizes, ``presyn_f`` holds f(presyn) of the N latched
    upper-layer states, ``fprime`` maps a binary32 operand to the layer's
    binary32 f', and ``back`` holds the M latched products from below.
    Every operand, the clamp's observation too, is binary32, read with
    ``float()`` whatever its type; NaN and inf propagate.
    """
    x, alpha, gamma = float(x), float(alpha), float(gamma)
    row = [float(w) for w in theta]
    presyn_f = [float(v) for v in presyn_f]
    x_eff = float(clamp.x_obs) if clamp.x_set_en else x
    top = s == 0  # a top core runs no PRED, BACKVEC or WUP
    mu = 0.0 if top else stage_pred(row, presyn_f)
    eps = stage_err(x_eff, mu)
    b = stage_backsum([float(v) for v in back])
    products = [] if top else stage_backvec(row, eps)
    if not top and alpha != 0.0:
        stage_wup(cfg, row, presyn_f, eps, alpha)
        for j in range(len(row) - cfg.bias_frozen):  # a frozen bias keeps its bits
            theta[j] = row[j]
    x = stage_state(cfg, fprime, x, x_eff, eps, b, clamp, gamma)
    return x, eps, products
