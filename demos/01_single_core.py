#!/usr/bin/env python3
"""Walk one neural core through its six-stage tick, stage by stage.

A core is a single scalar neuron: its activity x, its prediction error
eps, and one weight per presynaptic lane plus a bias lane. In a network
these are row i of its layer's arrays; a core tick is a stateless step
over that row, configured by the network's ``NetworkConfig`` and the
core's layer index. The caller applies the activations: it hands the
core f of the upper layer's states and f' of the core's own layer, here
tanh's, 1 - tanh(x)^2 in binary64 rounded once. Everything below is
binary32 held in Python floats: each value is rounded to binary32 by
``round32`` where it enters, and each stage rounds every result once, so
the bits are those the network scheduler computes in numpy.
"""

import math
from dataclasses import replace

from pcsub import ClampSignal, NetworkConfig, core_tick, tick_cycles
from pcsub.core import (
    round32,
    stage_backsum,
    stage_backvec,
    stage_err,
    stage_pred,
    stage_state,
    stage_wup,
)

# a tanh core in the hidden layer (s = 1) of a relu-tanh-identity net,
# with 2 presynaptic inputs and 3 incoming back-error products
cfg = NetworkConfig((2, 1, 3), ("relu", "tanh", "identity"), clamp_hard=False)
s = 1
x = 1.0
init_theta = [0.5, -1.0, 0.25]  # bias lane last
theta = list(init_theta)
print(f"initial: x={x}, theta={theta}")

# the step sizes arrive from outside, like the start pulse
alpha, gamma = round32(0.1), round32(0.05)
presyn = [2.0, 3.0]  # raw upper-layer states
presyn_f = [max(v, 0.0) for v in presyn]  # relu, per lane


def fprime(v):  # the layer's f', tanh'(v), of one binary32 operand
    t = math.tanh(v)
    return round32(1.0 - t * t)


back = [round32(v) for v in (0.1, -0.3, 0.05)]  # theta*eps products
clamp = ClampSignal(x_set_en=False)

# the tick reads the observation when clamped, else the stored x
x_eff = float(clamp.x_obs) if clamp.x_set_en else x

# PRED: mu = 0.5*relu(2) - 1.0*relu(3) + 0.25 (bias lane last)
mu = stage_pred(theta, presyn_f)
print(f"PRED    mu = {mu}")

# ERR: eps = x_eff - mu
eps = stage_err(x_eff, mu)
print(f"ERR     eps = {eps}")

# BACKSUM: b = sum of the products arriving from the layer below
b = stage_backsum(back)
print(f"BACKSUM b = {b}")

# BACKVEC: products theta_j * eps emitted to the layer above (no bias)
print(f"BACKVEC -> {stage_backvec(theta, eps)}")

# WUP: theta_j += alpha * eps * relu(presyn_j); bias moves by alpha*eps
stage_wup(cfg, theta, presyn_f, eps, alpha)
print(f"WUP     theta = {theta}")

# STATE: x += gamma * (tanh'(x_eff) * b - eps)
x_next = stage_state(cfg, fprime, x, x_eff, eps, b, clamp, gamma)
print(f"STATE   x = {x_next}")

# the same thing as one call, which returns the next x, eps and the
# BACKVEC products and updates its weight row in place; the state emitted
# downward is the one held before the tick
theta2 = list(init_theta)
x2, eps2, backvec = core_tick(
    cfg, s, x, theta2, alpha, gamma, presyn_f, fprime, back, clamp
)
print(f"\ncore_tick: backvec={backvec}, eps={eps2}, x={x2}")
assert x2 == x_next and theta2 == theta

# the cycle count follows the sequential-MAC cost model and the shape alone
cycles = tick_cycles(len(presyn), len(back))
print(f"cycles = 3N + M + 4 = {cycles} (N=2 lanes, M=3 back inputs)")

# clamping: soft affects the tick's computation, hard also overwrites x
x3, eps3, _ = core_tick(
    replace(cfg, clamp_hard=True), s, x, list(init_theta), alpha, gamma,
    presyn_f, fprime, back, ClampSignal(True, 0.7),
)
print(f"\nhard clamp to 0.7: eps={eps3} (from 0.7), stored x={x3}")
