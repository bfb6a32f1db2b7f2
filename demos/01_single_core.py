#!/usr/bin/env python3
"""Walk one neural core through its six-stage tick, stage by stage.

A core is a single scalar neuron: it stores its activity x, its
prediction error eps, and one weight per presynaptic lane plus a bias
lane. Everything below is binary32, exactly what the network scheduler
runs.
"""

import numpy as np

from pcsub import ClampSignal, CoreConfig, core_new, core_tick, tick_cycles
from pcsub.core import (
    effective_state,
    stage_backsum,
    stage_backvec,
    stage_err,
    stage_pred,
    stage_state,
    stage_wup,
)
from pcsub.scalar32 import apply_activation_vec

# a tanh core with 2 presynaptic inputs and 3 incoming back-error products
cfg = CoreConfig(n_presyn=2, m_back=3, activation="tanh")
core = core_new(cfg, init_weights=[0.5, -1.0, 0.25], init_x=1.0)
print(f"initial: x={core.x}, theta={core.theta}")

# the step sizes arrive from outside, like the start pulse
alpha, gamma = np.float32(0.1), np.float32(0.05)
presyn = np.array([2.0, 3.0], dtype=np.float32)  # raw upper-layer states
presyn_f = apply_activation_vec("relu", presyn)  # the upper layer's f, per lane
back = np.array([0.1, -0.3, 0.05], dtype=np.float32)  # theta*eps products
clamp = ClampSignal(x_set_en=False)

# PRED: mu = 0.5*relu(2) - 1.0*relu(3) + 0.25 (bias lane last)
x_eff = effective_state(core, clamp)
mu = stage_pred(core, presyn_f)
print(f"PRED    mu = {mu}")

# ERR: eps = x_eff - mu
eps = stage_err(core, x_eff, mu)
print(f"ERR     eps = {eps}")

# BACKSUM: b = sum of the products arriving from the layer below
b = stage_backsum(core, back)
print(f"BACKSUM b = {b}")

# BACKVEC: products theta_j * eps emitted to the layer above (no bias)
print(f"BACKVEC -> {stage_backvec(core)}")

# WUP: theta_j += alpha * eps * relu(presyn_j); bias moves by alpha*eps
stage_wup(core, presyn_f, alpha, cfg)
print(f"WUP     theta = {core.theta}")

# STATE: x += gamma * (tanh'(x_eff) * b - eps)
stage_state(core, x_eff, clamp, False, gamma, cfg)
print(f"STATE   x = {core.x}")

# the same thing as one call, which returns the BACKVEC products; the
# state emitted downward is the one held before the tick
core2 = core_new(cfg, init_weights=[0.5, -1.0, 0.25], init_x=1.0)
backvec = core_tick(core2, cfg, alpha, gamma, presyn_f, back, clamp)
print(f"\ncore_tick: backvec={backvec}, eps={core2.eps}, x={core2.x}")
assert core2.x == core.x and (core2.theta == core.theta).all()

# the cycle count follows the sequential-MAC cost model and the shape alone
cycles = tick_cycles(cfg.n_presyn, cfg.m_back)
print(f"cycles = 3N + M + 4 = {cycles} (N=2 lanes, M=3 back inputs)")

# clamping: soft affects the tick's computation, hard also overwrites x
core3 = core_new(cfg, init_weights=[0.5, -1.0, 0.25], init_x=1.0)
core_tick(
    core3, cfg, alpha, gamma, presyn_f, back, ClampSignal(True, 0.7), clamp_hard=True
)
print(f"\nhard clamp to 0.7: eps={core3.eps} (from 0.7), stored x={core3.x}")
