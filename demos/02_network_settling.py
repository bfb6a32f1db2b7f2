#!/usr/bin/env python3
"""Build a layered network, clamp its boundaries, and watch energy settle.

The first layer in layer_sizes is the input side, the last is the output
side. Predictions flow downward; error products flow back up through
registered buses, so every core only ever reads last tick's values.
"""

import numpy as np

from pcsub import NetworkConfig, build_network, clamp_layer
from pcsub.network import layer_wiring

cfg = NetworkConfig(
    layer_sizes=[2, 4, 3],
    activations=["identity", "relu", "identity"],
    alpha=0.0,  # inference only: no weight updates
    gamma=0.05,
    clamp_hard=True,
    seed=42,
    init_scale=0.5,
)
net = build_network(cfg)

# the cycle model depends on the wiring alone: 3N+M+4 per core, M+2 on top
report = net.tick()
print("per-core cycles per tick:")
for s, (n, n_pre, m_back, cycles) in enumerate(layer_wiring(cfg.layer_sizes)):
    print(f"  layer {s}: {n} cores x {cycles} cycles (N={n_pre}, M={m_back})")
print(f"network tick latency (slowest core): {report.network_cycles}\n")

# clamp input and output; the hidden layer settles between both constraints
net.reset_states()
clamp = {0: clamp_layer([0.8, -0.3]), 2: clamp_layer([0.2, -0.1, 0.5])}
print("tick  energy")
for t in range(60):
    net.tick(clamp)
    if t % 10 == 0 or t == 59:
        print(f"{t:4d}  {net.energy():.6f}")

snap = net.snapshot()
print(f"\nhidden states after settling: {snap.x[1]}")
print(f"hidden errors: {snap.eps[1]}")

# inference reads the free output instead of clamping it
net.reset_states()
for _ in range(100):
    net.tick({0: clamp_layer([0.8, -0.3])})
print(f"\nfree output after 100 inference ticks: {net.state.x[2]}")
