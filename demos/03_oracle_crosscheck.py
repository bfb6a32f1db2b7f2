#!/usr/bin/env python3
"""Cross-check the core-level simulator against the dense oracle.

The oracle is one dense step over whole layers, in the same pinned
accumulation order as the cores, run in one of two precisions. In bit32
mode it computes in binary32 and must match the per-core simulator bit
for bit. In f64 mode the same code, with the same activation tables,
computes in binary64 and bounds the rounding drift instead.
"""

import numpy as np

from pcsub import Network, NetworkConfig, clamp_layer, oracle_tick
from pcsub.oracle import compare_to_network, run_equivalence_suite

cfg = NetworkConfig(
    layer_sizes=[2, 4, 3],
    activations=["identity", "relu", "identity"],
    alpha=0.01,
    gamma=0.05,
    seed=7,
)
net = Network(cfg)
dense32 = net.snapshot()  # a copy of net.state, a DenseState
dense64 = net.snapshot()

clamp = {0: clamp_layer([0.4, -0.2]), 2: clamp_layer([0.1, 0.0, -0.5])}
for t in range(50):
    net.tick(clamp)
    dense32 = oracle_tick(dense32, clamp, mode="bit32")
    dense64 = oracle_tick(dense64, clamp, mode="f64")
    mismatch = compare_to_network(net, dense32)
    assert mismatch is None, f"tick {t}: {mismatch}"

print("50 ticks: simulator == bit32 oracle, bit for bit")

drift = max(
    float(np.max(np.abs(np.asarray(dense64.x[s]) - dense32.x[s].astype(np.float64))))
    for s in range(3)
)
print(f"max |f64 - bit32| state drift after 50 ticks: {drift:.2e} (bound 1e-4)")

print("\nrandomized sweep (20 networks, 20 ticks each):")
result = run_equivalence_suite(n_nets=20, n_ticks=20, seed=99)
print(f"  ok={result['ok']}, {result['nets']} nets, {result['ticks']} ticks compared")
