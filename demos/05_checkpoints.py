#!/usr/bin/env python3
"""Save a network to the binary checkpoint format and restore it bit-exactly.

Format: one ASCII header line ``PCSUB1 <L> <n_0> ... <n_L>`` (L is the
index of the bottom layer, sizes top to bottom), then raw little-endian
binary32 weights (layer-major, row-major, bias column last), then all
states layer-major.
"""

import tempfile
from pathlib import Path

from pcsub import (
    Network,
    NetworkConfig,
    clamp_layer,
    load_checkpoint,
    save_checkpoint,
)

cfg = NetworkConfig(
    layer_sizes=[2, 4, 3],
    activations=["identity", "relu", "identity"],
    alpha=0.01,
    gamma=0.1,
    seed=9,
)
net = Network(cfg)
for _ in range(25):
    net.tick({0: clamp_layer([0.6, -0.2])})

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trained.ckpt"
    save_checkpoint(net, path)
    blob = path.read_bytes()
    header = blob.split(b"\n", 1)[0].decode()
    print(f"checkpoint: {len(blob)} bytes, header {header!r}")

    restored = load_checkpoint(path, cfg)
    same = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(
            net.state.theta + net.state.x, restored.state.theta + restored.state.x
        )
    )
    print(f"weights and states bit-identical after reload: {same}")

    # transient per-tick values (errors, bus latches) are not stored, so a
    # restored network starts from quiescent latches; zero the original's
    # transients too and both evolve identically from here
    saved_x = net.state.x
    net.reset_states()
    net.state.x = saved_x
    net.tick({0: clamp_layer([0.6, -0.2])})
    restored.tick({0: clamp_layer([0.6, -0.2])})
    print(
        "next-tick states equal:",
        all(
            a.tobytes() == b.tobytes()
            for a, b in zip(net.state.x, restored.state.x)
        ),
    )
