"""Checkpoint serialization: bit-exact round trip of weights and states.

Layout: one ASCII header line ``PCSUB1 <L> <n_L> ... <n_0>`` (L is the
top layer index, sizes listed top to bottom), then raw little-endian
binary32 payload: all weights layer-major, row-major within a layer
(row = postsynaptic core, columns = presynaptic lanes then bias), then
all states layer-major. NaN payloads survive the round trip untouched.

Activities' companions (errors, bus latches) are transient per-tick
values and are not stored; a loaded network starts from quiescent
latches with the saved weights and states.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import CheckpointError
from .network import Network, NetworkConfig, build_network, layer_wiring

MAGIC = "PCSUB1"


def save_checkpoint(net: Network, path) -> None:
    sizes = net.cfg.layer_sizes
    header = " ".join([MAGIC, str(len(sizes) - 1)] + [str(n) for n in sizes])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for layer in net.layers:
            fh.write(layer.theta.astype("<f4").tobytes())
        for layer in net.layers:
            fh.write(layer.states().astype("<f4").tobytes())


def load_checkpoint(path, cfg: Optional[NetworkConfig] = None) -> Network:
    """Rebuild a network from a checkpoint.

    When ``cfg`` is given its layer sizes must match the file and its
    activations/step sizes are adopted; otherwise a default config
    (identity activations) with the stored dimensions is used.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"missing header line (expected magic {MAGIC!r})")
    try:
        tokens = blob[:nl].decode("ascii").split()
    except UnicodeDecodeError:
        raise CheckpointError(f"undecodable header (expected magic {MAGIC!r})")
    if not tokens or tokens[0] != MAGIC:
        raise CheckpointError(
            f"bad magic {tokens[0] if tokens else ''!r}, expected {MAGIC!r}"
        )
    try:
        top_index = int(tokens[1])
        sizes = tuple(int(t) for t in tokens[2:])
    except (IndexError, ValueError):
        raise CheckpointError("malformed header counts")
    if len(sizes) != top_index + 1 or len(sizes) < 2 or any(n < 1 for n in sizes):
        raise CheckpointError(f"inconsistent header dimensions {sizes}")

    if cfg is None:
        cfg = NetworkConfig(layer_sizes=sizes, init_scale=0.0)
    elif tuple(cfg.layer_sizes) != sizes:
        raise CheckpointError(
            f"checkpoint dimensions {sizes} do not match config {tuple(cfg.layer_sizes)}"
        )

    lanes = [n_presyn + 1 for _, n_presyn, _, _ in layer_wiring(sizes)]
    n_weights = sum(n * k for n, k in zip(sizes, lanes))
    n_states = sum(sizes)
    expected = nl + 1 + 4 * (n_weights + n_states)
    if len(blob) != expected:
        raise CheckpointError(
            f"payload is {len(blob) - nl - 1} bytes, expected {expected - nl - 1}"
        )

    payload = np.frombuffer(blob, dtype="<f4", offset=nl + 1)
    net = build_network(cfg)
    pos = 0
    for s, layer in enumerate(net.layers):
        w = payload[pos : pos + sizes[s] * lanes[s]].reshape(sizes[s], lanes[s])
        pos += sizes[s] * lanes[s]
        layer.theta[:] = w  # in place: the cores' rows stay views of it
    for s, layer in enumerate(net.layers):
        xs = payload[pos : pos + sizes[s]]
        pos += sizes[s]
        for i, core in enumerate(layer.cores):
            core.x = xs[i]
    return net
