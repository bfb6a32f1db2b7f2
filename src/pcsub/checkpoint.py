"""Checkpoint serialization: bit-exact round trip of weights and states.

Layout: one ASCII header line ``PCSUB1 <L> <n_0> ... <n_L>`` (L is the
index of the bottom layer, sizes listed top to bottom, single spaces, no
sign, padding or leading zeros), then raw little-endian binary32 payload:
all weights layer-major, row-major within a layer (row = postsynaptic
core, columns = presynaptic lanes then bias), then all states
layer-major. NaN payloads survive the round trip untouched. The loader
accepts only the header ``save_checkpoint`` writes, so every file it
accepts is saved back byte for byte.

The file holds the theta and x lists of ``Network.state``. Activities'
companions (errors, bus latches) are transient per-tick values and are
not stored; a loaded network starts from quiescent latches with the
saved weights and states.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import CheckpointError
from .network import Network, NetworkConfig, build_network, layer_wiring

MAGIC = "PCSUB1"


def _header(sizes) -> str:
    return " ".join([MAGIC, str(len(sizes) - 1)] + [str(n) for n in sizes])


def save_checkpoint(net: Network, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(net.cfg.layer_sizes).encode("ascii") + b"\n")
        for arr in net.state.theta + net.state.x:
            fh.write(arr.astype("<f4").tobytes())


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
        last = int(tokens[1])  # index of the bottom layer
        sizes = tuple(int(t) for t in tokens[2:])
    except (IndexError, ValueError):
        raise CheckpointError("malformed header counts")
    if len(sizes) != last + 1 or len(sizes) < 2 or any(n < 1 for n in sizes):
        raise CheckpointError(f"inconsistent header dimensions {sizes}")
    canonical = _header(sizes)
    if blob[:nl] != canonical.encode("ascii"):
        raise CheckpointError(
            f"non-canonical header {blob[:nl]!r}, expected {canonical!r}"
        )

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

    # a read-only view of ``blob``; the state gets owned binary32 copies
    payload = np.frombuffer(blob, dtype="<f4", offset=nl + 1)
    net = build_network(cfg)
    theta, x, pos = [], [], 0
    for n, k in zip(sizes, lanes):
        theta.append(payload[pos : pos + n * k].reshape(n, k).astype(np.float32))
        pos += n * k
    for n in sizes:
        x.append(payload[pos : pos + n].astype(np.float32))
        pos += n
    net.state.theta, net.state.x = theta, x
    return net
