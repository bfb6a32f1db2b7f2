"""The benchmark's own expectations, written apart from the code they check.

Nothing here calls pcsub's cycle model, training loop or equivalence
suite. The cycle formula is copied from the paper's datapath description,
the training protocol is re-stated from the harness documentation, and
ticks are taken from the dense bit32 oracle instead of the per-core engine.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def latency_cycles(layer_sizes) -> int:
    """Network tick latency of the modelled datapath: the slowest core.

    A core with N presynaptic lanes and M incoming back products costs
    3N + M + 4 cycles; a topmost boundary core (no upper layer) costs M + 2.
    """
    sizes = list(layer_sizes)
    latency = 0
    for s in range(len(sizes)):
        m_back = sizes[s + 1] if s + 1 < len(sizes) else 0
        cost = 3 * sizes[s - 1] + m_back + 4 if s > 0 else m_back + 2
        latency = max(latency, cost)
    return latency


def protocol_ticks(n_samples: int, infer: int, learn: int, eval_ticks: int, epochs: int) -> dict:
    """Ticks per phase of one clamped training run with per-epoch evaluation
    (epoch 0 is the pre-training evaluation)."""
    return {
        "infer": n_samples * infer * epochs,
        "learn": n_samples * learn * epochs,
        "eval": n_samples * eval_ticks * (epochs + 1),
    }


def state_bytes(x, eps, theta) -> bytes:
    """Canonical little-endian binary32 bytes of per-layer x, eps and theta."""
    parts = []
    for xs, es, th in zip(x, eps, theta):
        for a in (xs, es, th):
            parts.append(np.ascontiguousarray(a, dtype="<f4").tobytes())
    return b"".join(parts)


def network_bytes(net) -> bytes:
    snap = net.snapshot()
    return state_bytes(snap.x, snap.eps, snap.theta)


def dense_bytes(state) -> bytes:
    return state_bytes(state.x, state.eps, state.theta)


def _quiescent(state):
    """The state after a per-sample reset: zero activity, errors and
    latches, weights kept."""
    sizes = state.layer_sizes
    return dataclasses.replace(
        state,
        x=[np.zeros(n, np.float32) for n in sizes],
        eps=[np.zeros(n, np.float32) for n in sizes],
        states_in=[np.zeros(sizes[s - 1] if s else 0, np.float32) for s in range(len(sizes))],
        back_in=[
            np.zeros((sizes[s + 1] if s + 1 < len(sizes) else 0, n), np.float32)
            for s, n in enumerate(sizes)
        ],
    )


def replay_training(pcsub, net, inputs, targets, cfg):
    """``(curve CSV bytes, final DenseState)`` that ``pcsub run`` must produce
    for ``cfg``, recomputed by ticking the dense bit32 oracle from ``net``'s
    weights.

    Protocol: epoch 0 evaluates before training. Each epoch visits the
    samples in order: reset (when configured), clamp input and target,
    ``infer_ticks`` ticks at alpha = 0, ``learn_ticks`` ticks at the
    configured alpha; then every sample is evaluated from a reset with only
    the input clamped, ``eval_ticks`` ticks at alpha = 0. The MSE sums the
    binary64 squared output errors in sample-major order.
    """
    oracle = pcsub.oracle
    signal = pcsub.core.ClampSignal
    last = len(cfg.layer_sizes) - 1

    def clamp_of(values):
        return [signal(True, float(v)) for v in values]

    def evaluate(state):
        total = 0.0
        for x, y in zip(inputs, targets):
            state = _quiescent(state)
            clamp = {0: clamp_of(x)}
            for _ in range(cfg.eval_ticks):
                state = oracle.oracle_tick(state, clamp, alpha=0.0)
            d = state.x[last].astype(np.float64) - y.astype(np.float64)
            total += float(d @ d)
        return total / (len(inputs) * targets.shape[1]), state

    state = oracle.DenseState.from_network(net)
    mse, state = evaluate(state)
    curve = [mse]
    for _ in range(cfg.epochs):
        for x, y in zip(inputs, targets):
            if cfg.reset_between_samples:
                state = _quiescent(state)
            clamp = {0: clamp_of(x), last: clamp_of(y)}
            for _ in range(cfg.infer_ticks):
                state = oracle.oracle_tick(state, clamp, alpha=0.0)
            for _ in range(cfg.learn_ticks):
                state = oracle.oracle_tick(state, clamp)
        mse, state = evaluate(state)
        curve.append(mse)
    rows = "".join(f"{i},{v:.6f}\n" for i, v in enumerate(curve))
    return ("epoch,mse\n" + rows).encode("ascii"), state
