"""Dense reference implementation of one network tick.

Two modes:

* ``bit32`` replicates the core datapath's exact accumulation order with
  elementwise binary32 numpy operations (vectorized over the cores of a
  layer, sequential over lanes), so its results must match the core-level
  simulator bit for bit.
* ``f64`` evaluates the same update in binary64 throughout (dense dot
  products); it bounds the simulator's rounding drift rather than its
  bit pattern.

Both modes mirror the simulator's registered communication: predictions
read states latched one tick ago, bottom-up sums read products latched
one tick ago, and the latches are refreshed from this tick's values at
the end. A Gauss-Seidel sweep with fresh errors would be a different
dynamical system and is deliberately not implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ClampSignal
from .errors import ConfigurationError
from .network import ClampMap, Network, NetworkConfig, build_network, layer_wiring
from .scalar32 import (
    ACTIVATION_KINDS,
    F32,
    activation64,
    activation_derivative_vec,
    apply_activation_vec,
    derivative64,
)

_ZERO = F32(0.0)
_ONE = F32(1.0)


@dataclass
class DenseState:
    """Value snapshot of a whole network, including the bus latches."""

    layer_sizes: tuple
    activations: tuple
    x: list  # per-layer (n,) float32
    eps: list
    theta: list  # per-layer (n, N+1) float32, bias column last
    states_in: list  # per-layer (N,) latched upper states
    back_in: list  # per-layer (M, n) latched products
    alpha: np.float32 = _ZERO
    gamma: np.float32 = _ZERO
    clamp_hard: bool = True
    alpha_bias_scale: np.float32 = _ONE
    bias_frozen: bool = False

    def __post_init__(self):
        for s, (n, n_pre, m_back, _) in enumerate(layer_wiring(self.layer_sizes)):
            if self.x[s].shape != (n,) or self.eps[s].shape != (n,):
                raise ConfigurationError(f"layer {s}: state shape mismatch")
            if self.theta[s].shape != (n, n_pre + 1):
                raise ConfigurationError(f"layer {s}: weight shape mismatch")
            if self.states_in[s].shape != (n_pre,):
                raise ConfigurationError(f"layer {s}: states_in shape mismatch")
            if self.back_in[s].shape != (m_back, n):
                raise ConfigurationError(f"layer {s}: back_in shape mismatch")

    @classmethod
    def from_network(cls, net: Network) -> "DenseState":
        snap = net.snapshot()
        return cls(
            layer_sizes=net.cfg.layer_sizes,
            activations=net.cfg.activations,
            x=snap.x,
            eps=snap.eps,
            theta=snap.theta,
            states_in=snap.states_in,
            back_in=snap.back_in,
            alpha=F32(net.cfg.alpha),
            gamma=F32(net.cfg.gamma),
            clamp_hard=net.cfg.clamp_hard,
            alpha_bias_scale=F32(net.cfg.alpha_bias_scale),
            bias_frozen=net.cfg.bias_frozen,
        )


def _clamp_arrays(state: DenseState, clamp: Optional[ClampMap], s: int):
    n = state.layer_sizes[s]
    if clamp is None or s not in clamp:
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.float32)
    signals = clamp[s]
    if len(signals) != n:
        raise ConfigurationError(f"layer {s}: clamp length mismatch")
    en = np.array([sig.x_set_en for sig in signals], dtype=bool)
    obs = np.array([F32(sig.x_obs) for sig in signals], dtype=np.float32)
    return en, obs


def oracle_tick(
    state: DenseState,
    clamp: Optional[ClampMap] = None,
    mode: str = "bit32",
    alpha: Optional[float] = None,
    gamma: Optional[float] = None,
) -> DenseState:
    """Pure function: one tick applied to a dense snapshot."""
    if mode not in ("bit32", "f64"):
        raise ConfigurationError(f"unknown oracle mode: {mode!r}")
    av = F32(state.alpha if alpha is None else alpha)
    gv = F32(state.gamma if gamma is None else gamma)
    with np.errstate(all="ignore"):
        if mode == "bit32":
            return _tick_bit32(state, clamp, av, gv)
        return _tick_f64(state, clamp, av, gv)


def _tick_bit32(state: DenseState, clamp, alpha, gamma) -> DenseState:
    sizes = state.layer_sizes
    last = len(sizes) - 1
    new_x, new_eps, new_theta, new_backvec = [], [], [], []

    for s, n in enumerate(sizes):
        x = state.x[s]
        theta = state.theta[s]
        en, obs = _clamp_arrays(state, clamp, s)
        x_eff = np.where(en, obs, x)

        if s == 0:
            mu = np.zeros(n, dtype=np.float32)
            fpre = None
        else:
            n_pre = sizes[s - 1]
            fpre = apply_activation_vec(state.activations[s - 1], state.states_in[s])
            acc = np.zeros(n, dtype=np.float32)
            for j in range(n_pre):
                acc = theta[:, j] * fpre[j] + acc
            mu = theta[:, n_pre] * _ONE + acc

        eps = x_eff - mu

        b = np.zeros(n, dtype=np.float32)
        for k in range(state.back_in[s].shape[0]):
            b = b + state.back_in[s][k, :]

        backvec = theta[:, :-1] * eps[:, None] if s > 0 else theta[:, :0].copy()

        if s > 0 and alpha != _ZERO:
            th = theta.copy()
            coeff = alpha * eps
            n_pre = sizes[s - 1]
            for j in range(n_pre):
                th[:, j] = coeff * fpre[j] + th[:, j]
            if not state.bias_frozen:
                coeff_b = (alpha * state.alpha_bias_scale) * eps
                th[:, n_pre] = coeff_b * _ONE + th[:, n_pre]
        else:
            th = theta.copy()

        if gamma == _ZERO:
            stepped = x
        else:
            fprime = activation_derivative_vec(state.activations[s], x_eff)
            stepped = x + gamma * (fprime * b - eps)
        xn = np.where(en, obs, stepped) if state.clamp_hard else stepped.copy()

        new_x.append(np.asarray(xn, dtype=np.float32))
        new_eps.append(np.asarray(eps, dtype=np.float32))
        new_theta.append(th)
        new_backvec.append(backvec)

    return DenseState(
        layer_sizes=sizes,
        activations=state.activations,
        x=new_x,
        eps=new_eps,
        theta=new_theta,
        states_in=[
            state.x[s - 1].copy() if s > 0 else np.zeros(0, dtype=np.float32)
            for s in range(len(sizes))
        ],
        back_in=[
            new_backvec[s + 1] if s < last else np.zeros((0, sizes[s]), np.float32)
            for s in range(len(sizes))
        ],
        alpha=state.alpha,
        gamma=state.gamma,
        clamp_hard=state.clamp_hard,
        alpha_bias_scale=state.alpha_bias_scale,
        bias_frozen=state.bias_frozen,
    )


def _tick_f64(state: DenseState, clamp, alpha, gamma) -> DenseState:
    sizes = state.layer_sizes
    last = len(sizes) - 1
    a64, g64 = float(alpha), float(gamma)
    new_x, new_eps, new_theta, new_backvec = [], [], [], []

    for s, n in enumerate(sizes):
        x = state.x[s].astype(np.float64)
        theta = state.theta[s].astype(np.float64)
        en, obs = _clamp_arrays(state, clamp, s)
        x_eff = np.where(en, obs.astype(np.float64), x)

        if s == 0:
            mu = np.zeros(n)
            fpre = None
        else:
            fpre = np.array(
                [
                    activation64(state.activations[s - 1], float(v))
                    for v in state.states_in[s]
                ]
            )
            mu = theta[:, :-1] @ fpre + theta[:, -1]

        eps = x_eff - mu
        if state.back_in[s].shape[0]:
            b = state.back_in[s].astype(np.float64).sum(axis=0)
        else:
            b = np.zeros(n)

        backvec = theta[:, :-1] * eps[:, None] if s > 0 else np.zeros((n, 0))

        th = theta.copy()
        if s > 0 and a64 != 0.0:
            th[:, :-1] += a64 * eps[:, None] * fpre[None, :]
            if not state.bias_frozen:
                th[:, -1] += (a64 * float(state.alpha_bias_scale)) * eps

        fprime = np.array(
            [derivative64(state.activations[s], float(v)) for v in x_eff]
        )
        stepped = x + g64 * (fprime * b - eps)
        xn = np.where(en, obs.astype(np.float64), stepped) if state.clamp_hard else stepped

        new_x.append(xn)
        new_eps.append(eps)
        new_theta.append(th)
        new_backvec.append(backvec)

    return DenseState(
        layer_sizes=sizes,
        activations=state.activations,
        x=new_x,
        eps=new_eps,
        theta=new_theta,
        states_in=[
            state.x[s - 1].astype(np.float64) if s > 0 else np.zeros(0)
            for s in range(len(sizes))
        ],
        back_in=[
            new_backvec[s + 1] if s < last else np.zeros((0, sizes[s]))
            for s in range(len(sizes))
        ],
        alpha=state.alpha,
        gamma=state.gamma,
        clamp_hard=state.clamp_hard,
        alpha_bias_scale=state.alpha_bias_scale,
        bias_frozen=state.bias_frozen,
    )


# ---------------------------------------------------------------------------
# simulator/oracle equivalence sweep
# ---------------------------------------------------------------------------


def compare_to_network(net: Network, state: DenseState) -> Optional[str]:
    """Bitwise comparison of a network against a dense snapshot."""
    snap = net.snapshot()
    for s in range(len(net.layers)):
        for name, a, b in (
            ("x", snap.x[s], state.x[s]),
            ("eps", snap.eps[s], state.eps[s]),
            ("theta", snap.theta[s], state.theta[s]),
        ):
            if a.tobytes() != np.asarray(b, dtype=np.float32).tobytes():
                return f"layer {s} field {name}"
    return None


def run_equivalence_suite(
    n_nets: int = 100, n_ticks: int = 50, seed: int = 12345, max_width: int = 16
) -> dict:
    """Tick random networks alongside the bit32 oracle and compare bitwise.

    Sweeps layer counts 2..4, widths up to ``max_width``, all activation
    kinds, alpha in {0, 0.01}, gamma in {0, 0.05}, and no/input/boundary
    clamping. Returns a summary dict; ``ok`` is False on the first
    mismatch, with the failing site recorded under ``mismatch``.
    """
    rng = np.random.default_rng(seed)
    kinds = list(ACTIVATION_KINDS)
    total_ticks = 0
    for idx in range(n_nets):
        depth = 2 + idx % 3
        sizes = [int(rng.integers(1, max_width + 1)) for _ in range(depth)]
        acts = [kinds[int(rng.integers(0, 3))] for _ in range(depth)]
        alpha = (0.0, 0.01)[idx % 2]
        gamma = (0.05, 0.0)[(idx // 2) % 2]
        cfg = NetworkConfig(
            layer_sizes=sizes,
            activations=acts,
            alpha=alpha,
            gamma=gamma,
            clamp_hard=bool(idx % 4 < 2),
            seed=90000 + idx,
            init_scale=0.5,
        )
        net = build_network(cfg)
        clamp_mode = idx % 3
        clamp: ClampMap = {}
        if clamp_mode >= 1:
            clamp[0] = [
                ClampSignal(True, float(rng.uniform(-1, 1))) for _ in range(sizes[0])
            ]
        if clamp_mode == 2:
            clamp[depth - 1] = [
                ClampSignal(True, float(rng.uniform(-1, 1)))
                for _ in range(sizes[-1])
            ]
        state = DenseState.from_network(net)
        for t in range(n_ticks):
            net.tick(clamp)
            state = oracle_tick(state, clamp, mode="bit32")
            total_ticks += 1
            bad = compare_to_network(net, state)
            if bad is not None:
                return {
                    "ok": False,
                    "nets": idx + 1,
                    "ticks": total_ticks,
                    "mismatch": f"net {idx} tick {t}: {bad}",
                }
    return {"ok": True, "nets": n_nets, "ticks": total_ticks, "mismatch": None}
