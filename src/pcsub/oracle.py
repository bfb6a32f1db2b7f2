"""Dense reference implementation of one network tick.

Two modes:

* ``bit32`` replicates the core datapath's exact accumulation order with
  binary32 numpy array operations over whole layers, with no Python loop
  over lanes. The two ordered sums (PRED's mu and BACKSUM's b) are
  prefix sums, ``np.add.accumulate`` from a +0.0 seed on lane 0: lanes
  ascending, one rounding per add. They are never ``np.sum`` or
  ``np.add.reduce``, whose pairwise order changes bits from 8 lanes on.
  Its results match the core-level simulator bit for bit, up to NaN sign
  and payload: numpy's scalar and array operations pick different
  operands when both are NaN, so tests compare NaN positions, not NaN
  bytes.
* ``f64`` evaluates the same update in binary64 throughout (dense dot
  products); it bounds the simulator's rounding drift rather than its
  bit pattern.

Both modes tick a ``DenseState`` (defined in ``network``: the network's
value snapshot, with its config) and return a new one. The step sizes
are the state's configured ones, or the per-tick overrides, rounded to
binary32. Both modes mirror the simulator's registered communication:
predictions read states latched one tick ago, bottom-up sums read
products latched one tick ago, and the latches are refreshed from this
tick's values at the end. A Gauss-Seidel sweep with fresh errors would
be a different dynamical system and is deliberately not implemented
here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import ClampSignal
from .errors import ConfigurationError
from .network import ClampMap, DenseState, Network, NetworkConfig, build_network
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


def _clamp_arrays(state: DenseState, clamp: Optional[ClampMap], s: int):
    """(enable mask, binary32 observations) of layer s, or (None, None)
    when the layer has no clamp."""
    if clamp is None or s not in clamp:
        return None, None
    signals = clamp[s]
    if len(signals) != state.layer_sizes[s]:
        raise ConfigurationError(f"layer {s}: clamp length mismatch")
    en = np.array([sig.x_set_en for sig in signals], dtype=bool)
    obs = np.array([sig.x_obs for sig in signals], dtype=np.float32)
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
    av = F32(state.cfg.alpha if alpha is None else alpha)
    gv = F32(state.cfg.gamma if gamma is None else gamma)
    with np.errstate(all="ignore"):
        if mode == "bit32":
            return _tick_bit32(state, clamp, av, gv)
        return _tick_f64(state, clamp, av, gv)


def _ascending_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum of ``terms`` along ``axis``: lanes added in ascending order from
    a +0.0 seed, one binary32 rounding per add, like the core's sequential
    accumulator. ``terms`` must be a fresh array; it is overwritten.

    ``np.add.accumulate`` adds in lane order; ``np.sum``/``np.add.reduce``
    would sum pairwise, which changes bits from 8 lanes on.
    """
    seed_lane = terms[:, 0] if axis == 1 else terms[0]
    seed_lane += _ZERO  # acc starts at +0.0, so all -0.0 lanes sum to +0.0
    np.add.accumulate(terms, axis=axis, out=terms)
    return terms[:, -1] if axis == 1 else terms[-1]


def _tick_bit32(state: DenseState, clamp, alpha, gamma) -> DenseState:
    cfg = state.cfg
    sizes = cfg.layer_sizes
    last = len(sizes) - 1
    new_x, new_eps, new_theta, new_backvec = [], [], [], []

    for s, n in enumerate(sizes):
        x = state.x[s]
        theta = state.theta[s]
        back = state.back_in[s]
        en, obs = _clamp_arrays(state, clamp, s)
        x_eff = x if en is None else np.where(en, obs, x)

        if s == 0:
            mu = np.zeros(n, dtype=np.float32)
        else:
            fpre = apply_activation_vec(cfg.activations[s - 1], state.states_in[s])
            acc = _ascending_sum(theta[:, :-1] * fpre, axis=1)
            mu = theta[:, -1] * _ONE + acc

        eps = x_eff - mu

        if back.shape[0]:
            b = _ascending_sum(back.copy(), axis=0)
        else:
            b = np.zeros(n, dtype=np.float32)

        # a top layer (s = 0) emits no products
        backvec = theta[:, :-1] * eps[:, None] if s > 0 else None

        th = theta.copy()
        if s > 0 and alpha != _ZERO:
            th[:, :-1] = (alpha * eps)[:, None] * fpre + th[:, :-1]
            if not cfg.bias_frozen:
                coeff_b = (alpha * F32(cfg.alpha_bias_scale)) * eps
                th[:, -1] = coeff_b * _ONE + th[:, -1]

        if gamma == _ZERO:
            xn = x.copy()
        else:
            fprime = activation_derivative_vec(cfg.activations[s], x_eff)
            xn = x + gamma * (fprime * b - eps)
        if en is not None and cfg.clamp_hard:
            xn = np.where(en, obs, xn)

        new_x.append(xn)
        new_eps.append(eps)
        new_theta.append(th)
        new_backvec.append(backvec)

    return DenseState(
        cfg=cfg,
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
    )


def _tick_f64(state: DenseState, clamp, alpha, gamma) -> DenseState:
    cfg = state.cfg
    sizes = cfg.layer_sizes
    last = len(sizes) - 1
    a64, g64 = float(alpha), float(gamma)
    new_x, new_eps, new_theta, new_backvec = [], [], [], []

    for s, n in enumerate(sizes):
        x = state.x[s].astype(np.float64)
        theta = state.theta[s].astype(np.float64)
        en, obs = _clamp_arrays(state, clamp, s)
        x_eff = x if en is None else np.where(en, obs.astype(np.float64), x)

        if s == 0:
            mu = np.zeros(n)
            fpre = None
        else:
            fpre = np.array(
                [
                    activation64(cfg.activations[s - 1], float(v))
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
            if not cfg.bias_frozen:
                th[:, -1] += (a64 * float(F32(cfg.alpha_bias_scale))) * eps

        fprime = np.array(
            [derivative64(cfg.activations[s], float(v)) for v in x_eff]
        )
        xn = x + g64 * (fprime * b - eps)
        if en is not None and cfg.clamp_hard:
            xn = np.where(en, obs.astype(np.float64), xn)

        new_x.append(xn)
        new_eps.append(eps)
        new_theta.append(th)
        new_backvec.append(backvec)

    return DenseState(
        cfg=cfg,
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
    )


# ---------------------------------------------------------------------------
# simulator/oracle equivalence sweep
# ---------------------------------------------------------------------------


def compare_to_network(net: Network, state: DenseState) -> Optional[str]:
    """Bitwise comparison of a network against a dense snapshot."""
    for s, layer in enumerate(net.layers):
        for name, a, b in (
            ("x", layer.x, state.x[s]),
            ("eps", layer.eps, state.eps[s]),
            ("theta", layer.theta, state.theta[s]),
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
        state = net.snapshot()
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
