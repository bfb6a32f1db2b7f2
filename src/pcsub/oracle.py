"""Dense reference implementation of one network tick.

One step function, two precisions. The mode picks only the dtype the
tick computes in and how the activation f and its derivative f' are
evaluated; stage order, summation order and the structural no-op rules
are the same code in both:

* ``bit32`` computes in binary32 with the datapath's vector f/f'
  (``apply_activation_vec``, ``activation_derivative_vec``). Its results
  match the simulator (``Network.tick``) bit for bit, up to NaN sign and
  payload: numpy's scalar and array operations pick different operands
  when both are NaN, so tests compare NaN positions, not NaN bytes.
* ``f64`` computes in binary64 with f/f' evaluated per element by
  ``activation64``/``derivative64``; it bounds the simulator's rounding
  drift rather than its bit pattern.

Whole layers are array operations, with no Python loop over lanes. The
two ordered sums (PRED's mu and BACKSUM's b) are prefix sums,
``np.add.accumulate`` from a +0.0 seed on lane 0: lanes ascending, one
rounding per add. They are never ``np.sum``, ``np.add.reduce`` or ``@``,
whose pairwise order changes bits from 8 lanes on. WUP is skipped when
alpha == 0 and the state step when gamma == 0, so a NaN or infinite
operand cannot reach a weight or a state through a zero step size. The
bias update is ``(alpha * alpha_bias_scale) * eps``.

Both modes tick a ``DenseState`` (defined in ``network``: the network's
state container, with its config; ``Network.snapshot`` copies one) and
return a new one whose arrays all have the mode's dtype. The step sizes
are the state's configured ones, or the per-tick overrides, rounded to
binary32. Step sizes and clamps that ``Network.tick`` rejects are
rejected here too, by the same checks with the same messages, before
anything is computed, and so is a state whose arrays do not have its
config's shapes (``ConfigurationError`` for all of them). Both modes
mirror the simulator's registered communication: predictions read states
latched one tick ago, bottom-up sums read products latched one tick
ago, and the latches are refreshed from this tick's values at the end.
A Gauss-Seidel sweep with fresh errors would be a different dynamical
system and is deliberately not implemented here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .network import (
    ClampMap,
    ClampSignal,
    DenseState,
    Network,
    NetworkConfig,
    _binary32,
    _check_clamp,
    build_network,
    layer_wiring,
)
from .scalar32 import (
    ACTIVATION_KINDS,
    F32,
    activation64,
    activation_derivative_vec,
    apply_activation_vec,
    derivative64,
)


def _per_element(fn):
    """Vector form of a binary64 scalar function ``fn(kind, x)``."""
    return lambda kind, x: np.array([fn(kind, v) for v in x.tolist()])


# mode -> (dtype, f, f'), with f/f' taking (activation kind, array)
_MODES = {
    "bit32": (np.float32, apply_activation_vec, activation_derivative_vec),
    "f64": (np.float64, _per_element(activation64), _per_element(derivative64)),
}


def _clamp_arrays(sizes, clamp: Optional[ClampMap]) -> list:
    """Per layer, (enable mask, binary32 observations) or None without a
    clamp. Rejects a clamp that ``Network.tick`` rejects."""
    arrays = [None] * len(sizes)
    for s, signals in _check_clamp(clamp, sizes).items():
        en = np.array([sig.x_set_en for sig in signals], dtype=bool)
        obs = np.array([sig.x_obs for sig in signals], dtype=np.float32)
        arrays[s] = en, obs
    return arrays


def oracle_tick(
    state: DenseState,
    clamp: Optional[ClampMap] = None,
    mode: str = "bit32",
    alpha: Optional[float] = None,
    gamma: Optional[float] = None,
) -> DenseState:
    """Pure function: one tick applied to a dense snapshot. A state whose
    arrays do not have its config's shapes raises ``ConfigurationError``."""
    _check_shapes(state)
    return _tick(state, clamp, mode, alpha, gamma)


def _check_shapes(state: DenseState) -> None:
    """Every layer array of ``state`` has the shape its config wires."""
    wiring = layer_wiring(state.layer_sizes)
    for name in ("x", "eps", "theta", "states_in", "back_in"):
        if len(getattr(state, name)) != len(wiring):
            raise ConfigurationError(f"{name}: one array per layer expected")
    for s, (n, n_pre, m_back, _) in enumerate(wiring):
        if state.x[s].shape != (n,) or state.eps[s].shape != (n,):
            raise ConfigurationError(f"layer {s}: state shape mismatch")
        if state.theta[s].shape != (n, n_pre + 1):
            raise ConfigurationError(f"layer {s}: weight shape mismatch")
        if state.states_in[s].shape != (n_pre,):
            raise ConfigurationError(f"layer {s}: states_in shape mismatch")
        if state.back_in[s].shape != (m_back, n):
            raise ConfigurationError(f"layer {s}: back_in shape mismatch")


def _tick(state: DenseState, clamp, mode, alpha, gamma) -> DenseState:
    """``oracle_tick`` on a state whose shapes are known to be right: the
    oracle's own results and snapshots of a network."""
    if mode not in _MODES:
        raise ConfigurationError(f"unknown oracle mode: {mode!r}")
    av = _binary32("alpha", state.cfg.alpha if alpha is None else alpha)
    gv = _binary32("gamma", state.cfg.gamma if gamma is None else gamma)
    with np.errstate(all="ignore"):
        clamps = _clamp_arrays(state.layer_sizes, clamp)
        return _step(state, clamps, av, gv, *_MODES[mode])


def _ascending_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum of ``terms`` along ``axis``: lanes added in ascending order from
    a +0.0 seed, one rounding per add, like the core's sequential
    accumulator. ``terms`` must be a fresh array; it is overwritten.

    ``np.add.accumulate`` adds in lane order; ``np.sum``/``np.add.reduce``
    would sum pairwise, which changes bits from 8 lanes on.
    """
    seed_lane = terms[:, 0] if axis == 1 else terms[0]
    seed_lane += 0.0  # acc starts at +0.0, so all -0.0 lanes sum to +0.0
    np.add.accumulate(terms, axis=axis, out=terms)
    return terms[:, -1] if axis == 1 else terms[-1]


def _step(state: DenseState, clamps, alpha, gamma, dtype, f, fprime):
    """One tick of every layer in ``dtype``: PRED, ERR, BACKSUM, BACKVEC,
    WUP and STATE, then the latch rebuild."""
    cfg = state.cfg
    sizes = cfg.layer_sizes
    last = len(sizes) - 1
    alpha, gamma, one = dtype(alpha), dtype(gamma), dtype(1.0)
    bias_scale = dtype(F32(cfg.alpha_bias_scale))
    new_x, new_eps, new_theta, new_backvec = [], [], [], []

    for s, n in enumerate(sizes):
        x = state.x[s].astype(dtype)
        theta = state.theta[s].astype(dtype)  # own copy: WUP writes it
        clamped = clamps[s]
        x_eff = x if clamped is None else np.where(*clamped, x)

        if s == 0:  # a top layer runs no PRED, BACKVEC or WUP
            eps = x_eff - dtype(0.0)
        else:
            fpre = f(cfg.activations[s - 1], state.states_in[s])
            acc = _ascending_sum(theta[:, :-1] * fpre, axis=1)
            eps = x_eff - (theta[:, -1] * one + acc)
            new_backvec.append(theta[:, :-1] * eps[:, None])
            if alpha != 0:
                theta[:, :-1] = (alpha * eps)[:, None] * fpre + theta[:, :-1]
                if not cfg.bias_frozen:
                    coeff_b = (alpha * bias_scale) * eps
                    theta[:, -1] = coeff_b * one + theta[:, -1]

        if gamma != 0:  # BACKSUM and STATE: b is read only by STATE
            back = state.back_in[s]
            if back.shape[0]:
                b = _ascending_sum(back.astype(dtype), axis=0)
            else:
                b = np.zeros(n, dtype)
            x = x + gamma * (fprime(cfg.activations[s], x_eff) * b - eps)
        if clamped is not None and cfg.clamp_hard:
            x = np.where(*clamped, x)

        new_x.append(x)
        new_eps.append(eps)
        new_theta.append(theta)

    return DenseState(
        cfg=cfg,
        x=new_x,
        eps=new_eps,
        theta=new_theta,
        states_in=[np.zeros(0, dtype)]
        + [state.x[s].astype(dtype) for s in range(last)],
        back_in=new_backvec + [np.zeros((0, sizes[last]), dtype)],
    )


# ---------------------------------------------------------------------------
# simulator/oracle equivalence sweep
# ---------------------------------------------------------------------------


def compare_to_network(net: Network, state: DenseState) -> Optional[str]:
    """Bitwise comparison of a network's state against a dense state."""
    mine = net.state
    for s in range(len(mine.x)):
        for name in ("x", "eps", "theta"):
            a, b = getattr(mine, name)[s], getattr(state, name)[s]
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
            state = _tick(state, clamp, "bit32", None, None)
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
