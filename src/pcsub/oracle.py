"""Dense reference implementation of one network tick.

One step function, two precisions. The mode picks only the dtype the
tick computes in. Stage order, summation order, the structural no-op
rules and the activation tables are the same code in both: f and f' are
``scalar32.ACTIVATIONS_VEC`` and ``scalar32.DERIVATIVES_VEC``, looked up
by activation kind once per layer, and they keep their input's dtype.
The engine writes its own f and f', so a fault in either side's
activation shows in the comparison.

* ``bit32`` computes in binary32. Its results match the simulator
  (``Network.tick``) bit for bit, up to NaN sign and payload: numpy's
  scalar and array operations pick different operands when both are NaN,
  so tests compare NaN positions, not NaN bytes.
* ``f64`` computes in binary64; it bounds the simulator's rounding drift
  rather than its bit pattern. A NaN in the state propagates as it does
  in ``bit32``; only a binary32 overflow can make a NaN that ``f64``
  does not.

Whole layers are array operations, with no Python loop over lanes. The
two ordered sums (PRED's mu and BACKSUM's b) are prefix sums,
``np.add.accumulate`` from a +0.0 seed on lane 0: lanes ascending, one
rounding per add. They are never ``np.sum``, ``np.add.reduce`` or ``@``,
whose pairwise order changes bits from 8 lanes on. WUP is skipped when
alpha == 0 and the state step when gamma == 0, so a NaN or infinite
operand cannot reach a weight or a state through a zero step size. The
step runs only the stages whose results are read: the bias lane's MAC
with 1.0 is the bias itself, identity's f' is skipped (its f' * b is
b), and a layer whose every core is hard-clamped takes its
observations without BACKSUM or an Euler step. The bias update is
``(alpha * alpha_bias_scale) * eps``.

Both modes tick a ``DenseState`` (defined in ``network``: the network's
state container, with its config; ``Network.snapshot`` copies one) and
return a new one whose arrays all have the mode's dtype and are its own:
an input array that has the mode's dtype already and is only read is
used as it is, never written, and never handed on. The step sizes are
the state's configured ones, or the per-tick overrides, rounded to
binary32. Step sizes and clamps that ``Network.tick`` rejects are
rejected by ``oracle_tick`` too, by the same checks with the same
messages, before anything is computed, and so is a state whose fields
are not lists of arrays of its config's shapes
(``DenseState.check_shapes``; ``ConfigurationError`` for all of them).
Both modes mirror the simulator's registered communication: predictions
read states latched one tick ago, bottom-up sums read products latched
one tick ago, and the latches are refreshed from this tick's values at
the end. A Gauss-Seidel sweep with fresh errors would be a different
dynamical system and is deliberately not implemented here.

The equivalence sweep (``run_equivalence_suite``, ``pcsub verify``)
converts what is fixed per network once: its clamp arrays, checked as
``oracle_tick`` checks them, and its binary32 step sizes. Each tick then
runs ``Network.tick`` once and the bit32 step once, and
``compare_to_network`` compares every byte of the two states, bus
latches included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import rules
from .network import DenseState, Network, NetworkConfig
from .rules import ClampMap, ClampSignal
from .scalar32 import (
    ACTIVATION_KINDS,
    ACTIVATIONS_VEC,
    DERIVATIVES_VEC,
    F32,
    IDENTITY,
)

# mode -> the dtype the step computes in
_MODES = {"bit32": np.float32, "f64": np.float64}

# the equivalence sweep draws layer widths from 1 to this
_MAX_WIDTH = 16


def _clamp_arrays(sizes, clamp: Optional[ClampMap], dtype) -> list:
    """Per layer, None without a clamp, else (enable mask, observations in
    ``dtype``) with the mask None where every signal is enabled. Rejects a
    clamp that ``Network.tick`` rejects."""
    arrays = [None] * len(sizes)
    for s, signals in rules.check_clamp(clamp, sizes).items():
        en = np.array([sig.x_set_en for sig in signals], dtype=bool)
        obs = np.array([sig.x_obs for sig in signals], dtype=dtype)
        arrays[s] = None if en.all() else en, obs
    return arrays


def oracle_tick(
    state: DenseState,
    clamp: Optional[ClampMap] = None,
    mode: str = "bit32",
    alpha: Optional[float] = None,
    gamma: Optional[float] = None,
) -> DenseState:
    """Pure function: one tick applied to a dense snapshot. A state whose
    fields are not lists of arrays of its config's shapes raises
    ``ConfigurationError``."""
    state.check_shapes()
    dtype = _MODES[rules.choice("oracle mode", mode, _MODES)]
    av = rules.binary32("alpha", state.cfg.alpha if alpha is None else alpha)
    gv = rules.binary32("gamma", state.cfg.gamma if gamma is None else gamma)
    clamps = _clamp_arrays(state.layer_sizes, clamp, dtype)
    return _step(state, clamps, av, gv, dtype)


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


@np.errstate(all="ignore")  # NaN/Inf propagate, as in Network._step
def _step(state: DenseState, clamps, alpha, gamma, dtype):
    """One tick of every layer in ``dtype``: PRED, ERR, BACKSUM, BACKVEC,
    WUP and STATE, then the latch rebuild. An operand that has ``dtype``
    already and is only read is used as it is; every array of the result
    is new."""
    cfg = state.cfg
    acts = cfg.activations
    alpha, gamma, zero = dtype(alpha), dtype(gamma), dtype(0.0)
    # x * 1.0 is x, bit for bit but for quieting a signalling NaN, which the
    # add that follows quiets anyway: so the bias lane's MAC adds the bias
    # itself, and the bias update adds (alpha * alpha_bias_scale) * eps
    coeff_b = alpha * dtype(F32(cfg.alpha_bias_scale))
    hard = cfg.clamp_hard
    new_x, new_eps, new_theta, new_backvec = [], [], [], []

    for s, kind in enumerate(acts):
        x_in = np.asarray(state.x[s], dtype)
        theta = state.theta[s].astype(dtype)  # the result's copy: WUP writes it
        en = obs = None
        x_eff = x_in
        if clamps[s] is not None:
            en, obs = clamps[s]
            x_eff = obs if en is None else np.where(en, obs, x_in)

        if s == 0:  # a top layer runs no PRED, BACKVEC or WUP
            eps = x_eff - zero
        else:
            fpre = ACTIVATIONS_VEC[acts[s - 1]](np.asarray(state.states_in[s], dtype))
            w = theta[:, :-1]
            acc = _ascending_sum(w * fpre, axis=1)
            eps = x_eff - (theta[:, -1] + acc)
            new_backvec.append(w * eps[:, None])
            if alpha != 0:  # WUP and the bias update: product + old value
                np.add((alpha * eps)[:, None] * fpre, w, out=w)
                if not cfg.bias_frozen:
                    bias = theta[:, -1]
                    np.add(coeff_b * eps, bias, out=bias)

        if hard and obs is not None and en is None:
            x = obs.copy()  # every core holds its observation: no Euler step
        else:
            x = x_in
            if gamma != 0:  # BACKSUM and STATE: b is read only by STATE
                back = state.back_in[s]
                # a bottom layer has no back inputs: b is +0.0 on every core
                b = _ascending_sum(back.astype(dtype), axis=0) if len(back) else zero
                if kind != IDENTITY:  # identity's f' is 1: f' * b is b
                    b = DERIVATIVES_VEC[kind](x_eff) * b
                x = x_in + gamma * (b - eps)
            if hard and obs is not None:
                x = np.where(en, obs, x)
            if x is state.x[s]:
                x = x.copy()

        new_x.append(x)
        new_eps.append(eps)
        new_theta.append(theta)

    # the bus swap, as the engine's: the top layer latches no states and
    # the bottom layer no products
    states_in = [a.astype(dtype) for a in state.states_in[:1] + state.x[:-1]]
    back_in = new_backvec + [state.back_in[-1].astype(dtype)]
    return DenseState(cfg, new_x, new_eps, new_theta, states_in, back_in)


# ---------------------------------------------------------------------------
# simulator/oracle equivalence sweep
# ---------------------------------------------------------------------------


def _same(mine: list, other: list) -> bool:
    """Whether two lists of arrays have the same length and each pair of
    arrays the same dtype, shape and bytes. The first difference decides."""
    if len(mine) != len(other):
        return False
    for a, b in zip(mine, other):
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def compare_to_network(net: Network, state: DenseState) -> Optional[str]:
    """Bitwise comparison of a network's state, bus latches included,
    against a dense state: None when both have the same layers and every
    array the same dtype, shape and bytes, else the first differing site,
    layer by layer (a layer one side lacks differs). A pass that stops at
    the first difference decides; the site is looked for only then."""
    mine, fields = net.state, DenseState.FIELDS
    if all(_same(getattr(mine, name), getattr(state, name)) for name in fields):
        return None
    sides = [(name, getattr(mine, name), getattr(state, name)) for name in fields]
    for s in range(max(len(arrays) for _, *both in sides for arrays in both)):
        for name, a, b in sides:
            if not _same(a[s : s + 1], b[s : s + 1]):
                return f"layer {s} field {name}"


def run_equivalence_suite(
    n_nets: int = 100, n_ticks: int = 50, seed: int = 12345
) -> dict:
    """Tick random networks alongside the bit32 oracle and compare bitwise.

    Sweeps layer counts 2..4, widths 1 to ``_MAX_WIDTH``, all activation
    kinds, alpha in {0, 0.01}, gamma in {0, 0.05}, and no/input/boundary
    clamping. Returns a summary dict; ``ok`` is False on the first
    mismatch, with the failing site recorded under ``mismatch``.
    """
    rng = np.random.default_rng(seed)
    kinds = list(ACTIVATION_KINDS)
    dtype = _MODES["bit32"]
    total_ticks = 0
    for idx in range(n_nets):
        depth = 2 + idx % 3
        sizes = [int(rng.integers(1, _MAX_WIDTH + 1)) for _ in range(depth)]
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
        net = Network(cfg)
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
        # what the oracle reads of this net, converted once: the clamp
        # arrays, checked, and the binary32 step sizes
        clamps = _clamp_arrays(sizes, clamp, dtype)
        av, gv = rules.binary32("alpha", cfg.alpha), rules.binary32("gamma", cfg.gamma)
        state = net.snapshot()
        for t in range(n_ticks):
            net.tick(clamp)
            state = _step(state, clamps, av, gv, dtype)
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
