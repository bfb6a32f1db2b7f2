"""Shared test references: binary64 equations, the one single-core case,
and the two ticks every differential test of ``Network.tick`` runs
against.

The equations deliberately do not import the core's stage functions or
the package's activation tables; they mirror the documented accumulation
order independently so that agreement means something. The activation
equations are this module's own, in binary64, and its binary32 f and f'
are those equations rounded once. The engine writes its own f and f' and
the oracle reads ``scalar32``'s tables, so no activation is shared by a
tick and the reference it is checked against.

``Case`` is the one single core a test builds: ``Case.tick`` runs
``core.core_tick`` on this module's f and f', and ``Case.reference``
runs ``reference_f64`` on the same inputs. Every per-core check goes
through it, so a change of ``core_tick``'s signature touches
``Case.tick`` and ``per_core_tick`` alone. ``core_tick`` computes in
Python floats; these two convert its results to binary32 numpy values
at their edge.

``REFERENCES`` holds the two reference ticks of a whole ``DenseState``:
the dense oracle's bit32 step and ``per_core_tick``, ``core_tick`` driven
core by core. The engine and the oracle compute in numpy's binary32 and
``core_tick`` does not, so ``per_core_tick`` shares no arithmetic with
the engine. ``assert_same_state`` is the one comparison of two states,
and ``assert_ticks_match`` ticks a network beside a reference through it.
"""

import math
import warnings
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np

from pcsub.core import core_tick
from pcsub.network import NO_CLAMP, ClampSignal, DenseState, Network, NetworkConfig
from pcsub.network import clamp_layer, tick_cycles
from pcsub.oracle import oracle_tick
from pcsub.prng import Prng

F32 = np.float32

# step sizes that ``Network.tick`` and ``oracle_tick`` reject as overrides:
# binary32 ones too, as a finite, non-negative binary32 override is taken
# as it is, and a binary64 one past the binary32 range
BAD_STEP_OVERRIDES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": -float("inf"),
    "1e+39": 1e39,
    "-0.01": -0.01,
    "f32-nan": F32("nan"),
    "f32-inf": F32("inf"),
    "f32--0.01": F32(-0.01),
    "f64-1e+39": np.float64(1e39),
}


def activation64(kind: str, x: float) -> float:
    """The activation f in binary64; relu passes a NaN on and gives +0.0
    for -0.0 and negatives, as the datapath does."""
    if kind == "identity":
        return float(x)
    if kind == "relu":
        return float(x) if x > 0.0 or math.isnan(x) else 0.0
    if kind == "tanh":
        return math.tanh(float(x))
    raise ValueError(f"unknown activation kind: {kind!r}")


def derivative64(kind: str, x: float) -> float:
    """The activation's derivative f' in binary64; relu's is 0 at 0."""
    if kind == "identity":
        return 1.0
    if kind == "relu":
        return 1.0 if x > 0.0 else 0.0
    if kind == "tanh":
        t = math.tanh(float(x))
        return 1.0 - t * t
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation32(kind: str, x) -> np.float32:
    """The activation f of a binary32 operand: its binary64 equation,
    rounded once."""
    return F32(activation64(kind, x))


def derivative32(kind: str, x) -> np.float32:
    """The derivative f' of a binary32 operand: its binary64 equation,
    rounded once."""
    return F32(derivative64(kind, x))


def presyn_f32(cfg, s, presyn) -> np.ndarray:
    """f(presyn) of a core of layer ``s`` under ``cfg``: this module's
    binary32 f of the layer above, lane by lane (a top core has no lanes)."""
    kind = cfg.activations[s - 1] if s else "identity"
    return np.array([activation32(kind, v) for v in presyn], dtype=np.float32)


def reference_f64(x, theta, presyn, back, cfg, s, alpha, gamma, clamp):
    """One tick of a core of layer ``s`` under the ``NetworkConfig``
    ``cfg``, from the component equations, evaluated in binary64.

    ``presyn`` holds the raw upper-layer states; the upper layer's
    activation, ``cfg.activations[s - 1]``, is applied here. N is
    ``len(theta) - 1``."""
    n = len(theta) - 1
    x_eff = float(clamp.x_obs) if clamp.x_set_en else float(x)
    if s > 0:
        presyn_kind = cfg.activations[s - 1]
        mu = sum(
            float(theta[j]) * activation64(presyn_kind, float(presyn[j]))
            for j in range(n)
        ) + float(theta[n])
    else:
        mu = 0.0
    eps = x_eff - mu
    b = sum(float(v) for v in back)
    theta_new = [float(t) for t in theta]
    if s > 0 and float(alpha) != 0.0:
        for j in range(n):
            theta_new[j] += (
                float(alpha) * eps * activation64(presyn_kind, float(presyn[j]))
            )
        if not cfg.bias_frozen:
            theta_new[n] += float(alpha) * float(F32(cfg.alpha_bias_scale)) * eps
    if cfg.clamp_hard and clamp.x_set_en:
        x_new = float(clamp.x_obs)
    else:
        x_new = float(x) + float(gamma) * (
            derivative64(cfg.activations[s], x_eff) * b - eps
        )
    return x_new, theta_new, eps


def dense_zeros(sizes, acts=None, **kw) -> DenseState:
    """The all-zero state of a net of ``sizes``, weights included; step
    sizes default to 0 unless given in ``kw``."""
    kw = {"alpha": 0.0, "gamma": 0.0, **kw}
    return DenseState.zeros(NetworkConfig(sizes, acts, **kw))


class Case(NamedTuple):
    """One core of layer ``s`` under the ``NetworkConfig`` ``cfg``, with
    the inputs of one tick: N and M are the lengths of ``presyn``, the raw
    upper-layer states, and ``back``. ``tick`` and ``reference`` take
    field changes for that call, as ``_replace`` does."""

    cfg: NetworkConfig
    s: int
    x: np.float32
    theta: np.ndarray  # updated in place by ``tick``
    alpha: np.float32
    gamma: np.float32
    presyn: np.ndarray
    back: np.ndarray
    clamp: ClampSignal = NO_CLAMP

    def tick(self, **change):
        """``core_tick`` on this module's f(presyn) and f':
        ``(x, eps, products)`` as binary32 numpy values."""
        c = self._replace(**change)
        x, eps, products = core_tick(
            c.cfg, c.s, c.x, c.theta, c.alpha, c.gamma,
            presyn_f32(c.cfg, c.s, c.presyn),
            partial(derivative32, c.cfg.activations[c.s]), c.back, c.clamp,
        )
        return F32(x), F32(eps), np.array(products, np.float32)

    def reference(self, **change):
        """``reference_f64`` on a copy of theta: ``(x, theta, eps)``."""
        c = self._replace(**change)
        return reference_f64(
            c.x, c.theta.copy(), c.presyn, c.back, c.cfg, c.s, c.alpha,
            c.gamma, c.clamp,
        )

    def soft(self) -> NetworkConfig:
        return replace(self.cfg, clamp_hard=False)


def mkcfg(activation="identity", presyn_kind="identity", **kw):
    """The config of a two-layer net whose lower layer has ``activation``
    and whose top layer has ``presyn_kind``, soft-clamped unless ``kw``
    says otherwise. A core reads N and M from the arrays it is handed, so
    one config serves every fan-in pair."""
    kw.setdefault("clamp_hard", False)
    return NetworkConfig((1, 1), (presyn_kind, activation), **kw)


def random_case(rng, force_clamp=None) -> Case:
    """A core of layer 1 with 0-6 presyn lanes and back inputs, any pair of
    activations and config flags, and a clamp drawn from ``rng`` unless
    ``force_clamp`` fixes whether it is enabled."""
    n = int(rng.integers(0, 7))
    m = int(rng.integers(0, 7))
    kinds = ["identity", "relu", "tanh"]
    activation = kinds[rng.integers(0, 3)]
    presyn_kind = kinds[rng.integers(0, 3)]
    alpha = F32(rng.choice([0.0, 0.01, 0.1]))
    gamma = F32(rng.choice([0.0, 0.05, 0.2]))
    alpha_bias_scale = float(rng.choice([1.0, 0.5]))
    bias_frozen = bool(rng.integers(0, 2))
    theta = rng.uniform(-1, 1, n + 1).astype(np.float32)
    x = F32(rng.uniform(-1, 1))
    presyn = rng.uniform(-1, 1, n).astype(np.float32)
    back = rng.uniform(-1, 1, m).astype(np.float32)
    clamped = bool(rng.integers(0, 2)) if force_clamp is None else force_clamp
    clamp = ClampSignal(True, float(rng.uniform(-1, 1))) if clamped else NO_CLAMP
    cfg = mkcfg(
        activation, presyn_kind, alpha_bias_scale=alpha_bias_scale,
        bias_frozen=bias_frozen, clamp_hard=bool(rng.integers(0, 2)),
    )
    return Case(cfg, 1, x, theta, alpha, gamma, presyn, back, clamp)


def check_cycle_sweep() -> None:
    """Every fan-in pair (N, M) up to 16 of a core of layer 1 ticks, emits
    N products and costs 3N + M + 4 cycles; a top core, for every M, emits
    none and costs M + 2. The count is a function of the shape alone."""
    zeros = partial(np.zeros, dtype=np.float32)
    for n in range(17):
        for m in range(17):
            case = Case(
                mkcfg(), 1, F32(0.0), zeros(n + 1), F32(0.01), F32(0.05),
                zeros(n), zeros(m),
            )
            assert case.tick()[2].shape == (n,)
            assert tick_cycles(n, m) == 3 * n + m + 4
            if n == 0:  # the same core at the top
                assert case.tick(s=0, theta=zeros(1))[2].shape == (0,)
                assert tick_cycles(0, m, has_upper=False) == m + 2


def check_energy_descent() -> None:
    """20 identity 2-4-3 nets, both boundaries hard-clamped to random
    observations, at alpha = 0 and gamma = 0.01: ``Network.energy`` after
    each of 200 ticks is non-increasing, up to 1e-6."""
    rng = Prng(2024)
    cfg = NetworkConfig([2, 4, 3], alpha=0.0, gamma=0.01, clamp_hard=True)
    for trial in range(20):
        net = Network(replace(cfg, seed=1000 + trial))
        clamp = {
            0: clamp_layer([rng.uniform(-1, 1) for _ in range(2)]),
            2: clamp_layer([rng.uniform(-1, 1) for _ in range(3)]),
        }
        prev = None
        for t in range(200):
            net.tick(clamp)
            e = net.energy()
            if prev is not None:
                assert e <= prev + 1e-6, (trial, t, prev, e)
            prev = e


def local_energy(x_i, i, mu_i, x_layer, x_low, theta_low, kind):
    """eps_i^2 plus the lower layer's squared errors, as a function of x_i."""
    e = (x_i - mu_i) ** 2
    xs = [float(v) for v in x_layer]
    xs[i] = x_i
    for k in range(theta_low.shape[0]):
        pred = sum(
            float(theta_low[k, j]) * activation64(kind, xs[j]) for j in range(len(xs))
        ) + float(theta_low[k, -1])
        e += (float(x_low[k]) - pred) ** 2
    return e


def check_state_gradient(rng, n_checks, gamma=0.05, tol=1.2e-3):
    """FD check of the state increment against -(gamma/2) dE/dx."""
    h = 1e-4
    kinds = ["identity", "relu", "tanh"]
    checked = 0
    while checked < n_checks:
        kind = kinds[checked % 3]
        n_layer = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        i = int(rng.integers(0, n_layer))
        x_layer = rng.uniform(-1, 1, n_layer)
        if kind == "relu" and abs(x_layer[i]) < 0.05:
            continue
        x_low = rng.uniform(-1, 1, m)
        theta_low = rng.uniform(-1, 1, (m, n_layer + 1)).astype(np.float32)

        mu_i = float(rng.uniform(-1, 1))
        eps_low = np.zeros(m)
        for k in range(m):
            pred = sum(
                float(theta_low[k, j]) * activation64(kind, float(x_layer[j]))
                for j in range(n_layer)
            ) + float(theta_low[k, -1])
            eps_low[k] = float(x_low[k]) - pred
        back = np.array(
            [F32(F32(theta_low[k, i]) * F32(eps_low[k])) for k in range(m)],
            dtype=np.float32,
        )

        cfg = NetworkConfig((1, 1), ("identity", kind))  # the core is in layer 1
        x_start = F32(x_layer[i])
        x0 = float(x_start)
        fb = derivative64(kind, x0) * float(sum(float(v) for v in back))
        if abs(fb - (x0 - mu_i)) < 0.01:
            continue
        x_new, _, _ = Case(
            cfg, 1, x_start, np.array([0.0, F32(mu_i)], np.float32), F32(0.0),
            F32(gamma), np.zeros(1, np.float32), back,
        ).tick()
        got = float(x_new) - x0

        e_plus = local_energy(x0 + h, i, mu_i, x_layer, x_low, theta_low, kind)
        e_minus = local_energy(x0 - h, i, mu_i, x_layer, x_low, theta_low, kind)
        want = -(gamma / 2.0) * (e_plus - e_minus) / (2 * h)
        assert abs(got - want) <= tol * abs(want), (kind, got, want)
        checked += 1
    return checked


def check_weight_gradient(rng, n_checks, alpha=0.05, tol=1.2e-3):
    """FD check of weight increments against -(alpha/2) dE/dtheta."""
    h = 1e-4
    kinds = ["identity", "relu", "tanh"]
    checked = 0
    while checked < n_checks:
        kind = kinds[checked % 3]
        n = int(rng.integers(1, 6))
        theta = rng.uniform(-1, 1, n + 1).astype(np.float32)
        presyn = rng.uniform(-1, 1, n).astype(np.float32)
        x = float(rng.uniform(-1, 1))
        cfg = NetworkConfig((1, 1), (kind, "identity"))  # the core is in layer 1
        theta_new = theta.copy()
        Case(
            cfg, 1, F32(x), theta_new, F32(alpha), F32(0.0), presyn,
            np.zeros(0, np.float32),
        ).tick()
        mu64 = sum(
            float(theta[j]) * activation64(kind, float(presyn[j])) for j in range(n)
        ) + float(theta[n])
        eps64 = x - mu64
        if abs(eps64) < 0.05:
            continue
        lanes = 0
        for j in range(n):
            f_j = activation64(kind, float(presyn[j]))
            if abs(f_j) < 0.05:
                continue

            def energy(th_ij):
                mu = (
                    sum(
                        float(theta[q]) * activation64(kind, float(presyn[q]))
                        for q in range(n)
                        if q != j
                    )
                    + th_ij * f_j
                    + float(theta[n])
                )
                return (x - mu) ** 2

            want = (
                -(alpha / 2.0)
                * (energy(float(theta[j]) + h) - energy(float(theta[j]) - h))
                / (2 * h)
            )
            got = float(theta_new[j]) - float(theta[j])
            assert abs(got - want) <= tol * abs(want), (kind, j, got, want)
            lanes += 1
        if lanes:
            checked += 1
    return checked


def per_core_tick(state, clamp=None, alpha=None, gamma=None) -> DenseState:
    """The per-core reference tick of the ``DenseState`` ``state``, into a
    new one: the layers bottom-up and the cores of each layer last-to-first,
    each a stateless ``core_tick`` on row i of its layer's arrays against
    the same latches, then the bus swap; its Python floats become binary32
    arrays here. f(presyn) and f' are this module's own binary32 f and f';
    ``alpha``/``gamma`` override the configured step sizes."""
    cfg, clamp = state.cfg, clamp or {}
    alpha = F32(cfg.alpha if alpha is None else alpha)
    gamma = F32(cfg.gamma if gamma is None else gamma)
    theta = [w.copy() for w in state.theta]  # core_tick updates a row in place
    n_layers = len(cfg.layer_sizes)
    x, eps, products = [None] * n_layers, [None] * n_layers, [None] * n_layers
    for s in reversed(range(n_layers)):
        presyn_f = presyn_f32(cfg, s, state.states_in[s]).tolist()
        fprime = partial(derivative32, cfg.activations[s])
        signals = clamp.get(s)
        cores = [
            core_tick(
                cfg, s, state.x[s][i], theta[s][i], alpha, gamma, presyn_f,
                fprime, state.back_in[s][:, i], signals[i] if signals else NO_CLAMP,
            )
            for i in reversed(range(cfg.layer_sizes[s]))
        ]
        x_s, eps_s, rows = zip(*reversed(cores))
        x[s], eps[s] = np.array(x_s, np.float32), np.array(eps_s, np.float32)
        products[s] = np.array(rows, np.float32).reshape(len(rows), -1)
    return DenseState(
        cfg=cfg,
        x=x,
        eps=eps,
        theta=theta,
        states_in=[a.copy() for a in state.states_in[:1] + state.x[:-1]],
        back_in=products[1:] + [state.back_in[-1].copy()],
    )


# name -> tick(state, clamp, alpha=, gamma=): a new DenseState, the input
# left as it was
REFERENCES = {"oracle": oracle_tick, "per_core": per_core_tick}


def engine_tick(state, clamp=None, alpha=None, gamma=None) -> DenseState:
    """``Network.tick`` of a copy of the ``DenseState`` ``state``, with the
    ``REFERENCES`` signature: for crafted states, such as fixed lane
    orders, that no network's own ticks reach."""
    net = Network(state.cfg)
    net.state = state.copy()
    net.tick(clamp, alpha=alpha, gamma=gamma)
    return net.state


def assert_same_state(got, want, where=None, exact=False) -> None:
    """Every field of the ``DenseState`` ``got`` equals ``want``'s, layer by
    layer: dtype, shape and raw bytes where neither array holds a NaN, else
    NaN at the same places and every other element byte-identical. With
    ``exact``, for two states of one implementation, raw bytes everywhere.

    NaN sign and payload are left out between implementations: on x86-64
    Python's float ``+`` (the per-core reference) and numpy's scalar ``+``
    return the second of two NaN operands and numpy's array add (the
    oracle) the first, so a sum of two differently signed NaNs differs.
    One NaN rule for every tick is ROADMAP item 4.
    """
    for field in DenseState.FIELDS:
        pairs = zip(getattr(got, field), getattr(want, field), strict=True)
        for s, (a, b) in enumerate(pairs):
            site = (where, field, s)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), site
            nan_a, nan_b = np.isnan(a), np.isnan(b)
            if not exact and (nan_a.any() or nan_b.any()):
                assert np.array_equal(nan_a, nan_b), site
                a, b = a[~nan_a], b[~nan_b]
            assert a.tobytes() == b.tobytes(), site


def assert_ticks_match(reference, net, ticks) -> None:
    """Tick ``net`` and a ``REFERENCES`` tick side by side from the same
    state, once per (clamp, alpha, gamma) of ``ticks`` (None for a
    configured step size), and compare every field after every tick; a
    warning is an error."""
    state = net.snapshot()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, (clamp, alpha, gamma) in enumerate(ticks):
            net.tick(clamp, alpha=alpha, gamma=gamma)
            state = reference(state, clamp, alpha=alpha, gamma=gamma)
            assert_same_state(net.state, state, (reference.__name__, t))
