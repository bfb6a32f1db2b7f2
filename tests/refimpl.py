"""Shared test references: binary64 equations, a second binary32 path,
and the two ticks every differential test of ``Network.tick`` runs
against.

The equations deliberately do not import the core's stage functions or
the package's activation tables; they mirror the documented accumulation
order independently so that agreement means something. The activation
equations are this module's own, in binary64, and its binary32 f and f'
are those equations rounded once.

``REFERENCES`` holds the two reference ticks of a whole ``DenseState``:
the dense oracle's bit32 step and ``per_core_tick``, ``core_tick`` driven
core by core. ``assert_same_state`` is the one comparison of two states,
and ``assert_ticks_match`` ticks a network beside a reference through it.
"""

import math
import warnings
from functools import partial

import numpy as np

from pcsub.core import core_tick
from pcsub.network import NO_CLAMP, DenseState, NetworkConfig
from pcsub.oracle import oracle_tick

F32 = np.float32

FIELDS = ("x", "eps", "theta", "states_in", "back_in")


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


def reference_bit32(x, theta, presyn, back, cfg, s, alpha, gamma, clamp):
    """Second binary32 implementation with the same pinned order; the
    arguments are ``reference_f64``'s."""
    n = len(theta) - 1
    alpha, gamma = F32(alpha), F32(gamma)
    x = F32(x)
    x_eff = F32(clamp.x_obs) if clamp.x_set_en else x
    mu = F32(0.0)
    if s > 0:
        fpre = [activation32(cfg.activations[s - 1], v) for v in presyn]
        for j in range(n):
            mu = F32(F32(theta[j] * fpre[j]) + mu)
        mu = F32(F32(theta[n] * F32(1.0)) + mu)
    eps = F32(x_eff - mu)
    b = F32(0.0)
    for v in back:
        b = F32(b + F32(v))
    theta_new = np.array(theta, dtype=np.float32).copy()
    if s > 0 and alpha != 0:
        coeff = F32(alpha * eps)
        for j in range(n):
            theta_new[j] = F32(F32(coeff * fpre[j]) + theta_new[j])
        if not cfg.bias_frozen:
            cb = F32(F32(alpha * F32(cfg.alpha_bias_scale)) * eps)
            theta_new[n] = F32(F32(cb * F32(1.0)) + theta_new[n])
    if cfg.clamp_hard and clamp.x_set_en:
        x_new = F32(clamp.x_obs)
    elif gamma == 0:
        x_new = x
    else:
        fp = derivative32(cfg.activations[s], x_eff)
        x_new = F32(x + F32(gamma * F32(F32(fp * b) - eps)))
    return x_new, theta_new, eps


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
        x_new, _, _ = core_tick(
            cfg, 1, x_start, np.array([0.0, F32(mu_i)], np.float32), F32(0.0),
            F32(gamma), np.zeros(1, np.float32), partial(derivative32, kind), back,
        )
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
        cfg = NetworkConfig((1, 1))  # the core is in layer 1
        theta_new = theta.copy()
        presyn_f = np.array([activation32(kind, v) for v in presyn])
        core_tick(
            cfg, 1, F32(x), theta_new, F32(alpha), F32(0.0), presyn_f,
            partial(derivative32, "identity"), np.zeros(0, np.float32),
        )
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
    the same latches, then the bus swap. f(presyn) and f' are this module's
    own binary32 f and f'; ``alpha``/``gamma`` override the configured step
    sizes."""
    cfg, clamp = state.cfg, clamp or {}
    alpha = F32(cfg.alpha if alpha is None else alpha)
    gamma = F32(cfg.gamma if gamma is None else gamma)
    theta = [w.copy() for w in state.theta]  # core_tick updates a row in place
    n_layers = len(cfg.layer_sizes)
    x, eps, products = [None] * n_layers, [None] * n_layers, [None] * n_layers
    for s in reversed(range(n_layers)):
        kind = cfg.activations[s - 1] if s else "identity"
        presyn_f = np.array(
            [activation32(kind, v) for v in state.states_in[s]], dtype=np.float32
        )
        fprime = partial(derivative32, cfg.activations[s])
        signals = clamp.get(s)
        cores = []
        with np.errstate(all="ignore"):  # as in Network.tick
            for i in reversed(range(cfg.layer_sizes[s])):
                cores.append(core_tick(
                    cfg, s, state.x[s][i], theta[s][i], alpha, gamma,
                    presyn_f, fprime, state.back_in[s][:, i],
                    signals[i] if signals else NO_CLAMP,
                ))
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


def assert_same_state(got, want, where=None, exact=False) -> None:
    """Every field of the ``DenseState`` ``got`` equals ``want``'s, layer by
    layer: dtype, shape and raw bytes where neither array holds a NaN, else
    NaN at the same places and every other element byte-identical. With
    ``exact``, for two states of one implementation, raw bytes everywhere.

    NaN sign and payload are left out between implementations: numpy's
    scalar ``+`` (the per-core reference) returns the second of two NaN
    operands and its array add (the engine and the oracle) the first, so a
    sum of two differently signed NaNs differs. One NaN rule for every tick
    is ROADMAP item 4.
    """
    for field in FIELDS:
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
