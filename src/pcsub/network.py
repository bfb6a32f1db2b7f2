"""Layered composition of neural cores with a double-buffered tick.

Layer 0 of ``layer_sizes`` is the topmost (input side); the last layer is
the bottom (output side). Predictions flow downward: layer s predicts its
own activity from f(states of layer s-1). Back-error products flow upward:
layer s receives, at position k, the product emitted by core k of layer
s+1 at presynaptic position i (transpose wiring). ``layer_wiring`` is the
one derivation of each layer's fan-ins and cycle count from the sizes.

Communication is registered: everything a core reads during tick t was
latched at the end of tick t-1. A core's emitted state is the value held
at the start of the tick; its emitted back products use the eps computed
during the tick. Both become visible to neighbors one tick later, after
an atomic bus swap. Because all cross-core reads hit latches, the order
in which cores execute cannot change a bit. ``Network.tick`` runs every
core once, layer by layer, in the calling thread.

Each layer owns its weights as one (n, N+1) binary32 matrix, bias column
last; core i's ``theta`` is row i of it, a view. Weight reads and writes
outside the tick (``weights``, ``snapshot``, checkpoints, ``energy``) are
one array operation per layer.

Weights are initialized i.i.d. uniform in [-init_scale, +init_scale] from
a SplitMix64 stream seeded with ``seed``: draws proceed layer-major (top
to bottom), core-major within a layer, lane index ascending with the bias
lane last. Topmost cores own a single (unused) bias lane which is drawn
like any other so the stream layout is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    ClampSignal,
    CoreConfig,
    CoreState,
    NO_CLAMP,
    core_tick,
    tick_cycles,
)
from .errors import ConfigurationError
from .prng import Prng
from .scalar32 import (
    ACTIVATION_KINDS,
    F32,
    activation64,
    apply_activation_vec,
    is_finite_f32,
)

ClampMap = dict[int, Sequence[ClampSignal]]

_ZERO = F32(0.0)


def layer_wiring(layer_sizes) -> list:
    """(n, N, M, cycles per tick) of each layer, top to bottom: n cores
    with N presyn lanes from the layer above (0 at the top) and M back
    inputs from the layer below (0 at the bottom)."""
    last = len(layer_sizes) - 1
    wiring = []
    for s, n in enumerate(layer_sizes):
        n_presyn = layer_sizes[s - 1] if s > 0 else 0
        m_back = layer_sizes[s + 1] if s < last else 0
        cycles = tick_cycles(n_presyn, m_back, has_upper=s > 0)
        wiring.append((n, n_presyn, m_back, cycles))
    return wiring


def _binary32(key: str, value, nonneg: bool = True) -> np.float32:
    """``value`` rounded to binary32, rejecting NaN, infinities, binary32
    overflow and (when ``nonneg``) negatives: the one rule for configured
    values and for per-tick step-size overrides."""
    if not is_finite_f32(value):
        raise ConfigurationError(f"{key} must be finite in binary32, got {value!r}")
    if nonneg and value < 0:
        raise ConfigurationError(f"{key} must be >= 0, got {value!r}")
    return F32(value)


@dataclass
class NetworkConfig:
    layer_sizes: tuple
    activations: Optional[tuple] = None  # default: identity everywhere
    alpha: float = 0.01
    gamma: float = 0.1
    clamp_hard: bool = True
    alpha_bias_scale: float = 1.0
    bias_frozen: bool = False
    seed: int = 1
    init_scale: float = 0.5

    def __post_init__(self):
        self.layer_sizes = tuple(int(n) for n in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ConfigurationError("need at least 2 layers")
        if any(n < 1 for n in self.layer_sizes):
            raise ConfigurationError("all layer sizes must be >= 1")
        if self.activations is None:
            self.activations = tuple("identity" for _ in self.layer_sizes)
        else:
            self.activations = tuple(self.activations)
        if len(self.activations) != len(self.layer_sizes):
            raise ConfigurationError("need one activation per layer")
        for kind in self.activations:
            if kind not in ACTIVATION_KINDS:
                raise ConfigurationError(f"unknown activation kind: {kind!r}")
        for key in ("alpha", "gamma", "init_scale"):
            _binary32(key, getattr(self, key))
        _binary32("alpha_bias_scale", self.alpha_bias_scale, nonneg=False)


@dataclass
class Layer:
    """One layer: shared core config, weight matrix, core states, latched
    input buses."""

    cfg: CoreConfig
    theta: np.ndarray  # (n, N+1) weights, bias column last; row i is cores[i].theta
    cores: list
    states_in: np.ndarray  # (N,) latched x from the layer above
    back_in: np.ndarray  # (M, n) latched products from the layer below

    @property
    def size(self) -> int:
        return len(self.cores)

    def weights(self) -> np.ndarray:
        """(n, N+1) copy of the layer's weight matrix, bias column last."""
        return self.theta.copy()

    def states(self) -> np.ndarray:
        return np.array([c.x for c in self.cores], dtype=np.float32)

    def errors(self) -> np.ndarray:
        return np.array([c.eps for c in self.cores], dtype=np.float32)


@dataclass
class TickReport:
    network_cycles: int  # max over cores; the tick's done latency
    per_core_cycles: Mapping  # read-only (layer, index) -> cycles
    diverged: bool  # any non-finite state or error after the tick
    states: list  # post-tick x per layer (this report's own arrays)
    errors: list  # post-tick eps per layer (this report's own arrays)


@dataclass
class Snapshot:
    """Read-only copy of everything a tick depends on."""

    layer_sizes: tuple
    x: list
    eps: list
    theta: list
    states_in: list
    back_in: list


class Network:
    """A chain of layers sharing one tick clock."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        rng = Prng(cfg.seed)
        scale = float(cfg.init_scale)
        self.layers = []
        per_core_cycles = {}
        wiring = layer_wiring(cfg.layer_sizes)
        for s, (n, n_presyn, m_back, cycles) in enumerate(wiring):
            per_core_cycles.update(((s, i), cycles) for i in range(n))
            core_cfg = CoreConfig(
                n_presyn=n_presyn,
                m_back=m_back,
                activation=cfg.activations[s],
                alpha_bias_scale=cfg.alpha_bias_scale,
                bias_frozen=cfg.bias_frozen,
                has_upper=s > 0,
            )
            # core-major, lane ascending: the PRNG stream order
            theta = rng.fill_uniform((n, n_presyn + 1), -scale, scale)
            self.layers.append(
                Layer(
                    cfg=core_cfg,
                    theta=theta,
                    cores=[CoreState(x=_ZERO, eps=_ZERO, theta=row) for row in theta],
                    states_in=np.zeros(n_presyn, dtype=np.float32),
                    back_in=np.zeros((m_back, n), dtype=np.float32),
                )
            )
        # the cycle model depends on the shape alone, so it is computed once
        self._per_core_cycles = MappingProxyType(per_core_cycles)
        self._network_cycles = max(per_core_cycles.values())
        self._alpha = F32(cfg.alpha)
        self._gamma = F32(cfg.gamma)

    # ------------------------------------------------------------------
    # tick
    # ------------------------------------------------------------------

    def tick(
        self,
        clamp: Optional[ClampMap] = None,
        alpha: Optional[float] = None,
        gamma: Optional[float] = None,
    ) -> TickReport:
        """Run every core once against the previous-tick latches, then swap.

        ``alpha``/``gamma`` override the built-in step sizes for this tick
        (they are supplied externally in the same way the start pulse is)
        and follow the configured values' rule: finite in binary32 and
        >= 0. A rejected tick changes nothing.
        """
        clamp = self._check_clamp(clamp)
        alpha = self._alpha if alpha is None else _binary32("alpha", alpha)
        gamma = self._gamma if gamma is None else _binary32("gamma", gamma)
        hard = self.cfg.clamp_hard
        activations = self.cfg.activations
        layers = self.layers

        # start-of-tick states: these are this tick's downward emissions
        pre_x = [layer.states() for layer in layers]
        # this tick's fresh per-layer arrays: post-tick x and eps, and the
        # (n, N) products each layer emits upward
        states, errors, emitted = [], [], []

        with np.errstate(all="ignore"):  # NaN/Inf propagate; flagged below
            for s, layer in enumerate(layers):
                cfg = layer.cfg
                presyn_f = (
                    apply_activation_vec(activations[s - 1], layer.states_in)
                    if s > 0
                    else layer.states_in
                )
                back_in = layer.back_in
                signals = clamp.get(s)
                x = np.empty(layer.size, dtype=np.float32)
                eps = np.empty(layer.size, dtype=np.float32)
                products = np.empty((layer.size, cfg.n_presyn), dtype=np.float32)
                for i, core in enumerate(layer.cores):
                    products[i] = core_tick(
                        core,
                        cfg,
                        alpha,
                        gamma,
                        presyn_f,
                        back_in[:, i],
                        signals[i] if signals else NO_CLAMP,
                        hard,
                    )
                    x[i] = core.x
                    eps[i] = core.eps
                states.append(x)
                errors.append(eps)
                emitted.append(products)

        # atomic bus swap: new latches become visible only after all cores
        # have completed the tick
        for s, layer in enumerate(layers):
            if s > 0:
                layer.states_in = pre_x[s - 1]
            if s < len(layers) - 1:
                layer.back_in = emitted[s + 1]

        return TickReport(
            network_cycles=self._network_cycles,
            per_core_cycles=self._per_core_cycles,
            diverged=not np.isfinite(np.concatenate(states + errors)).all(),
            states=states,
            errors=errors,
        )

    def _check_clamp(self, clamp: Optional[ClampMap]) -> ClampMap:
        if clamp is None:
            return {}
        for s, signals in clamp.items():
            if s < 0 or s >= len(self.layers):
                raise ConfigurationError(f"clamp for nonexistent layer {s}")
            if len(signals) != self.layers[s].size:
                raise ConfigurationError(
                    f"layer {s} clamp has {len(signals)} signals, "
                    f"expected {self.layers[s].size}"
                )
        return clamp

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        return Snapshot(
            layer_sizes=self.cfg.layer_sizes,
            x=[layer.states() for layer in self.layers],
            eps=[layer.errors() for layer in self.layers],
            theta=[layer.weights() for layer in self.layers],
            states_in=[layer.states_in.copy() for layer in self.layers],
            back_in=[layer.back_in.copy() for layer in self.layers],
        )

    def energy(self) -> float:
        """Sum of squared prediction errors, recomputed densely in binary64
        from the current states and weights (diagnostic only). A NaN or
        infinite state or weight gives a non-finite energy, not a warning."""
        total = 0.0
        with np.errstate(all="ignore"):
            for s in range(1, len(self.layers)):
                layer = self.layers[s]
                upper = self.layers[s - 1]
                kind = self.cfg.activations[s - 1]
                fx = np.array([activation64(kind, float(v)) for v in upper.states()])
                w = layer.theta.astype(np.float64)
                mu = w[:, :-1] @ fx + w[:, -1]
                d = layer.states().astype(np.float64) - mu
                total += float(d @ d)
        return total

    def reset_states(self) -> None:
        """Zero all activities, errors, and latched buses; weights kept."""
        for layer in self.layers:
            for c in layer.cores:
                c.x = _ZERO
                c.eps = _ZERO
                c.b = _ZERO
            layer.states_in = np.zeros_like(layer.states_in)
            layer.back_in = np.zeros_like(layer.back_in)

    def tick_latency(self) -> int:
        """Network tick latency: the slowest core's cycle count."""
        return self._network_cycles


def build_network(cfg: NetworkConfig) -> Network:
    return Network(cfg)


def clamp_layer(values) -> list:
    """ClampSignal list asserting every neuron of a layer to ``values``."""
    return [ClampSignal(x_set_en=True, x_obs=float(v)) for v in values]
