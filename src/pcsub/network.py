"""Layered composition of neural cores with a double-buffered tick scheduler.

Layer 0 of ``layer_sizes`` is the topmost (input side); the last layer is
the bottom (output side). Predictions flow downward: layer s predicts its
own activity from f(states of layer s-1). Back-error products flow upward:
layer s receives, at position k, the product emitted by core k of layer
s+1 at presynaptic position i (transpose wiring).

Communication is registered: everything a core reads during tick t was
latched at the end of tick t-1. A core's emitted state is the value held
at the start of the tick; its emitted back products use the eps computed
during the tick. Both become visible to neighbors one tick later, after
an atomic bus swap. Because all cross-core reads hit latches, cores may
execute in any order (or in parallel) with bit-identical results.

Weights are initialized i.i.d. uniform in [-init_scale, +init_scale] from
a SplitMix64 stream seeded with ``seed``: draws proceed layer-major (top
to bottom), core-major within a layer, lane index ascending with the bias
lane last. Topmost cores own a single (unused) bias lane which is drawn
like any other so the stream layout is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    ClampSignal,
    CoreConfig,
    CoreState,
    CoreTickInput,
    NO_CLAMP,
    core_new,
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

# Distinct (alpha, gamma) tick overrides whose layer configs are kept; the
# training protocol uses two (inference at alpha = 0, learning at the default).
_MAX_PHASES = 8


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
        for key in ("alpha", "gamma", "init_scale", "alpha_bias_scale"):
            value = getattr(self, key)
            if not is_finite_f32(value):
                raise ConfigurationError(
                    f"{key} must be finite in binary32, got {value!r}"
                )
        for key in ("alpha", "gamma", "init_scale"):
            if getattr(self, key) < 0:
                raise ConfigurationError(f"{key} must be >= 0")


@dataclass
class Layer:
    """One layer: shared core config, core states, latched input buses."""

    cfg: CoreConfig
    cores: list
    states_in: np.ndarray  # (N,) latched x from the layer above
    back_in: np.ndarray  # (M, n) latched products from the layer below
    backvec_buf: np.ndarray  # (n, N) products emitted this tick

    @property
    def size(self) -> int:
        return len(self.cores)

    def weights(self) -> np.ndarray:
        """(n, N+1) copy of the layer's weight matrix, bias column last."""
        return np.stack([c.theta for c in self.cores])

    def states(self) -> np.ndarray:
        return np.array([c.x for c in self.cores], dtype=np.float32)

    def errors(self) -> np.ndarray:
        return np.array([c.eps for c in self.cores], dtype=np.float32)


@dataclass
class TickReport:
    network_cycles: int  # max over cores; the tick's done latency
    per_core_cycles: Mapping  # read-only (layer, index) -> cycles
    diverged: bool  # any non-finite state or error after the tick
    states: list  # post-tick x per layer (copies)
    errors: list  # post-tick eps per layer (copies)


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
        sizes = cfg.layer_sizes
        rng = Prng(cfg.seed)
        scale = float(cfg.init_scale)
        self.layers = []
        per_core_cycles = {}
        for s, n in enumerate(sizes):
            n_presyn = sizes[s - 1] if s > 0 else 0
            m_back = sizes[s + 1] if s < len(sizes) - 1 else 0
            cycles = tick_cycles(n_presyn, m_back, has_upper=s > 0)
            per_core_cycles.update(((s, i), cycles) for i in range(n))
            core_cfg = CoreConfig(
                n_presyn=n_presyn,
                m_back=m_back,
                activation=cfg.activations[s],
                presyn_activation=cfg.activations[s - 1] if s > 0 else "identity",
                alpha=cfg.alpha,
                gamma=cfg.gamma,
                alpha_bias_scale=cfg.alpha_bias_scale,
                bias_frozen=cfg.bias_frozen,
                has_upper=s > 0,
            )
            cores = []
            for _ in range(n):
                weights = rng.fill_uniform(n_presyn + 1, -scale, scale)
                cores.append(core_new(core_cfg, weights, 0.0))
            self.layers.append(
                Layer(
                    cfg=core_cfg,
                    cores=cores,
                    states_in=np.zeros(n_presyn, dtype=np.float32),
                    back_in=np.zeros((m_back, n), dtype=np.float32),
                    backvec_buf=np.zeros((n, n_presyn), dtype=np.float32),
                )
            )
        # the cycle model depends on the shape alone, so it is computed once
        self._per_core_cycles = MappingProxyType(per_core_cycles)
        self._network_cycles = max(per_core_cycles.values())
        # (alpha, gamma) tick override -> per-layer CoreConfig list
        self._phase_cfgs: dict = {}

    # ------------------------------------------------------------------
    # tick scheduling
    # ------------------------------------------------------------------

    def tick(
        self,
        clamp: Optional[ClampMap] = None,
        alpha: Optional[float] = None,
        gamma: Optional[float] = None,
        reverse_order: bool = False,
        threads: int = 1,
    ) -> TickReport:
        """Run every core once against the previous-tick latches, then swap.

        ``alpha``/``gamma`` override the built-in step sizes for this tick
        (they are supplied externally in the same way the start pulse is).
        ``reverse_order`` and ``threads`` are scheduling arguments that
        cannot change a bit: every cross-core read hits a latch.
        ``reverse_order`` runs the cores in reverse order. ``threads`` is
        accepted for compatibility and ignored; the cores always run in
        the calling thread, because a thread pool was about 2x slower
        under the GIL.
        """
        with np.errstate(all="ignore"):  # NaN/Inf propagate; flagged below
            return self._tick(clamp, alpha, gamma, reverse_order)

    def _tick(self, clamp, alpha, gamma, reverse_order) -> TickReport:
        clamp = self._check_clamp(clamp)
        cfgs = self._cfgs_for(alpha, gamma)
        hard = self.cfg.clamp_hard
        layers = self.layers

        # start-of-tick states: these are this tick's downward emissions
        pre_x = [layer.states() for layer in layers]

        order = range(len(layers))
        for s in reversed(order) if reverse_order else order:
            layer = layers[s]
            cfg = cfgs[s]
            presyn = layer.states_in
            presyn_f = (
                apply_activation_vec(cfg.presyn_activation, presyn) if s > 0 else None
            )
            back_in = layer.back_in
            backvec_buf = layer.backvec_buf if layer.backvec_buf.shape[1] else None
            signals = clamp.get(s)
            cores = layer.cores
            indices = range(len(cores))
            for i in reversed(indices) if reverse_order else indices:
                inp = CoreTickInput(
                    presyn=presyn,
                    back=back_in[:, i],
                    clamp=signals[i] if signals else NO_CLAMP,
                    clamp_hard=hard,
                )
                out = core_tick(cores[i], inp, cfg, presyn_f=presyn_f)
                if backvec_buf is not None:
                    backvec_buf[i, :] = out.backvec

        # atomic bus swap: new latches become visible only after all cores
        # have completed the tick
        for s, layer in enumerate(layers):
            if s > 0:
                layer.states_in = pre_x[s - 1]
            if s < len(layers) - 1:
                layer.back_in = layers[s + 1].backvec_buf.copy()

        states = [layer.states() for layer in layers]
        errors = [layer.errors() for layer in layers]
        return TickReport(
            network_cycles=self._network_cycles,
            per_core_cycles=self._per_core_cycles,
            diverged=not np.isfinite(np.concatenate(states + errors)).all(),
            states=states,
            errors=errors,
        )

    def _cfgs_for(self, alpha, gamma) -> list:
        """Per-layer configs for one tick's step-size override, built once
        per distinct override. Overrides that compare equal convert to the
        same binary32 step (0.0 and -0.0 both disable the update)."""
        key = (alpha, gamma)
        cfgs = self._phase_cfgs.get(key)
        if cfgs is None:
            cfgs = [
                replace(
                    layer.cfg,
                    alpha=layer.cfg.alpha if alpha is None else alpha,
                    gamma=layer.cfg.gamma if gamma is None else gamma,
                )
                for layer in self.layers
            ]
            if len(self._phase_cfgs) >= _MAX_PHASES:  # a per-tick step-size schedule
                self._phase_cfgs.clear()
            self._phase_cfgs[key] = cfgs
        return cfgs

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
        from the current states and weights (diagnostic only)."""
        total = 0.0
        for s in range(1, len(self.layers)):
            layer = self.layers[s]
            upper = self.layers[s - 1]
            fx = np.array(
                [
                    activation64(layer.cfg.presyn_activation, float(v))
                    for v in upper.states()
                ]
            )
            w = layer.weights().astype(np.float64)
            mu = w[:, :-1] @ fx + w[:, -1]
            d = layer.states().astype(np.float64) - mu
            total += float(d @ d)
        return total

    def reset_states(self) -> None:
        """Zero all activities, errors, and latched buses; weights kept."""
        for layer in self.layers:
            for c in layer.cores:
                c.x = F32(0.0)
                c.eps = F32(0.0)
                c.b = F32(0.0)
            layer.states_in = np.zeros_like(layer.states_in)
            layer.back_in = np.zeros_like(layer.back_in)
            layer.backvec_buf = np.zeros_like(layer.backvec_buf)

    def tick_latency(self) -> int:
        """Network tick latency: the slowest core's cycle count."""
        return self._network_cycles


def build_network(cfg: NetworkConfig) -> Network:
    return Network(cfg)


def clamp_layer(values) -> list:
    """ClampSignal list asserting every neuron of a layer to ``values``."""
    return [ClampSignal(x_set_en=True, x_obs=float(v)) for v in values]
