"""Layered composition of neural cores with a double-buffered tick.

Layer 0 of ``layer_sizes`` is the topmost (input side); the last layer is
the bottom (output side). Predictions flow downward: layer s predicts its
own activity from f(states of layer s-1). Back-error products flow upward:
layer s receives, at position k, the product emitted by core k of layer
s+1 at presynaptic position i (transpose wiring). ``layer_wiring`` is the
one derivation of each layer's fan-ins and cycle count from the sizes.

The cycle model (``tick_cycles``) is the sequential datapath's: a core
with N presyn lanes and M back inputs costs 3N + M + 4 cycles per tick
(N+1 for PRED, 1 for ERR, M for BACKSUM, N for BACKVEC, N+1 for WUP, 1
for STATE), and a topmost core, with no upper layer and so no PRED or
WUP, costs M + 2. The count depends on the shape alone, and a tick's
latency is its slowest core's.

Communication is registered: everything a core reads during tick t was
latched at the end of tick t-1. A core's emitted state is the value held
at the start of the tick; its emitted back products use the eps computed
during the tick. Both become visible to neighbors one tick later, after
an atomic bus swap. Because all cross-core reads hit latches, the order
in which cores execute cannot change a bit, and neither can running a
stage for a whole layer at once.

``Network.state``, a ``DenseState``, is the network's only state: per
layer, binary32 arrays of the activities x and errors eps, shape (n,),
the weights theta, shape (n, N+1) with the bias column last, and the two
bus latches. Core i is row i of them. ``Network.tick`` is the engine: in
the calling thread it ticks the layers top to bottom, each in two passes
over those arrays with the stage rules, operand order and roundings of
``core``:

1. a per-core scalar loop for the stages with a lane order or a branch:
   PRED (one MAC per lane, ascending from +0.0, bias lane last), ERR,
   BACKSUM (one add per back input, ascending from +0.0) and STATE;
2. one array operation per layer for the stages whose lanes are
   independent: BACKVEC from the pre-update weights, then WUP and the
   bias update (skipped at alpha == 0).

A ``ClampSignal`` per core is a tick's boundary condition, checked where
it enters. A clamp map takes a layer's signals in one of two forms:

* the immutable layer that ``clamp_layer`` returns, checked once when it
  is made, with each enabled observation rounded to binary32 there, once
  (the harness makes one per sample and ticks it many times);
* a plain sequence of ``ClampSignal``s, which every tick checks and
  converts the same way.

Either way an observation becomes binary32 before pass 1, inside
``np.errstate(all="ignore")``, so 1e39 enters as +inf without a warning,
and pass 1 reads only the rounded observations, never a signal.
``core.core_tick`` runs the same schedule one core at a time;
it is the per-core reference the engine is tested against, and this
module imports none of it. The tick fills fresh x and eps arrays and
never writes the old ones in place: the old x array becomes the lower
layer's ``states_in`` latch as it is, with no copy. ``reset_states`` and
``load_checkpoint`` also assign new arrays. The ``TickReport`` a tick
returns holds no arrays: the post-tick x and eps are ``Network.state``'s.
``Network.snapshot`` returns a copy of the state, and the oracle ticks
such copies.

Weights are initialized i.i.d. uniform in [-init_scale, +init_scale] from
a SplitMix64 stream seeded with ``seed``: draws proceed layer-major (top
to bottom), core-major within a layer, lane index ascending with the bias
lane last. Topmost cores own a single (unused) bias lane which is drawn
like any other so the stream layout is uniform.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .prng import Prng
from .scalar32 import (
    ACTIVATION_KINDS,
    DERIVATIVES,
    F32,
    IDENTITY,
    activation64,
    apply_activation_vec,
    is_finite_f32,
)

_ZERO = F32(0.0)
_ONE = F32(1.0)
_SEED_END = 1 << 64  # SplitMix64 keeps one u64 of state
_REAL = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class ClampSignal:
    """Per-neuron external observation; x_obs is read only when enabled."""

    x_set_en: bool = False
    x_obs: float = 0.0

    def __post_init__(self):
        # one isinstance per field, as clamp_layer builds a signal per
        # neuron per sample. Any real x_obs enters, NaN and inf included:
        # ``_observations`` rounds it to binary32.
        if not isinstance(self.x_set_en, (bool, np.bool_)):
            raise ConfigurationError(
                f"x_set_en must be a bool, got {self.x_set_en!r}"
            )
        if not isinstance(self.x_obs, _REAL):
            raise ConfigurationError(
                f"x_obs must be a real number, got {self.x_obs!r}"
            )


NO_CLAMP = ClampSignal()

ClampMap = dict[int, Sequence[ClampSignal]]


def _observations(signals) -> tuple:
    """Per core, the observation of ``signals`` rounded to binary32, or None
    where x_set_en is false: the one conversion of a layer clamp, made once
    by ``clamp_layer`` and on every tick for a plain list. Run it under
    ``np.errstate(all="ignore")``: NaN, infinite and out-of-range
    observations round silently, and the tick reports what it makes of
    them."""
    # a list, not a generator: a generator per tick made CPython 3.11's
    # pymalloc hold more arenas, and `pcsub verify`'s peak RSS grew by
    # about 0.5 MB per 5,000 ticks
    return tuple([F32(sig.x_obs) if sig.x_set_en else None for sig in signals])


class _ClampLayer(tuple):
    """One layer's clamp, checked and prepared once: an immutable tuple of
    ``ClampSignal``s whose ``obs`` is their ``_observations``."""

    def __new__(cls, signals):
        layer = super().__new__(cls, signals)
        with np.errstate(all="ignore"):
            object.__setattr__(layer, "obs", _observations(layer))
        return layer

    def __setattr__(self, name, value):
        raise AttributeError("a prepared clamp layer is immutable")

    def __delattr__(self, name):
        raise AttributeError("a prepared clamp layer is immutable")


def tick_cycles(n_presyn: int, m_back: int, has_upper: bool = True) -> int:
    """Per-tick cycle count of the sequential datapath."""
    if has_upper:
        return 3 * n_presyn + m_back + 4
    return m_back + 2


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


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(key: str, value, lo: int) -> int:
    """``value`` as an int, rejecting a bool, a non-integer (2.0 too) and a
    value below ``lo``: the one rule for layer sizes, seeds and tick
    counts."""
    if not _is_integer(value):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    if value < lo:
        raise ConfigurationError(f"{key} must be >= {lo}, got {value!r}")
    return int(value)


def _boolean(key: str, value) -> bool:
    """``value`` as a bool, rejecting anything but a Python or numpy bool
    (the string 'false' is truthy): the one rule for on/off switches."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{key} must be a bool, got {value!r}")
    return bool(value)


def _real(key: str, value, nonneg: bool = True) -> float:
    """``value`` as a float once ``_binary32`` accepts it: the rule for a
    configured step size or scale, which a tick rounds to binary32."""
    _binary32(key, value, nonneg)
    return float(value)


def _seed(key: str, value) -> int:
    """A PRNG seed: an integer in [0, 2**64), so that no two seeds give
    the same stream."""
    value = _integer(key, value, 0)
    if value >= _SEED_END:
        raise ConfigurationError(f"{key} must be < 2**64, got {value!r}")
    return value


def _check_clamp(clamp: Optional[ClampMap], sizes) -> ClampMap:
    """``clamp``, or an empty map for None, once it is a mapping whose every
    key is a layer index (a Python or numpy integer, not a bool, in [0,
    layers)) and whose every layer gets one ``ClampSignal`` per core: the
    one clamp rule of ``Network.tick`` and ``oracle_tick``, applied before
    either changes anything. The signals of a layer from ``clamp_layer``
    were checked when it was made, so only its length is checked here."""
    if clamp is None:
        return {}
    if not isinstance(clamp, Mapping):
        raise ConfigurationError(
            f"clamp must map layer indices to signals, got {clamp!r}"
        )
    for s, signals in clamp.items():
        if not _is_integer(s):
            raise ConfigurationError(f"clamp key must be a layer index, got {s!r}")
        if s < 0 or s >= len(sizes):
            raise ConfigurationError(f"clamp for nonexistent layer {s}")
        prepared = isinstance(signals, _ClampLayer)
        if not prepared and not isinstance(signals, Sequence):
            raise ConfigurationError(
                f"layer {s} clamp must be a sequence of ClampSignals, got {signals!r}"
            )
        if len(signals) != sizes[s]:
            raise ConfigurationError(
                f"layer {s} clamp has {len(signals)} signals, expected {sizes[s]}"
            )
        if prepared:
            continue
        for signal in signals:
            if not isinstance(signal, ClampSignal):
                raise ConfigurationError(
                    f"layer {s} clamp entries must be ClampSignals, got {signal!r}"
                )
    return clamp


def _layer_sizes(key: str, sizes) -> tuple:
    """At least two layers, each of an integer size >= 1."""
    sizes = tuple(_integer("layer size", n, 1) for n in sizes)
    if len(sizes) < 2:
        raise ConfigurationError("need at least 2 layers")
    return sizes


def _activations(kinds, n_layers: int) -> tuple:
    """One known activation kind per layer; None is identity everywhere."""
    if kinds is None:
        return ("identity",) * n_layers
    kinds = tuple(kinds)
    if len(kinds) != n_layers:
        raise ConfigurationError("need one activation per layer")
    for kind in kinds:
        if kind not in ACTIVATION_KINDS:
            raise ConfigurationError(f"unknown activation kind: {kind!r}")
    return kinds


# rule(key, value) of each NetworkConfig field but ``activations``, whose
# rule also reads the layer count: a NetworkConfig applies them when it is
# built, and parse_config applies them to the same keys of a file
NETWORK_RULES = {
    "layer_sizes": _layer_sizes,
    "alpha": _real,
    "gamma": _real,
    "clamp_hard": _boolean,
    "alpha_bias_scale": partial(_real, nonneg=False),
    "bias_frozen": _boolean,
    "seed": _seed,
    "init_scale": _real,
}


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
        for key, rule in NETWORK_RULES.items():
            setattr(self, key, rule(key, getattr(self, key)))
        self.activations = _activations(self.activations, len(self.layer_sizes))


@dataclass
class TickReport:
    """What a tick reports beside its state, which stays in
    ``Network.state``."""

    network_cycles: int  # the slowest core's cycle count: the tick's latency
    diverged: bool  # any non-finite x or eps in Network.state after the tick


@dataclass
class DenseState:
    """A whole network's state, bus latches included, with the config it
    was built from: ``Network.state`` is one and ticks in place,
    ``Network.snapshot`` returns a copy of it, and the oracle ticks one
    into a new one. Building one checks nothing; ``oracle_tick`` checks
    the shapes of the state it is given."""

    cfg: NetworkConfig
    x: list  # per-layer (n,)
    eps: list  # per-layer (n,)
    theta: list  # per-layer (n, N+1), bias column last
    states_in: list  # per-layer (N,) latched upper states
    back_in: list  # per-layer (M, n) latched products

    @property
    def layer_sizes(self) -> tuple:
        return self.cfg.layer_sizes

    @property
    def activations(self) -> tuple:
        return self.cfg.activations

    @classmethod
    def from_network(cls, net: Network) -> DenseState:
        return net.snapshot()


def _quiescent(wiring) -> dict:
    """Zero x, eps and bus latches of every layer of ``wiring``."""
    return {
        "x": [np.zeros(n, np.float32) for n, _, _, _ in wiring],
        "eps": [np.zeros(n, np.float32) for n, _, _, _ in wiring],
        "states_in": [np.zeros(n_pre, np.float32) for _, n_pre, _, _ in wiring],
        "back_in": [np.zeros((m, n), np.float32) for n, _, m, _ in wiring],
    }


class Network:
    """A chain of layers sharing one tick clock; ``state`` holds all of it."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._wiring = layer_wiring(cfg.layer_sizes)
        rng = Prng(cfg.seed)
        scale = float(cfg.init_scale)
        self.state = DenseState(
            cfg=cfg,
            # layer by layer, core-major, lane ascending: the PRNG stream order
            theta=[
                rng.fill_uniform((n, n_pre + 1), -scale, scale)
                for n, n_pre, _, _ in self._wiring
            ],
            **_quiescent(self._wiring),
        )
        # the cycle model depends on the shape alone, so it is computed once
        self._network_cycles = max(cycles for _, _, _, cycles in self._wiring)
        # where each layer's x, then each layer's eps, sits in a tick's one
        # array of new values
        ends = np.cumsum(cfg.layer_sizes * 2).tolist()
        self._value_slices = [slice(a, b) for a, b in zip([0] + ends, ends)]
        self._alpha = F32(cfg.alpha)
        self._gamma = F32(cfg.gamma)
        self._bias_scale = F32(cfg.alpha_bias_scale)
        # what a tick reads of each layer's config, looked up once: (n, N,
        # M, the activation f of the layer above, None where f(states_in)
        # is the latch itself, and f' of the layer's own activation)
        acts = cfg.activations
        self._layers = [
            (
                n,
                n_pre,
                m_back,
                acts[s - 1] if s > 0 and acts[s - 1] != IDENTITY else None,
                DERIVATIVES[acts[s]],
            )
            for s, (n, n_pre, m_back, _) in enumerate(self._wiring)
        ]
        # the observations of a layer with no clamp: none enabled
        self._unclamped = [(None,) * n for n in cfg.layer_sizes]

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

        ``clamp`` maps a layer index to that layer's clamp: a prepared
        layer from ``clamp_layer``, whose observations were checked and
        rounded to binary32 when it was made, or a plain sequence of one
        ``ClampSignal`` per core, which this tick checks and rounds.

        Each layer, top to bottom, runs two passes (see the module
        docstring): a loop over its cores for x_eff (the binary32
        observation, or x), PRED, ERR, BACKSUM and STATE; then BACKVEC,
        WUP and the bias update as one array operation each over the
        layer. BACKSUM runs on every core with back inputs, as in the
        per-core schedule, although STATE reads b only in its Euler step
        (not under a hard clamp, not at gamma == 0).

        ``alpha``/``gamma`` override the built-in step sizes for this tick
        (they are supplied externally in the same way the start pulse is)
        and follow the configured values' rule: finite in binary32 and
        >= 0. A rejected tick changes nothing.
        """
        cfg = self.cfg
        clamp = _check_clamp(clamp, cfg.layer_sizes)
        alpha = self._alpha if alpha is None else _binary32("alpha", alpha)
        gamma = self._gamma if gamma is None else _binary32("gamma", gamma)
        euler = gamma != _ZERO  # STATE's Euler step; gamma == 0 keeps x
        hard = cfg.clamp_hard
        state = self.state
        last = len(self._layers) - 1
        # this tick's fresh arrays: every layer's post-tick x and eps as
        # views of one array, which one finiteness check covers, and the
        # (n, N) products each layer below the top emits upward
        spans = self._value_slices
        values = np.empty(spans[-1].stop, dtype=np.float32)
        states, errors, emitted = [], [], [None]

        with np.errstate(all="ignore"):  # NaN/Inf propagate; flagged below
            for s, (n, n_pre, m_back, f_kind, fprime) in enumerate(self._layers):
                theta = state.theta[s]
                # the latch is never written in place, so an identity f
                # reads it as it is
                presyn_f = state.states_in[s]
                if f_kind is not None:
                    presyn_f = apply_activation_vec(f_kind, presyn_f)
                # row i: core i's back column; a bottom layer has none
                back = state.back_in[s].T if m_back else None
                signals = clamp.get(s)
                if signals is None:
                    obs = self._unclamped[s]
                elif isinstance(signals, _ClampLayer):
                    obs = signals.obs
                else:  # a plain list, converted on every tick
                    obs = _observations(signals)
                x_old = state.x[s]
                x = values[spans[s]]
                eps = values[spans[last + 1 + s]]

                # pass 1: the scalar stages, core by core
                for i in range(n):
                    x_i = x_old[i]
                    o = obs[i]  # the binary32 observation, None when unclamped
                    x_eff = x_i if o is None else o
                    mu = _ZERO  # a top core runs no PRED
                    if s > 0:  # PRED: one MAC per lane, ascending, bias last
                        row = theta[i]
                        for j in range(n_pre):
                            mu = row[j] * presyn_f[j] + mu
                        mu = row[n_pre] * _ONE + mu
                    e = x_eff - mu  # ERR
                    eps[i] = e
                    b = _ZERO  # BACKSUM, read only by the Euler step below
                    if m_back:
                        for v in back[i]:
                            b = b + v
                    if hard and o is not None:  # STATE
                        x[i] = o
                    elif euler:
                        x[i] = x_i + gamma * (fprime(x_eff) * b - e)
                    else:
                        x[i] = x_i

                # pass 2: the lane-parallel stages, one array op per layer
                if s > 0:
                    w = theta[:, :-1]
                    emitted.append(w * eps[:, None])  # BACKVEC, pre-update
                    if alpha != _ZERO:  # WUP
                        w[...] = (alpha * eps)[:, None] * presyn_f + w
                        if not cfg.bias_frozen:
                            coeff_b = (alpha * self._bias_scale) * eps
                            theta[:, -1] = coeff_b * _ONE + theta[:, -1]
                states.append(x)
                errors.append(eps)

        # atomic bus swap: new latches become visible only after all cores
        # have completed the tick; a layer's start-of-tick x array is what
        # it emitted downward this tick (the top layer latches no states,
        # the bottom layer no products)
        state.states_in = state.states_in[:1] + state.x[:-1]
        state.back_in = emitted[1:] + state.back_in[-1:]
        state.x = states
        state.eps = errors
        return TickReport(
            network_cycles=self._network_cycles,
            diverged=not np.isfinite(values).all(),
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def snapshot(self) -> DenseState:
        """A copy of ``state`` whose arrays are its own."""
        st = self.state
        return DenseState(
            st.cfg,
            *(
                [a.copy() for a in arrays]
                for arrays in (st.x, st.eps, st.theta, st.states_in, st.back_in)
            ),
        )

    def energy(self) -> float:
        """Sum of squared prediction errors, recomputed densely in binary64
        from the current states and weights (diagnostic only). A NaN or
        infinite state or weight gives a non-finite energy, not a warning."""
        x, theta = self.state.x, self.state.theta
        total = 0.0
        with np.errstate(all="ignore"):
            for s in range(1, len(x)):
                kind = self.cfg.activations[s - 1]
                fx = np.array([activation64(kind, float(v)) for v in x[s - 1]])
                w = theta[s].astype(np.float64)
                mu = w[:, :-1] @ fx + w[:, -1]
                d = x[s].astype(np.float64) - mu
                total += float(d @ d)
        return total

    def reset_states(self) -> None:
        """Zero all activities, errors, and latched buses; weights kept."""
        for name, arrays in _quiescent(self._wiring).items():
            setattr(self.state, name, arrays)


def build_network(cfg: NetworkConfig) -> Network:
    return Network(cfg)


def clamp_layer(values) -> Sequence[ClampSignal]:
    """An immutable, prepared layer clamp asserting every neuron to
    ``values``: a tuple of enabled ``ClampSignal``s, each observation
    rounded to binary32 here, once, so that the ticks that read it do not
    check or round it again."""
    signals = []
    for i, v in enumerate(values):
        try:
            obs = float(v)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"clamp value {i} must be a real number, got {v!r}"
            ) from None
        signals.append(ClampSignal(x_set_en=True, x_obs=obs))
    return _ClampLayer(signals)
