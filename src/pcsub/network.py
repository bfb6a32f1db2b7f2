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

``Network.state``, a ``DenseState``, is the network's only state, and
``DenseState`` states its layout: per layer, binary32 arrays of which
core i is row i. ``Network.tick`` is the engine: in the calling thread
it ticks the layers top to bottom, each in two passes over those arrays
with the stage rules, operand order and roundings of ``core``:

1. a per-core scalar loop for the stages with a lane order or a branch:
   PRED (one MAC per lane, ascending from +0.0, bias lane last), ERR,
   BACKSUM (one add per back input, ascending from +0.0) and STATE. It
   runs a stage only where a later stage reads its result, with the
   oracle step's rules. b is read only by STATE's Euler step, so BACKSUM
   is skipped on a hard-clamped core and on every core at gamma == 0.
   STATE's f' * b is this module's own, with no table: identity's f' is
   1, so b is read as it is; relu's f' * b is b where x_eff > 0, else
   +0.0 * b; tanh's f' is 1 - tanh(x_eff)^2 in binary64, rounded once,
   one call per core. The bias lane's MAC with 1.0 adds the bias itself
   (the add quiets a signalling NaN, as the multiply would). The old x is read
   only for an unclamped core's x_eff and for STATE. PRED reads only the
   layer's theta and latched upper states, so each layer keeps its last
   PRED result, f(states_in) (which WUP reads too) and every core's mu,
   keyed on the bytes of both arrays, and reuses it while they hold the
   same bytes. That is the case when the layer above holds its state, a
   hard-clamped layer from the third tick on, and alpha == 0 leaves theta
   as it is: evaluation and inference ticks. The key is the arrays'
   content, not their identity, because ``Network.state`` is public and
   callers write into it or replace its arrays. Two more rules skip
   relu's exact zeros, and only on relu layers; identity and tanh layers
   scan for no zeros. A layer below a relu layer runs PRED only over the
   lanes whose f(latch) is not zero (a NaN lane is live): mu starts at
   +0.0 and, under round-to-nearest-even, is never -0.0, so adding
   w * (+-0.0) for a finite w leaves every bit of it. While the layer's
   theta holds an inf or a NaN it runs every lane, since inf * 0 is NaN;
   that check is kept with the theta bytes of the PRED key. A relu core
   skips BACKSUM, and b stays +0.0, when not x_eff > 0 (so f' is +0.0)
   and e != 0, while its layer's back products, summed as binary64
   magnitudes, stay below FLT_MAX / 2: no ascending binary32 sum of them
   can then overflow, so b is finite, f' * b is +-0.0, and +-0.0 - e is
   -e as +0.0 - e is. At e == 0 the zero's sign would reach x. None of
   this changes a bit, and ``tick_cycles`` still counts every stage: the
   modelled datapath spends the M BACKSUM cycles whether b is read or
   not, and the N + 1 PRED cycles whether mu is new or not and whatever
   a lane's operand; only the simulator's Python work goes;
2. one array operation per layer for the stages whose lanes are
   independent: BACKVEC from the pre-update weights, then WUP and the
   bias update (skipped at alpha == 0).

A tick's boundary condition is a clamp map of ``ClampSignal``s, whose
types and rule are in ``rules`` with every other input rule: each
observation was checked and rounded to binary32 when its signal was
built, and pass 1 reads each signal's fields as they are.
``core.core_tick`` runs the same schedule one core at a time in Python
floats; it is the per-core reference the engine is tested against, and
this module imports none of it. The engine's f (of the layer above, for
PRED, WUP and ``energy``) and f' are its own: ``core_tick``'s callers
hand it both, and the oracle reads ``scalar32``'s tables, so neither
reference shares an activation with the engine. The tick fills fresh x
and eps arrays and never writes the old ones in place: the old x array
becomes the lower layer's ``states_in`` latch as it is, with no copy.
``reset_states`` and ``load_checkpoint`` also assign new arrays. The
``TickReport`` a tick returns holds no arrays, and each network builds
its two possible reports once: the post-tick x and eps are
``Network.state``'s. The oracle ticks the copies ``Network.snapshot`` makes.

Weights are initialized i.i.d. uniform in [-init_scale, +init_scale] from
a SplitMix64 stream seeded with ``seed``: draws proceed layer-major (top
to bottom), core-major within a layer, lane index ascending with the bias
lane last. Topmost cores own a single (unused) bias lane which is drawn
like any other so the stream layout is uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import rules
from .prng import Prng
from .rules import NO_CLAMP, ClampMap, ClampSignal
from .scalar32 import F32, RELU, TANH

_ZERO = F32(0.0)
# while a layer's back products sum below this in magnitude, no ascending
# binary32 sum of them overflows
_HALF_F32_MAX = float(np.finfo(np.float32).max) / 2


def tick_cycles(n_presyn: int, m_back: int, has_upper: bool = True) -> int:
    """Per-tick cycle count of the sequential datapath."""
    if has_upper:
        return 3 * n_presyn + m_back + 4
    return m_back + 2


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, _ZERO)  # keeps x's dtype; NaN propagates


def _tanh(x: np.ndarray) -> np.ndarray:
    # scalar math.tanh per element: immune to SIMD libm divergence; the
    # binary64 results are rounded to x's dtype once, by np.array
    return np.array([math.tanh(v) for v in x.tolist()], dtype=x.dtype)


# kind -> the engine's f of a vector, into a new array of its dtype: relu
# gives +0.0 for -0.0 and negatives and keeps a NaN, tanh is binary64
# math.tanh rounded once. Identity has none: its f(x) is x itself.
_ACTIVATIONS = {RELU: _relu, TANH: _tanh}


def _tanh_derivative(x: np.float32) -> np.float32:
    """tanh's f' of a binary32 operand: 1 - tanh(x)^2 in binary64, rounded
    once to binary32."""
    t = math.tanh(float(x))
    return F32(1.0 - t * t)


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


# rule(key, value) of each NetworkConfig field but ``activations``, whose
# rule also reads the layer count: a NetworkConfig applies them when it is
# built, and parse_config applies them to the same keys of a file
NETWORK_RULES = {
    "layer_sizes": partial(rules.sizes, n_min=2),
    "alpha": rules.real,
    "gamma": rules.real,
    "clamp_hard": rules.boolean,
    "alpha_bias_scale": partial(rules.real, nonneg=False),
    "bias_frozen": rules.boolean,
    "seed": rules.seed,
    "init_scale": rules.real,
}


@dataclass(frozen=True)
class NetworkConfig:
    """A network's shape, activations, step sizes and seed. Every field
    passes its rule when the config is built, ``dataclasses.replace``
    included, and cannot be written after: a ``Network`` and the oracle
    read the same checked values."""

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
            object.__setattr__(self, key, rule(key, getattr(self, key)))
        kinds = rules.activations(self.activations, len(self.layer_sizes))
        object.__setattr__(self, "activations", kinds)


@dataclass(frozen=True)
class TickReport:
    """What a tick reports beside its state, which stays in
    ``Network.state``. Immutable: each ``Network`` builds its two possible
    reports, diverged or not, once, and every tick returns one of them."""

    network_cycles: int  # the slowest core's cycle count: the tick's latency
    diverged: bool  # any non-finite x or eps in Network.state after the tick


@dataclass
class DenseState:
    """A whole network's state, bus latches included, with the config it
    was built from: ``Network.state`` is one and ticks in place,
    ``Network.snapshot`` returns a copy of it, and the oracle ticks one
    into a new one. The one statement of the layout: ``FIELDS``, built by
    ``zeros``, copied by ``copy`` and checked by ``check_shapes``, which
    ``oracle_tick`` runs; building one checks nothing."""

    cfg: NetworkConfig
    x: list  # per-layer (n,)
    eps: list  # per-layer (n,)
    theta: list  # per-layer (n, N+1), bias column last
    states_in: list  # per-layer (N,) latched upper states
    back_in: list  # per-layer (M, n) latched products

    # the per-layer array lists, in the order of the fields above
    FIELDS = ("x", "eps", "theta", "states_in", "back_in")
    # what a shape mismatch calls a field, where it is not the field's name
    _SHAPE_NAMES = {"x": "state", "eps": "state", "theta": "weight"}

    @property
    def layer_sizes(self) -> tuple:
        return self.cfg.layer_sizes

    @classmethod
    def zeros(cls, cfg: NetworkConfig) -> DenseState:
        """The all-zero binary32 state of ``cfg``'s wiring, weights
        included, every array its own."""
        # per layer, the shape of each field's array, in FIELDS order
        shapes = [
            ((n,), (n,), (n, n_pre + 1), (n_pre,), (m, n))
            for n, n_pre, m, _ in layer_wiring(cfg.layer_sizes)
        ]
        return cls(cfg, *([np.zeros(s, np.float32) for s in f] for f in zip(*shapes)))

    def copy(self) -> DenseState:
        """A state of the same config whose arrays are copies of these."""
        arrays = {name: [a.copy() for a in getattr(self, name)] for name in self.FIELDS}
        return DenseState(self.cfg, **arrays)

    def check_shapes(self) -> None:
        """Raise ``ConfigurationError`` unless every field is a list or
        tuple of one array per layer with the shape ``zeros`` gives it:
        first the field's layer count, then layer by layer."""
        template = DenseState.zeros(self.cfg)
        for name in self.FIELDS:
            arrays = getattr(self, name)
            if not isinstance(arrays, (list, tuple)) or len(arrays) != len(template.x):
                raise rules.ConfigurationError(f"{name}: one array per layer expected")
        for s in range(len(template.x)):
            for name in self.FIELDS:
                a = getattr(self, name)[s]
                if not isinstance(a, np.ndarray):
                    raise rules.ConfigurationError(f"layer {s}: {name} is not an array")
                if a.shape != getattr(template, name)[s].shape:
                    what = self._SHAPE_NAMES.get(name, name)
                    raise rules.ConfigurationError(f"layer {s}: {what} shape mismatch")

    @classmethod
    def from_network(cls, net: Network) -> DenseState:
        # kept for bench/run.py and bench/reference.py; elsewhere net.snapshot()
        return net.snapshot()


class Network:
    """A chain of layers sharing one tick clock; ``state`` holds all of it."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._wiring = layer_wiring(cfg.layer_sizes)
        rng = Prng(cfg.seed)
        scale = float(cfg.init_scale)
        state = self.state = DenseState.zeros(cfg)
        # layer by layer, core-major, lane ascending: the PRNG stream order
        state.theta = [rng.fill_uniform(w.shape, -scale, scale) for w in state.theta]
        # the cycle model depends on the shape alone, so a tick reports one
        # of two reports built here: (not diverged, diverged)
        cycles = max(cycles for _, _, _, cycles in self._wiring)
        self._reports = (TickReport(cycles, False), TickReport(cycles, True))
        # where each layer's x, then each layer's eps, sits in a tick's one
        # array of new values
        ends = np.cumsum(cfg.layer_sizes * 2).tolist()
        self._value_slices = [slice(a, b) for a, b in zip([0] + ends, ends)]
        self._alpha = F32(cfg.alpha)
        self._gamma = F32(cfg.gamma)
        self._bias_scale = F32(cfg.alpha_bias_scale)
        # what a tick reads of each layer's config, looked up once: (n, N,
        # M, the vector activation f of the layer above, None where
        # f(states_in) is the latch itself, tanh's f' on a tanh layer, else
        # None, whether the layer above is relu, so PRED may skip its zero
        # lanes, and whether the layer is relu with back inputs, so a core
        # may skip BACKSUM and applies relu's f' by a comparison; with no
        # back inputs b is +0.0, and so is relu's f' * b)
        acts = cfg.activations
        self._layers = [
            (
                n,
                n_pre,
                m_back,
                _ACTIVATIONS.get(acts[s - 1]) if s > 0 else None,
                _tanh_derivative if acts[s] == TANH else None,
                s > 0 and acts[s - 1] == RELU,
                m_back > 0 and acts[s] == RELU,
            )
            for s, (n, n_pre, m_back, _) in enumerate(self._wiring)
        ]
        # the signals of a layer with no clamp: none enabled
        self._unclamped = [(NO_CLAMP,) * n for n in cfg.layer_sizes]
        # each layer's last PRED below the top, None until its first tick:
        # (the bytes of its latch and theta, f(latch), each core's mu, and
        # below a relu layer whether theta is finite, else None)
        self._pred = [None] * len(self._layers)
        self._top_mus = (_ZERO,) * cfg.layer_sizes[0]  # a top core runs no PRED

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

        ``clamp`` maps a layer index to that layer's clamp, a list or tuple
        of one ``ClampSignal`` per core, such as ``clamp_layer`` returns.
        Each signal's observation became binary32 when it was built.

        Each layer, top to bottom, runs the two passes of the module
        docstring, which also gives the stages each pass skips, the relu
        zeros it skips and when a layer reuses its last PRED; none of that
        changes a bit or the reported cycle count.

        ``alpha``/``gamma`` override the built-in step sizes for this tick
        (they are supplied externally in the same way the start pulse is)
        and follow the configured values' rule: a real number, not a bool,
        finite in binary32 and >= 0. A binary32 override that keeps the
        rule is used as it is. A rejected tick changes nothing.

        Once the clamp and overrides are checked, the step runs with
        numpy's floating-point errors ignored, so NaN and infinities
        propagate without a warning. It returns one of the network's two
        frozen ``TickReport``s, built once: ``diverged`` is set when any
        post-tick x or eps is non-finite.
        """
        clamp = rules.check_clamp(clamp, self.cfg.layer_sizes)
        alpha = self._alpha if alpha is None else rules.binary32("alpha", alpha)
        gamma = self._gamma if gamma is None else rules.binary32("gamma", gamma)
        return self._step(clamp, alpha, gamma)

    # numpy 2's decorator form sets the error state in a context variable on
    # each call, so it is thread-safe as a with block is, at half the cost
    @np.errstate(all="ignore")  # NaN/Inf propagate; flagged by the report
    def _step(self, clamp: ClampMap, alpha: F32, gamma: F32) -> TickReport:
        """One tick of checked operands: the two passes per layer, the bus
        swap, and the report."""
        cfg = self.cfg
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

        for s, layer in enumerate(self._layers):
            n, n_pre, m_back, f_vec, fprime, relu_fed, relu_back = layer
            theta = state.theta[s]
            # the tick never writes the latch in place, so an identity f
            # reads it as it is
            latch = state.states_in[s]
            if s == 0:
                mus = self._top_mus
            else:
                # PRED, one MAC per lane, ascending, bias last, unless the
                # layer's theta and latch hold the bytes of its last PRED
                key = (latch.tobytes(), theta.tobytes())
                pred = self._pred[s]
                if pred is None or pred[0] != key:
                    presyn_f = latch if f_vec is None else f_vec(latch)
                    lanes = range(n_pre)
                    finite = None
                    if relu_fed:  # only the live lanes of a finite theta
                        if pred is not None and pred[0][1] == key[1]:
                            finite = pred[3]
                        else:
                            finite = bool(np.isfinite(theta).all())
                        if finite:
                            lanes = presyn_f.nonzero()[0].tolist()
                    mus = []
                    for row in theta:
                        mu = _ZERO
                        for j in lanes:
                            mu = row[j] * presyn_f[j] + mu
                        mus.append(row[n_pre] + mu)  # the bias lane, 1.0
                    pred = self._pred[s] = (key, presyn_f, mus, finite)
                # the saved f(latch) unless f is the identity: a caller may
                # have written the array that was the latch then
                presyn_f = latch if f_vec is None else pred[1]
                mus = pred[2]
            # row i: core i's back column; a bottom layer has none
            back = state.back_in[s].T if m_back else None
            signals = clamp.get(s, self._unclamped[s])
            x_old = state.x[s]
            x = values[spans[s]]
            eps = values[spans[last + 1 + s]]
            # whether a dead relu core may skip BACKSUM: its b is finite
            skip_dead = (
                relu_back
                and euler
                and np.abs(state.back_in[s]).sum(dtype=np.float64) < _HALF_F32_MAX
            )

            # pass 1: the scalar stages, core by core, each run only where
            # a later stage reads its result
            for i in range(n):
                sig = signals[i]
                clamped = sig.x_set_en
                x_eff = sig.x_obs if clamped else x_old[i]
                e = x_eff - mus[i]  # ERR
                eps[i] = e
                if hard and clamped:  # STATE: the observation, no b read
                    x[i] = x_eff
                elif euler:
                    b = _ZERO  # BACKSUM, read only by this Euler step
                    # a dead relu core's f' * b - e is -e, as +0.0 - e is
                    if not (skip_dead and not x_eff > _ZERO and e != _ZERO):
                        if m_back:
                            for v in back[i]:
                                b = b + v
                        if fprime is not None:  # tanh's
                            b = fprime(x_eff) * b
                        elif relu_back and not x_eff > _ZERO:  # relu's f' is 0
                            b = _ZERO * b
                    x[i] = x_old[i] + gamma * (b - e)
                else:
                    x[i] = x_old[i]

            # pass 2: the lane-parallel stages, one array op per layer
            if s > 0:
                w = theta[:, :-1]
                emitted.append(w * eps[:, None])  # BACKVEC, pre-update
                if alpha != _ZERO:  # WUP
                    w[...] = (alpha * eps)[:, None] * presyn_f + w
                    if not cfg.bias_frozen:
                        coeff_b = (alpha * self._bias_scale) * eps
                        theta[:, -1] = coeff_b + theta[:, -1]
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
        # binary32 values summed in binary64 cannot overflow, and any inf or
        # NaN among them makes the sum non-finite: one pass, cheaper than
        # np.isfinite on a few values
        return self._reports[not math.isfinite(sum(values.tolist()))]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def snapshot(self) -> DenseState:
        """A copy of ``state`` whose arrays are its own."""
        return self.state.copy()

    def energy(self) -> float:
        """Sum of squared prediction errors, recomputed densely in binary64
        from the current states and weights (diagnostic only), with the
        engine's own f. A NaN state or weight, or an infinite weight,
        gives a non-finite energy, not a warning; so does an infinite
        state, except one that is read only through an activation that
        saturates it: a top-layer state of ±inf under tanh, or of -inf
        under relu."""
        x, theta = self.state.x, self.state.theta
        total = 0.0
        with np.errstate(all="ignore"):
            for s in range(1, len(x)):
                f = _ACTIVATIONS.get(self.cfg.activations[s - 1])
                fx = x[s - 1].astype(np.float64)
                fx = fx if f is None else f(fx)
                w = theta[s].astype(np.float64)
                mu = w[:, :-1] @ fx + w[:, -1]
                d = x[s].astype(np.float64) - mu
                total += float(d @ d)
        return total

    def reset_states(self) -> None:
        """Zero all activities, errors, and latched buses; weights kept.
        ``state`` stays the same object, with new arrays."""
        zero = DenseState.zeros(self.cfg)
        for name in DenseState.FIELDS:
            if name != "theta":
                setattr(self.state, name, getattr(zero, name))


def build_network(cfg: NetworkConfig) -> Network:
    # kept for bench/run.py; elsewhere Network(cfg)
    return Network(cfg)


def clamp_layer(values) -> tuple:
    """A layer clamp asserting every neuron to ``values``: a tuple of
    enabled ``ClampSignal``s, each observation checked and rounded to
    binary32 as its signal is built."""
    return tuple([ClampSignal(True, v) for v in values])
