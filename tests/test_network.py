"""Network composition, tick scheduling, buses, energy, determinism."""

import dataclasses
import itertools
import tempfile
import threading
import warnings
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from pcsub import core, network
from pcsub.checkpoint import load_checkpoint, save_checkpoint
from pcsub.network import DenseState, Network, NetworkConfig, clamp_layer, layer_wiring
from pcsub.oracle import oracle_tick
from pcsub.prng import Prng
from pcsub.rules import ClampSignal, ConfigurationError
from pcsub.scalar32 import ACTIVATION_KINDS

from refimpl import (
    BAD_STEP_OVERRIDES,
    REFERENCES,
    activation64,
    assert_same_state,
    assert_ticks_match,
    check_energy_descent,
    per_core_tick,
)

F32 = np.float32


def mknet(sizes, **kw):
    kw.setdefault("seed", 11)
    return Network(NetworkConfig(layer_sizes=sizes, **kw))


# ---------------------------------------------------------------------------
# construction and wiring
# ---------------------------------------------------------------------------


def test_build_2_4_3():
    net = mknet([2, 4, 3])
    assert sum(x.shape[0] for x in net.state.x) == 9
    # (n, N, M, cycles): the top has no presyn lanes, the bottom no back inputs
    assert [w[:3] for w in layer_wiring(net.cfg.layer_sizes)] == [
        (2, 0, 4),
        (4, 2, 3),
        (3, 4, 0),
    ]
    assert [w.shape for w in net.state.theta] == [(2, 1), (4, 3), (3, 5)]
    assert [a.shape for a in net.state.states_in] == [(0,), (2,), (4,)]
    assert [a.shape for a in net.state.back_in] == [(4, 2), (3, 4), (0, 3)]


def test_build_rejects_single_layer():
    with pytest.raises(ConfigurationError):
        mknet([2])


def test_build_rejects_zero_width():
    with pytest.raises(ConfigurationError):
        mknet([2, 0, 3])


def test_network_config_is_frozen():
    # a field written after the build would pass no rule, and the oracle
    # would read it while the engine keeps the value it was built with
    net = mknet([2, 3], alpha=0.01)
    for field in dataclasses.fields(net.cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net.cfg, field.name, getattr(net.cfg, field.name))
    # replace builds a new config, so the rules run again
    with pytest.raises(ConfigurationError, match="alpha must be >= 0"):
        dataclasses.replace(net.cfg, alpha=-1.0)


def test_same_seed_same_weights():
    a = mknet([3, 5, 2], seed=77)
    assert_same_state(a.state, mknet([3, 5, 2], seed=77).state, exact=True)
    c = mknet([3, 5, 2], seed=78)
    assert any(
        wa.tobytes() != wc.tobytes() for wa, wc in zip(a.state.theta, c.state.theta)
    )


def test_weights_match_prng_stream():
    net = mknet([2, 3, 2], seed=5, init_scale=0.25)
    rng = Prng(5)
    for w in net.state.theta:
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                assert w[i, j] == rng.uniform(-0.25, 0.25)


def test_states_start_at_zero():
    net = mknet([2, 4, 3])
    st = net.state
    for x, eps in zip(st.x, st.eps):
        assert x.tolist() == eps.tolist() == [0.0] * x.shape[0]
    assert not any(a.any() for a in st.states_in + st.back_in)


# ---------------------------------------------------------------------------
# tick behavior
# ---------------------------------------------------------------------------


def test_zero_net_stays_zero():
    net = mknet([2, 4, 3], init_scale=0.0, alpha=0.01, gamma=0.05)
    for _ in range(5):
        report = net.tick()
        assert not report.diverged
    for x in net.state.x:
        assert x.tolist() == [0.0] * x.shape[0]


def test_network_cycles_2_4_3():
    net = mknet([2, 4, 3])
    # every core of a layer costs 3N+M+4, or M+2 for the topmost layer:
    # top: 4+2 = 6; hidden: 3*2+3+4 = 13; bottom: 3*4+0+4 = 16
    wiring = layer_wiring(net.cfg.layer_sizes)
    assert [cycles for _, _, _, cycles in wiring] == [6, 13, 16]
    # the tick reports the slowest core, on every tick
    assert net.tick().network_cycles == 16
    assert net.tick().network_cycles == max(w[3] for w in wiring)


def test_hard_clamped_input_absorbs():
    net = mknet([2, 4, 3], clamp_hard=True)
    clamp = {0: clamp_layer([0.25, -0.75])}
    net.tick(clamp)
    assert net.state.x[0].tolist() == [F32(0.25), F32(-0.75)]


class _ClampDict(dict):
    pass


@pytest.mark.parametrize(
    "as_map",
    [MappingProxyType, OrderedDict, _ClampDict],
    ids=["mappingproxy", "ordereddict", "dict-subclass"],
)
def test_any_mapping_clamps_like_a_dict(as_map):
    # a plain dict takes the clamp check's fast path; any other mapping
    # takes the general one and ticks to the same bytes
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    nets = [mknet([2, 4, 3], seed=23, alpha=0.02, gamma=0.1) for _ in range(2)]
    for _ in range(4):
        nets[0].tick(clamp)
        nets[1].tick(as_map(clamp))
    assert_same_state(nets[0].state, nets[1].state, exact=True)


def test_clamp_length_validation():
    net = mknet([2, 4, 3])
    with pytest.raises(ConfigurationError):
        net.tick({0: [ClampSignal(True, 0.0)]})
    with pytest.raises(ConfigurationError):
        net.tick({5: [ClampSignal(True, 0.0)]})


def test_transpose_wiring():
    # after one tick, layer s back_in must equal the products
    # theta[k, i] * eps_k of layer s+1, i.e. Theta^T eps densely
    net = mknet([3, 4, 2], seed=3, alpha=0.0, gamma=0.05)
    clamp = {0: clamp_layer([0.5, -0.5, 0.25]), 2: clamp_layer([0.1, 0.9])}
    net.tick(clamp)
    snap_after = net.snapshot()
    for s in range(len(snap_after.x) - 1):
        w = snap_after.theta[s + 1][:, :-1]
        eps = snap_after.eps[s + 1]
        expected = (w * eps[:, None]).astype(np.float32)  # (n_lower, n_s)
        assert snap_after.back_in[s].tobytes() == expected.tobytes()


def test_registered_states_bus_lags_one_tick():
    net = mknet([1, 1], seed=9, gamma=0.0, alpha=0.0, clamp_hard=True)
    clamp = {0: clamp_layer([0.5])}
    net.tick(clamp)
    # emission was the pre-tick (zero) state
    assert net.state.states_in[1].tolist() == [0.0]
    net.tick(clamp)
    # now the clamped value from the end of tick 1 is visible
    assert net.state.states_in[1].tolist() == [F32(0.5)]


def test_snapshot_alpha_zero_preserves_weights():
    net = mknet([2, 4, 3], seed=21)
    before = net.snapshot()
    for _ in range(10):
        net.tick({0: clamp_layer([0.3, 0.4])}, alpha=0.0)
    after = net.snapshot()
    for wa, wb in zip(before.theta, after.theta):
        assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize(
    "value", BAD_STEP_OVERRIDES.values(), ids=BAD_STEP_OVERRIDES.keys()
)
@pytest.mark.parametrize("key", ["alpha", "gamma"])
def test_bad_step_override_rejected_network_untouched(key, value):
    net = mknet([2, 4, 3], seed=19, alpha=0.01, gamma=0.05)
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    for _ in range(3):
        net.tick(clamp)
    before = net.snapshot()
    with pytest.raises(ConfigurationError, match=key):
        net.tick(clamp, **{key: value})
    assert_same_state(net.state, before, exact=True)


@pytest.mark.parametrize("key", ["alpha", "gamma"])
def test_zero_step_override_same_bits_in_any_form(key):
    # a binary32 zero of either sign, taken as it is, and the Python 0.0,
    # checked and rounded, tick to the same bytes, in the oracle too
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    runs = []
    for value in (F32(0.0), F32(-0.0), 0.0):
        net = mknet([2, 4, 3], seed=19, alpha=0.01, gamma=0.05)
        tick = (clamp, value, None) if key == "alpha" else (clamp, None, value)
        assert_ticks_match(oracle_tick, net, [tick] * 4)
        runs.append(net.state)
    assert_same_state(runs[0], runs[1], exact=True)
    assert_same_state(runs[0], runs[2], exact=True)


@pytest.mark.parametrize("obs", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_tick_reports_non_finite_observation_diverged(obs):
    net = mknet([2, 4, 3], seed=19)
    clamp = {0: clamp_layer([0.3, -0.6])}
    assert not net.tick(clamp).diverged
    assert net.tick({0: clamp_layer([0.3, obs])}).diverged


@pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
def test_tick_reports_values_near_binary32_max_finite(sign):
    # every x and eps is finite and near +-3.4e38: their binary32 sum would
    # overflow, their binary64 sum does not, so the tick has not diverged
    big = F32(sign) * np.finfo(np.float32).max
    net = mknet([3, 4, 3], alpha=0.0, gamma=0.0, init_scale=0.0)
    net.state.x = [np.full(n, big) for n in (3, 4, 3)]
    report = net.tick()
    for x, eps in zip(net.state.x, net.state.eps):
        assert (x == big).all() and (eps == big).all()
    assert not report.diverged


def test_tick_report_is_frozen():
    report = mknet([2, 3]).tick()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.diverged = True


def test_cores_share_the_layer_weight_matrix(tmp_path):
    # core i's weights are row i of its layer's matrix: a write to
    # state.theta is what the tick, snapshot() and a checkpoint read
    cfg = NetworkConfig(layer_sizes=(2, 4, 3), seed=29, alpha=0.01, gamma=0.1)
    built = Network(cfg)
    save_checkpoint(built, tmp_path / "built.ckpt")
    loaded = load_checkpoint(tmp_path / "built.ckpt", cfg)
    # a load assigns owned, writable arrays, not views of the file's bytes
    for a in loaded.state.x + loaded.state.theta:
        assert a.flags.owndata and a.flags.writeable
    for name, net in (("built", built), ("loaded", loaded)):
        net.tick({0: clamp_layer([0.3, -0.6])})
        theta = net.state.theta
        theta[2][1, 3] = F32(0.125)
        assert net.snapshot().theta[2][1, 3] == F32(0.125)
        path = tmp_path / f"{name}.written.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        payload = np.frombuffer(blob, dtype="<f4", offset=blob.index(b"\n") + 1)
        # weights are stored layer-major, row-major: layers 0 and 1 first
        offset = sum(w.size for w in theta[:2]) + 1 * 5 + 3
        assert payload[offset] == F32(0.125)
        stored = payload[: sum(w.size for w in theta)]
        assert stored.tobytes() == b"".join(w.astype("<f4").tobytes() for w in theta)


def test_start_of_tick_x_is_latched_without_copy():
    # the tick replaces each layer's x array and never writes the old one,
    # so the old array itself becomes the lower layer's states_in latch
    net = mknet([2, 4, 3], seed=31, alpha=0.01, gamma=0.1)
    clamp = {0: clamp_layer([0.3, -0.6])}
    for _ in range(3):
        before = list(net.state.x)
        kept = [x.copy() for x in before]
        net.tick(clamp)
        for s in range(1, 3):
            assert net.state.states_in[s] is before[s - 1]
        for x, k in zip(before, kept):
            assert x.tobytes() == k.tobytes()
        assert all(x is not new for x, new in zip(before, net.state.x))


def test_snapshot_shapes():
    net = mknet([4, 6, 2], seed=2)
    net.tick()
    snap = net.snapshot()
    assert [w.shape for w in snap.theta] == [(4, 1), (6, 5), (2, 7)]
    assert [x.shape for x in snap.x] == [(4,), (6,), (2,)]


def test_snapshot_owns_its_arrays():
    # field by field and layer by layer, a snapshot shares no memory with
    # the state it copies, and a write to either side leaves the other
    net = mknet([2, 3, 2], seed=8)
    net.tick({0: clamp_layer([0.5, -0.5])})
    snap = net.snapshot()
    assert_same_state(snap, net.state, exact=True)
    for name in DenseState.FIELDS:
        pairs = zip(getattr(net.state, name), getattr(snap, name), strict=True)
        for s, (mine, copied) in enumerate(pairs):
            assert not np.shares_memory(mine, copied), (name, s)
            kept = mine.tobytes()
            copied[...] = F32(-0.375)
            assert mine.tobytes() == kept, (name, s)
            mine[...] = F32(0.75)
            assert (copied == F32(-0.375)).all(), (name, s)


# ---------------------------------------------------------------------------
# differential checks: the engine against both references
# ---------------------------------------------------------------------------

# NaN, infinities, binary32 overflow, the smallest subnormal and -0.0
# any real number is an observation: Python and numpy floats, and ints
SPECIAL_OBS = (
    float("nan"), float("inf"), -float("inf"), 1e39, 1e-45, -0.0,
    np.float32(-1e-45), np.float64(1e39), -1,
)
STEP_CORNERS = (0.0, 1e-40, 0.01, 0.5)
BIAS_SCALES = (1.0, 0.5, 0.1)  # 0.1 is not a binary32 value
_STEP_OVERRIDES = st.sampled_from((None,) + STEP_CORNERS)


def _assert_no_nan(net) -> None:
    for field in DenseState.FIELDS:
        for s, a in enumerate(getattr(net.state, field)):
            assert not np.isnan(a).any(), (field, s)


@pytest.mark.parametrize("clamp_hard", [True, False], ids=["hard", "soft"])
def test_special_clamp_observations_match_oracle(clamp_hard):
    # against both references; every observation is read inside the tick,
    # whose warnings are errors
    cfg = NetworkConfig(
        layer_sizes=[3, 4, 3],
        seed=17,
        activations=["tanh", "relu", "tanh"],
        alpha=0.01,
        gamma=0.05,
        clamp_hard=clamp_hard,
    )
    k = len(SPECIAL_OBS)
    # rotate the specials over the boundary neurons; a disabled signal
    # carries one too and must never be read
    ticks = [
        ({
            0: [ClampSignal(i != 1 or t % 2 == 0, SPECIAL_OBS[(t + i) % k])
                for i in range(3)],
            2: [ClampSignal(True, SPECIAL_OBS[(t + i + 3) % k]) for i in range(3)],
        }, None, None)
        for t in range(2 * k)
    ]
    for reference in REFERENCES.values():
        assert_ticks_match(reference, Network(cfg), ticks)


_obs = st.one_of(
    st.sampled_from(SPECIAL_OBS), st.floats(-2.0, 2.0, allow_subnormal=True)
)


@st.composite
def _configs(draw):
    depth = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=depth, max_size=depth))
    acts = draw(
        st.lists(st.sampled_from(ACTIVATION_KINDS), min_size=depth, max_size=depth)
    )
    return NetworkConfig(
        layer_sizes=sizes,
        activations=acts,
        alpha=draw(st.sampled_from(STEP_CORNERS)),
        gamma=draw(st.sampled_from(STEP_CORNERS)),
        clamp_hard=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        bias_frozen=draw(st.booleans()),
        alpha_bias_scale=draw(st.sampled_from(BIAS_SCALES)),
    )


@st.composite
def _clamps(draw, sizes):
    clamp = {}
    for s, n in enumerate(sizes):
        if draw(st.booleans()):
            clamp[s] = [ClampSignal(draw(st.booleans()), draw(_obs)) for _ in range(n)]
    return clamp


@st.composite
def _tick_cases(draw):
    """A config and 1-6 ticks of one clamp map, each with drawn overrides."""
    cfg = draw(_configs())
    clamp = draw(_clamps(cfg.layer_sizes))
    steps = st.tuples(_STEP_OVERRIDES, _STEP_OVERRIDES)
    steps = draw(st.lists(steps, min_size=1, max_size=6))
    return cfg, [(clamp, alpha, gamma) for alpha, gamma in steps]


@given(case=_tick_cases())
@settings(max_examples=300, deadline=None)
def test_tick_matches_oracle_property(case):
    """``Network.tick`` equals the dense oracle's tick on every field after
    every tick, as ``refimpl.assert_same_state`` compares them."""
    cfg, ticks = case
    assert_ticks_match(oracle_tick, Network(cfg), ticks)


@given(case=_tick_cases())
@settings(max_examples=300, deadline=None)
def test_engine_matches_per_core_reference(case):
    """The same property against ``core_tick`` driven core by core,
    bottom-up and last core first."""
    cfg, ticks = case
    assert_ticks_match(per_core_tick, Network(cfg), ticks)


_CLAMP_243 = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}


def test_core_order_does_not_matter():
    # 20 ticks at the configured step sizes against both references, under
    # the default bias rules, a bias scale that binary32 rounds and a
    # frozen bias; no NaN arises, so every field compares as raw bytes
    cfg = NetworkConfig(layer_sizes=[2, 4, 3], seed=13, alpha=0.02, gamma=0.1)
    bias_rules = [{}, {"alpha_bias_scale": 0.1}, {"bias_frozen": True}]
    for reference, rules in itertools.product(REFERENCES.values(), bias_rules):
        net = Network(dataclasses.replace(cfg, **rules))
        assert_ticks_match(reference, net, [(_CLAMP_243, None, None)] * 20)
        _assert_no_nan(net)


def test_wide_net_matches_oracle_bytes():
    # against both references, at widths past the 8-lane point where a
    # pairwise sum would change bits; no NaN arises, so every field
    # compares as raw bytes
    rng = Prng(77)
    clamp = {
        0: clamp_layer([rng.uniform(-1, 1) for _ in range(64)]),
        2: clamp_layer([rng.uniform(-1, 1) for _ in range(64)]),
    }
    ticks = [(clamp, alpha, None) for alpha in [0.0] * 4 + [0.01] * 4]
    for reference in REFERENCES.values():
        net = mknet(
            [64, 128, 64],
            seed=5,
            activations=["identity", "tanh", "identity"],
            alpha=0.01,
            gamma=0.05,
        )
        assert_ticks_match(reference, net, ticks)
        _assert_no_nan(net)


def _run_ticks(net, n, clamp):
    for _ in range(n):
        net.tick(clamp)
    return net.snapshot()


# ---------------------------------------------------------------------------
# stages the engine skips, against the per-core reference that runs them all
# (BACKSUM, f' and PRED included)
# ---------------------------------------------------------------------------

NAN, INF = F32("nan"), F32("inf")


@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_hard_clamp_skips_backsum_of_non_finite_back_inputs(kind):
    # layer 1's cores 0 and 2 are hard-clamped and their back columns hold
    # NaN and ±inf, which BACKSUM would sum to NaN: STATE takes the
    # observation, so b is never read and no NaN enters the state
    net = mknet([2, 4, 3], activations=[kind] * 3, alpha=0.01, gamma=0.05)
    for _ in range(3):
        net.tick({0: clamp_layer([0.3, -0.6])})
    back = net.state.back_in[1]
    back[:, 0] = [NAN, INF, -INF]
    back[:, 2] = [INF, -INF, F32(0.25)]
    net.state.back_in[0][...] = NAN  # the top layer is hard-clamped whole
    clamp = {
        0: clamp_layer([0.3, -0.6]),
        1: [ClampSignal(i % 2 == 0, 0.5 - i) for i in range(4)],
    }
    assert_ticks_match(per_core_tick, net, [(clamp, None, None)])
    _assert_no_nan(net)


@pytest.mark.parametrize("override", [False, True], ids=["configured", "per-tick"])
@pytest.mark.parametrize("clamp_hard", [True, False], ids=["hard", "soft"])
def test_zero_gamma_skips_backsum_of_nan_back_inputs(override, clamp_hard):
    # gamma == 0 keeps every unclamped x as it is: b is never read, so the
    # NaN in every back column reaches no stored value
    net = mknet(
        [2, 4, 3],
        activations=["tanh", "relu", "identity"],
        alpha=0.01,
        gamma=0.05 if override else 0.0,
        clamp_hard=clamp_hard,
    )
    clamp = {0: clamp_layer([0.3, -0.6])}
    for _ in range(3):
        net.tick(clamp, gamma=0.05)
    for back in net.state.back_in[:-1]:
        back[...] = NAN
    assert_ticks_match(per_core_tick, net, [(clamp, None, 0.0 if override else None)])
    _assert_no_nan(net)


@pytest.mark.parametrize(
    "column",
    [[-0.0, -0.0, -0.0], [INF, F32(1.0), F32(2.0)], [-INF, -0.0, F32(1.0)],
     [INF, -INF, F32(1.0)]],
    ids=["-0", "+inf", "-inf", "nan"],
)
def test_identity_layer_skips_its_derivative(column):
    # identity's f' is 1, and 1.0 * b is b for a b of +0.0 (a column of
    # -0.0 summed from BACKSUM's +0.0 seed), ±inf or NaN: the engine adds b
    # as it is; x starts at -0.0 so a sign of zero would show
    net = mknet([2, 4, 3], alpha=0.0, gamma=0.5, init_scale=0.0)
    net.state.x[1][...] = F32(-0.0)
    net.state.back_in[1][...] = np.array(column, np.float32)[:, None]
    clamp = {0: clamp_layer([-0.0, -0.0])}
    assert_ticks_match(per_core_tick, net, [(clamp, None, None)])


def _write_theta(net, clamp):
    net.state.theta[1][2, 0] = F32(0.75)  # a weight
    net.state.theta[1][3, -1] = F32(-0.5)  # a bias


def _write_latch(net, clamp):
    net.state.states_in[1][1] = F32(0.125)


def _assign_snapshot(net, clamp):
    net.state = net.snapshot()  # new arrays, the same bytes


def _new_observation(net, clamp):
    clamp[0] = clamp_layer([-0.2, 0.9])


@pytest.mark.parametrize(
    "write", [_write_theta, _write_latch, _assign_snapshot, _new_observation]
)
@pytest.mark.parametrize("top", ["identity", "tanh"])
def test_pred_reuse_follows_what_layer_1_reads(write, top):
    # the top layer hard-clamped at alpha = 0: from the third tick on,
    # layer 1's theta and latch hold the bytes of its last PRED, which the
    # engine then reuses. After a write that changes them (or, for an
    # equal-bytes snapshot, keeps them), every tick equals the reference's,
    # which recomputes every PRED: two eval-style ticks, then two learn
    # ticks, the first of which reuses f(latch) for WUP
    net = mknet([2, 4, 3], activations=[top, "relu", "tanh"], alpha=0.01, gamma=0.05)
    clamp = {0: clamp_layer([0.3, -0.6])}
    assert_ticks_match(per_core_tick, net, [(clamp, 0.0, None)] * 3)
    write(net, clamp)
    ticks = [(clamp, alpha, None) for alpha in (0.0, 0.0, None, None)]
    assert_ticks_match(per_core_tick, net, ticks)


# ---------------------------------------------------------------------------
# relu's exact zeros: the engine skips the PRED lanes of a relu-fed layer
# where f(latch) is zero and the BACKSUM of a dead relu core, each only where
# that keeps every bit; the references run every MAC and every add
# ---------------------------------------------------------------------------

_RELU_CLAMP = {0: clamp_layer([0.3, -0.6])}


def _relu_ticks_match(prepare, ticks, **kw):
    """``prepare`` a 2-4-3 identity/relu/identity network, whose layer 1
    is relu with back inputs and whose layer 2 is relu-fed, then tick it
    against both references."""
    kw = {"alpha": 0.01, "gamma": 0.05, **kw}
    for reference in REFERENCES.values():
        net = mknet([2, 4, 3], activations=["identity", "relu", "identity"], **kw)
        prepare(net)
        assert_ticks_match(reference, net, ticks)


@pytest.mark.parametrize("weight", [INF, -INF, NAN], ids=["inf", "-inf", "nan"])
def test_relu_fed_pred_runs_every_lane_of_a_non_finite_theta(weight):
    # lanes 1-3 of layer 2's latch are dead (f = +0.0) and core 1 holds a
    # non-finite weight in lane 2: inf * 0 is NaN, so that core's mu is
    # NaN. The weight is written after two ticks, so the finiteness kept
    # with the old theta bytes must not be reused
    def prepare(net):
        for _ in range(2):
            net.tick(_RELU_CLAMP)
        net.state.states_in[2][...] = [0.5, -0.25, -0.0, 0.0]
        net.state.theta[2][1, 2] = weight

    _relu_ticks_match(prepare, [(_RELU_CLAMP, None, None)] * 2)


def test_relu_fed_pred_keeps_a_nan_lane_live():
    # f(NaN) is NaN, not zero: lane 0 stays live and every mu of layer 2
    # is NaN, while lanes 1-3 are dead
    def prepare(net):
        net.state.states_in[2][...] = [NAN, -0.25, -0.0, 0.0]

    _relu_ticks_match(prepare, [(_RELU_CLAMP, None, None)] * 2)


def test_dead_relu_core_runs_backsum_at_zero_error():
    # soft-clamped to obs == mu == -0.5 (a bias of -0.5 over a zero latch),
    # each layer 1 core has e = +0.0 and f' = +0.0, and its back column
    # sums to a negative b: f' * b - e is -0.0 - +0.0 = -0.0, so x stays
    # -0.0, where a skipped BACKSUM's +0.0 - e would make it +0.0
    def prepare(net):
        net.state.theta[1][:, -1] = F32(-0.5)
        net.state.x[1][...] = F32(-0.0)
        net.state.back_in[1][...] = F32(-0.25)

    clamp = {0: clamp_layer([0.0, 0.0]), 1: clamp_layer([-0.5] * 4)}
    _relu_ticks_match(prepare, [(clamp, None, None)], clamp_hard=False)


def test_dead_relu_core_runs_backsum_that_overflows():
    # dead cores (x = -1) of layer 1 whose back products are finite but
    # sum to +inf in binary32, ascending: f' * b is 0 * inf = NaN, so x is
    # NaN. Column 0 overflows; column 1 holds one large product, so its b
    # is finite
    def prepare(net):
        net.state.x[1][...] = F32(-1.0)
        back = net.state.back_in[1]
        back[:, 0] = F32(3e38)
        back[:, 1] = [F32(3e38), F32(0.5), F32(-0.5)]

    _relu_ticks_match(prepare, [(_RELU_CLAMP, None, None)])


_STEP_OVERRIDES = st.sampled_from((None,) + STEP_CORNERS)


class NetworkMachine(RuleBasedStateMachine):
    """The ``Network`` API, call after call, against a ``DenseState`` model
    that the test keeps itself: the model ticks by ``per_core_tick`` and is
    zeroed by the test's own code, never by a ``Network`` method."""

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.held = []  # snapshots the test has written into

    @initialize(cfg=_configs())
    def build(self, cfg):
        self.net = Network(cfg)
        self.model = self.net.snapshot()

    def _zero(self, *fields):
        for name in fields:
            arrays = getattr(self.model, name)
            setattr(self.model, name, [np.zeros(a.shape, np.float32) for a in arrays])

    def _tick(self, clamp, alpha=None, gamma=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.net.tick(clamp, alpha=alpha, gamma=gamma)
        self.model = per_core_tick(self.model, clamp, alpha=alpha, gamma=gamma)

    @rule(data=st.data(), alpha=_STEP_OVERRIDES, gamma=_STEP_OVERRIDES)
    def tick(self, data, alpha, gamma):
        self._tick(data.draw(_clamps(self.net.cfg.layer_sizes)), alpha, gamma)

    @rule(value=st.sampled_from(SPECIAL_OBS))
    def clamp_top_layer(self, value):
        # only the top layer clamped to a special value: a NaN there becomes
        # an x that only f reads (the energy), above finite lower layers
        self._tick({0: clamp_layer([value] * self.net.cfg.layer_sizes[0])})

    @rule()
    def reset_states(self):
        self.net.reset_states()
        self._zero("x", "eps", "states_in", "back_in")

    @rule()
    def checkpoint_round_trip(self):
        path = f"{self.tmp.name}/net.ckpt"
        save_checkpoint(self.net, path)
        self.net = load_checkpoint(path, self.net.cfg)
        self._zero("eps", "states_in", "back_in")  # x and theta are kept

    @rule(data=st.data(), value=_obs)
    def write_into_state(self, data, value):
        # an in-place write that no tick made, to what PRED reads: the next
        # tick must not reuse a PRED computed before it
        name = data.draw(st.sampled_from(("theta", "states_in")))
        arrays = getattr(self.net.state, name)
        s = data.draw(st.sampled_from([s for s, a in enumerate(arrays) if a.size]))
        index = tuple(data.draw(st.integers(0, k - 1)) for k in arrays[s].shape)
        with np.errstate(over="ignore"):  # 1e39 becomes inf
            value = F32(value)
        for state in (self.net.state, self.model):
            getattr(state, name)[s][index] = value

    @rule()
    def write_into_snapshot(self):
        snap = self.net.snapshot()
        for name in DenseState.FIELDS:
            for a in getattr(snap, name):
                a[...] = F32(-0.375)
        self.held.append(snap)

    @invariant()
    def energy_matches_per_core_sum(self):
        # the model's energy in binary64, core by core and lane by lane with
        # the test's own f, and no @: where both are finite, they agree
        # within 1e-12 of the terms' magnitude (a dot product's error bound,
        # which holds where the terms cancel)
        acts, x, theta = self.net.cfg.activations, self.model.x, self.model.theta
        want = magnitude = 0.0
        for s in range(1, len(x)):
            fx = [activation64(acts[s - 1], v) for v in x[s - 1].tolist()]
            for x_i, row in zip(x[s].tolist(), theta[s].tolist()):
                terms = [w * f for w, f in zip(row, fx)] + [row[-1]]
                d = x_i - sum(terms)
                want += d * d
                size = abs(x_i) + sum(abs(t) for t in terms)
                magnitude += size * size
        got = self.net.energy()
        assert np.isfinite(got) == np.isfinite(want), (got, want)
        if np.isfinite(want):
            assert abs(got - want) <= 1e-12 * magnitude, (got, want)

    @invariant()
    def state_matches_model_and_owns_its_arrays(self):
        state = self.net.state
        assert_same_state(state, self.model)
        own = [a for name in DenseState.FIELDS for a in getattr(state, name)]
        for snap in self.held:
            for name in DenseState.FIELDS:
                for b in getattr(snap, name):
                    assert not any(np.shares_memory(a, b) for a in own), name

    def teardown(self):
        self.tmp.cleanup()


TestNetworkMachine = NetworkMachine.TestCase
TestNetworkMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)


def test_clamp_rounds_overflow_and_nan_without_warning():
    # 1e39 overflows binary32: a ClampSignal rounds it to +inf once, where
    # it is built, and neither that nor the tick warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ClampSignal(True, 1e39).x_obs.tobytes() == F32("inf").tobytes()
        layer = clamp_layer([1e39, float("nan")])
        net = mknet([2, 3], clamp_hard=True)
        net.tick({0: layer})
    x, eps = net.state.x[0], net.state.eps[0]
    assert x[0].tobytes() == eps[0].tobytes() == F32("inf").tobytes()
    assert np.isnan(x[1]) and np.isnan(eps[1])


def test_tick_calls_no_per_core_reference(monkeypatch):
    # the engine runs its own stages: with core_tick and every stage_*
    # function of core.py made to raise, a tick through every stage (soft
    # clamp, alpha and gamma > 0) still equals the oracle's
    def unreachable(*args, **kwargs):
        raise AssertionError("Network.tick called core.py")

    for name in dir(core):
        if name == "core_tick" or name.startswith("stage_"):
            monkeypatch.setattr(core, name, unreachable)
    net = mknet([2, 4, 3], seed=37, alpha=0.02, gamma=0.1, clamp_hard=False)
    assert_ticks_match(oracle_tick, net, [(_CLAMP_243, None, None)] * 5)


def test_references_see_a_fault_in_the_engines_tanh_derivative(monkeypatch):
    # the engine's scalar f' is its own: the per-core reference ticks with
    # refimpl's f' and the oracle with the vector table, so an engine tanh
    # f' one binary32 step too high fails against each, where the right
    # one passes
    right = network._tanh_derivative

    def one_step_high(x):
        return np.nextafter(right(x), F32(np.inf))

    cfg = NetworkConfig((2, 2, 1), ("identity", "tanh", "identity"), seed=5)
    clamp = {0: clamp_layer([0.5, -0.25]), 2: clamp_layer([0.75])}
    ticks = [(clamp, None, None)] * 4
    for reference in REFERENCES.values():
        assert_ticks_match(reference, Network(cfg), ticks)
    monkeypatch.setattr(network, "_tanh_derivative", one_step_high)
    for reference in REFERENCES.values():
        with pytest.raises(AssertionError):
            assert_ticks_match(reference, Network(cfg), ticks)


def test_thread_count_does_not_matter():
    # tick starts no thread, and a network ticked from another thread
    # ends with the same bits as one ticked from this one
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    before = threading.active_count()
    a = _run_ticks(mknet([2, 4, 3], seed=13, alpha=0.02, gamma=0.1), 10, clamp)
    assert threading.active_count() == before
    result = {}
    worker = threading.Thread(
        target=lambda: result.update(
            b=_run_ticks(mknet([2, 4, 3], seed=13, alpha=0.02, gamma=0.1), 10, clamp)
        )
    )
    worker.start()
    worker.join()
    assert_same_state(a, result["b"], exact=True)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_zero_network():
    net = mknet([2, 4, 3], init_scale=0.0)
    assert net.energy() == 0.0


def test_energy_single_nonzero_output():
    net = mknet([1, 1, 1], init_scale=0.0)
    net.state.x[2] = np.array([0.5], dtype=np.float32)
    assert net.energy() == pytest.approx(0.25, abs=1e-12)


def test_energy_matches_dense_reference():
    net = mknet([3, 5, 2], seed=4, activations=["identity", "tanh", "relu"])
    clamp = {0: clamp_layer([0.2, -0.3, 0.7])}
    for _ in range(7):
        net.tick(clamp)
    snap = net.snapshot()
    ref = 0.0
    for s in range(1, 3):
        fx = np.array(
            [
                activation64(net.cfg.activations[s - 1], float(v))
                for v in snap.x[s - 1]
            ]
        )
        w = snap.theta[s].astype(np.float64)
        mu = w[:, :-1] @ fx + w[:, -1]
        d = snap.x[s].astype(np.float64) - mu
        ref += float(d @ d)
    got = net.energy()
    assert got == pytest.approx(ref, rel=1e-12)


def test_energy_of_diverged_network_is_non_finite_without_warning():
    # the inf weight meets a zero state (inf * 0) in the binary64 matmul;
    # pytest.ini turns a RuntimeWarning into an error, so a warning would
    # fail this test
    net = mknet([2, 3, 2], seed=6)
    net.state.x[1] = np.array([np.nan, 0.0, 0.0], dtype=np.float32)
    net.state.theta[1][0, 1] = F32("inf")
    assert not np.isfinite(net.energy())


@pytest.mark.parametrize(
    "kind,top,finite",
    [
        ("relu", np.nan, False),  # f propagates a NaN
        ("tanh", np.nan, False),
        ("relu", np.inf, False),  # f passes an infinity on
        ("identity", -np.inf, False),
        ("relu", -np.inf, True),  # f saturates an infinity
        ("tanh", np.inf, True),
        ("tanh", -np.inf, True),
    ],
)
def test_energy_non_finite_rule(kind, top, finite):
    # a top-layer state is read only through f; pytest.ini turns a
    # RuntimeWarning into an error
    net = mknet([2, 3], seed=3, activations=[kind, "identity"])
    net.state.x[0] = np.array([top, 0.5], dtype=np.float32)
    assert np.isfinite(net.energy()) == finite


def test_energy_descends_when_clamped_alpha_zero():
    # identity activations, both boundaries hard clamped, alpha=0,
    # gamma=0.01: energy after each tick is non-increasing over 200 ticks;
    # the loop of acceptance criterion 9
    check_energy_descent()


def test_reset_states_clears_dynamics_only():
    net = mknet([2, 3, 2], seed=8)
    net.tick({0: clamp_layer([0.5, 0.5])})
    w_before = [w.tobytes() for w in net.state.theta]
    net.reset_states()
    st = net.state
    for x, eps in zip(st.x, st.eps):
        assert x.tolist() == eps.tolist() == [0.0] * x.shape[0]
    assert not any(a.any() for a in st.states_in + st.back_in)
    assert [w.tobytes() for w in st.theta] == w_before
