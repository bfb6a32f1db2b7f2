"""Dense oracle tests: hand cases, bit-exact equivalence, f64 drift bound."""

import copy
import itertools
import warnings

import numpy as np
import pytest

from pcsub import network, oracle
from pcsub.network import Network, NetworkConfig, build_network, clamp_layer
from pcsub.oracle import (
    DenseState,
    compare_to_network,
    oracle_tick,
    run_equivalence_suite,
)
from pcsub.rules import ClampSignal, ConfigurationError

from refimpl import BAD_STEP_OVERRIDES, FIELDS, REFERENCES, assert_same_state
from refimpl import assert_ticks_match, dense_zeros, engine_tick

F32 = np.float32


def test_zero_state_stays_zero():
    ds = dense_zeros([2, 3, 2], alpha=F32(0.01), gamma=F32(0.05))
    for _ in range(4):
        ds = oracle_tick(ds)
    for arr in ds.x + ds.eps:
        assert not np.asarray(arr).any()


def test_single_neuron_chain_hand_case():
    # 1-1-1 identity chain, all weights zero, x = [1, 0, 0] top to bottom,
    # gamma=0.05, alpha=0.01. Hand evaluation: mu is zero everywhere (top
    # has no prediction, others have zero weights), so eps = [1, 0, 0];
    # all b are zero (empty latches); only the top state moves:
    # x_top <- 1 + 0.05*(0 - 1) = 0.95; weights stay zero since eps=0
    # wherever WUP runs.
    ds = dense_zeros([1, 1, 1], alpha=F32(0.01), gamma=F32(0.05))
    ds.x[0][0] = 1.0
    out = oracle_tick(ds)
    assert [float(e[0]) for e in out.eps] == [1.0, 0.0, 0.0]
    assert float(out.x[0][0]) == pytest.approx(0.95)
    assert float(out.x[1][0]) == 0.0
    assert float(out.x[2][0]) == 0.0
    for th in out.theta:
        assert not th.any()
    # the moved state is now latched downstream for the next tick
    assert float(out.states_in[1][0]) == 1.0  # pre-tick emission


def test_bad_mode_rejected():
    ds = dense_zeros([1, 1])
    with pytest.raises(ConfigurationError):
        oracle_tick(ds, mode="f32")


@pytest.mark.parametrize(
    "value", BAD_STEP_OVERRIDES.values(), ids=BAD_STEP_OVERRIDES.keys()
)
@pytest.mark.parametrize("key", ["alpha", "gamma"])
def test_bad_step_override_rejected_like_network(key, value):
    net = build_network(NetworkConfig(layer_sizes=[2, 3], seed=5))
    ds = net.snapshot()
    for tick in (net.tick, lambda **kw: oracle_tick(ds, **kw)):
        with pytest.raises(ConfigurationError, match=key):
            tick(**{key: value})


_TOP = clamp_layer([0.3, -0.6])  # a good clamp of layer 0 of a 2-4-3 net

# each builds its clamp map when called, as building some of them raises
BAD_CLAMPS = [
    lambda: {5: clamp_layer([0.1, 0.2])},
    lambda: {-1: clamp_layer([0.1, 0.2, 0.3])},
    lambda: {3: clamp_layer([0.1])},
    lambda: {1: clamp_layer([0.1, 0.2])},
    # bad entries below a layer that a tick updates first
    lambda: {0: _TOP, 2: [0.5, 0.3, 0.1]},
    lambda: {0: _TOP, 2: [*clamp_layer([0.5, 0.3]), 0.1]},
    lambda: {0: _TOP, 2: [None] * 3},
    lambda: {0: _TOP, 2: [*clamp_layer([0.5, 0.3]), ClampSignal(True, "abc")]},
    lambda: {0: _TOP, 2: [ClampSignal(True, None)] * 3},
    # a layer that is not a sequence, a map that is not a mapping, and a
    # value that is not a number
    lambda: {0: 0.5},
    lambda: {0: _TOP, 2: 0.5},
    lambda: [_TOP],
    lambda: {0: clamp_layer(["abc"])},
    lambda: {0: _TOP, 2: clamp_layer([0.5, None, 0.1])},
    # text and bools are not observations, though float() takes them; a
    # disabled signal's observation is checked too
    lambda: {0: clamp_layer(["0.5", "0.3"])},
    lambda: {0: _TOP, 2: clamp_layer([0.5, True, 0.1])},
    lambda: {0: _TOP, 2: [ClampSignal(True, True)] * 3},
    lambda: {0: _TOP, 2: [ClampSignal(False, False)] * 3},
]


@pytest.mark.parametrize(
    "clamp", BAD_CLAMPS, ids=[f"clamp{i}" for i in range(len(BAD_CLAMPS))]
)
def test_bad_clamp_rejected_like_network(clamp):
    # one clamp check, where the clamp enters: both entry points raise the
    # same message, and a rejected tick leaves the network as it was
    net = build_network(
        NetworkConfig(layer_sizes=[2, 4, 3], seed=5, alpha=0.01, gamma=0.1)
    )
    net.tick({0: _TOP, 2: clamp_layer([0.5, 0.3, 0.1])})
    ds = net.snapshot()
    with pytest.raises(ConfigurationError) as from_net:
        net.tick(clamp())
    with pytest.raises(ConfigurationError) as from_oracle:
        oracle_tick(ds, clamp())
    assert str(from_oracle.value) == str(from_net.value)
    assert_same_state(net.state, ds, exact=True)


# an int past the binary64 range, as a plain list and through clamp_layer,
# and the binary32 infinity each observation must enter as
HUGE_INT_CLAMPS = [
    (
        lambda: {0: _TOP, 2: [ClampSignal(True, 10**400)] * 3},
        {0: _TOP, 2: clamp_layer([np.inf] * 3)},
    ),
    (
        lambda: {0: _TOP, 2: clamp_layer([0.5, -(10**400), 0.1])},
        {0: _TOP, 2: clamp_layer([0.5, -np.inf, 0.1])},
    ),
]


@pytest.mark.parametrize(
    "clamp, as_inf", HUGE_INT_CLAMPS, ids=["plain", "clamp_layer"]
)
def test_huge_int_observation_enters_as_infinity(clamp, as_inf):
    # the int becomes an infinity when its signal is built, so the tick
    # runs whole: the network and the oracle leave the bytes of a tick
    # with the infinity itself, never a half-updated network
    cfg = NetworkConfig(layer_sizes=[2, 4, 3], seed=5, alpha=0.01, gamma=0.1)
    net, twin = build_network(cfg), build_network(cfg)
    for n in (net, twin):
        n.tick({0: _TOP, 2: clamp_layer([0.5, 0.3, 0.1])})
    ds = net.snapshot()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = clamp()
        assert [sig.x_obs.tobytes() for sig in built[2]] == [
            sig.x_obs.tobytes() for sig in as_inf[2]
        ]
        net.tick(built)
        from_oracle = oracle_tick(ds, built)
    twin.tick(as_inf)
    assert_same_state(net.state, twin.state, exact=True)
    assert_same_state(from_oracle, oracle_tick(ds, as_inf), exact=True)


def test_shape_validation():
    # a state is checked where it enters oracle_tick, not where it is built
    state = DenseState(
        cfg=NetworkConfig(layer_sizes=(2, 2)),
        x=[np.zeros(2, np.float32), np.zeros(3, np.float32)],
        eps=[np.zeros(2, np.float32), np.zeros(2, np.float32)],
        theta=[np.zeros((2, 1), np.float32), np.zeros((2, 3), np.float32)],
        states_in=[np.zeros(0, np.float32), np.zeros(2, np.float32)],
        back_in=[np.zeros((2, 2), np.float32), np.zeros((0, 2), np.float32)],
    )
    with pytest.raises(ConfigurationError, match="layer 1: state shape"):
        oracle_tick(state)


@pytest.mark.parametrize(
    "field, layer, shape",
    [
        ("eps", 0, (3,)),
        ("theta", 1, (3, 2)),
        ("states_in", 1, (3,)),
        ("back_in", 0, (2, 2)),
    ],
)
def test_malformed_snapshot_rejected(field, layer, shape):
    state = build_network(NetworkConfig(layer_sizes=[2, 3], seed=5)).snapshot()
    getattr(state, field)[layer] = np.zeros(shape, np.float32)
    with pytest.raises(ConfigurationError, match=f"layer {layer}"):
        oracle_tick(state)


@pytest.mark.parametrize("field", ["x", "eps", "theta", "states_in", "back_in"])
def test_snapshot_missing_a_layer_rejected(field):
    state = build_network(NetworkConfig(layer_sizes=[2, 3], seed=5)).snapshot()
    getattr(state, field).pop()
    with pytest.raises(ConfigurationError, match=field):
        oracle_tick(state)


@pytest.mark.parametrize(
    "key", ["0", None, 1.0, True, np.bool_(True), np.float32(1.0)]
)
def test_non_integer_clamp_key_rejected(key):
    net = build_network(NetworkConfig(layer_sizes=[2, 3], seed=5))
    ds = net.snapshot()
    clamp = {key: clamp_layer([0.1, 0.2, 0.3])}
    for tick in (lambda: net.tick(clamp), lambda: oracle_tick(ds, clamp)):
        with pytest.raises(ConfigurationError, match="layer index"):
            tick()


@pytest.mark.parametrize("key", [1, np.int64(1), np.uint8(1)])
def test_integer_clamp_keys_accepted(key):
    net = build_network(NetworkConfig(layer_sizes=[2, 3], seed=5))
    ds = net.snapshot()
    clamp = {key: clamp_layer([0.1, 0.2, 0.3])}
    net.tick(clamp)
    assert compare_to_network(net, oracle_tick(ds, clamp)) is None


def test_random_net_bit_identical_to_simulator():
    # against both references: 25 ticks at the configured step sizes, then
    # 16 distinct per-tick overrides interleaved with the configured ones
    cfg = NetworkConfig(
        layer_sizes=[2, 4, 3],
        activations=["identity", "relu", "identity"],
        alpha=0.01,
        gamma=0.05,
        seed=314,
    )
    clamp = {0: clamp_layer([0.4, -0.2]), 2: clamp_layer([0.1, 0.0, -0.5])}
    ticks = [(clamp, None, None)] * 25 + [
        (clamp, None, None) if t % 3 == 0 else (clamp, 0.001 * t, 0.1 - 0.002 * t)
        for t in range(24)
    ]
    for reference in REFERENCES.values():
        assert_ticks_match(reference, build_network(cfg), ticks)


def test_equivalence_suite_small():
    result = run_equivalence_suite(n_nets=12, n_ticks=10, seed=5)
    assert result["ok"], result


def _flip_low_bit(a):
    a.view(np.uint32).flat[0] ^= 1


def _faulty_engine(monkeypatch, at_call, fault):
    """Make ``Network._step`` run ``fault(network state)`` after its call
    number ``at_call`` (from 0) of this test: in the sweep, call
    ``net * n_ticks + tick``."""
    step = Network._step
    calls = itertools.count()

    def faulty(self, *args):
        report = step(self, *args)
        if next(calls) == at_call:
            fault(self.state)
        return report

    monkeypatch.setattr(Network, "_step", faulty)


@pytest.mark.parametrize(
    "net, tick, layer, field",
    [
        (2, 5, 1, "theta"),
        # net 1 hard-clamps its whole top layer at gamma > 0: no stage reads
        # the layer's b, so only the latch comparison can see this fault
        (1, 3, 0, "back_in"),
        (3, 0, 1, "states_in"),
    ],
)
def test_sweep_names_a_one_bit_engine_fault(monkeypatch, net, tick, layer, field):
    # the sweep converts each net's clamp and step sizes once; a flipped
    # bit in one engine array at one tick is still found there, and named
    n_ticks = 8
    _faulty_engine(
        monkeypatch,
        net * n_ticks + tick,
        lambda st: _flip_low_bit(getattr(st, field)[layer]),
    )
    assert run_equivalence_suite(n_nets=6, n_ticks=n_ticks, seed=5) == {
        "ok": False,
        "nets": net + 1,
        "ticks": net * n_ticks + tick + 1,
        "mismatch": f"net {net} tick {tick}: layer {layer} field {field}",
    }


def test_sweep_sees_a_fault_in_the_engines_tanh(monkeypatch):
    # the engine's f is its own and the oracle reads scalar32's table, so
    # the engine's tanh one ulp high moves the engine alone: the sweep,
    # which passes on these nets, names where the first tanh-fed products
    # differ
    assert run_equivalence_suite(n_nets=4, n_ticks=8, seed=5)["ok"]
    right = network._ACTIVATIONS["tanh"]

    def high(x):
        return np.nextafter(right(x), np.inf)

    monkeypatch.setitem(network._ACTIVATIONS, "tanh", high)
    assert run_equivalence_suite(n_nets=4, n_ticks=8, seed=5) == {
        "ok": False,
        "nets": 2,
        "ticks": 13,
        "mismatch": "net 1 tick 4: layer 1 field back_in",
    }


@pytest.mark.parametrize("field", ["x", "eps", "theta", "states_in", "back_in"])
def test_compare_names_the_first_differing_field(field):
    net = build_network(NetworkConfig(layer_sizes=[2, 3, 2], seed=5))
    clamp = {0: clamp_layer([0.5, -0.5])}
    for _ in range(2):
        net.tick(clamp)
    state = net.snapshot()
    assert compare_to_network(net, state) is None
    # the same values in binary64, another dtype or shape over the same
    # bytes, and a layer one side lacks differ too
    for change in (
        lambda a: a.astype(np.float64), lambda a: a.view(np.int32),
        lambda a: a.reshape(1, -1),
    ):
        other = net.snapshot()
        getattr(other, field)[1] = change(getattr(other, field)[1])
        assert compare_to_network(net, other) == f"layer 1 field {field}"
    longer = net.snapshot()
    getattr(longer, field).append(getattr(longer, field)[-1].copy())
    assert compare_to_network(net, longer) == f"layer 3 field {field}"
    _flip_low_bit(getattr(state, field)[1])
    assert compare_to_network(net, state) == f"layer 1 field {field}"


def test_f64_tracks_bit32_within_drift_bound():
    # 50 ticks on [-1,1]-scale nets: binary64 and binary32 evaluations
    # agree to 1e-4 absolute per element
    for seed in (1, 2, 3):
        cfg = NetworkConfig(
            layer_sizes=[3, 5, 2],
            activations=["identity", "tanh", "identity"],
            alpha=0.01,
            gamma=0.05,
            seed=seed,
        )
        net = build_network(cfg)
        ds32 = DenseState.from_network(net)
        ds64 = DenseState.from_network(net)
        clamp = {0: clamp_layer([0.3, -0.1, 0.6])}
        for _ in range(50):
            ds32 = oracle_tick(ds32, clamp, mode="bit32")
            ds64 = oracle_tick(ds64, clamp, mode="f64")
        for s in range(3):
            assert np.allclose(ds32.x[s], ds64.x[s], atol=1e-4)
            assert np.allclose(ds32.theta[s], ds64.theta[s], atol=1e-4)
            assert np.allclose(ds32.eps[s], ds64.eps[s], atol=1e-4)


@pytest.mark.parametrize("alpha,gamma", [(0.0, 0.0), (0.01, 0.05)])
@pytest.mark.parametrize("kind", ["identity", "relu", "tanh"])
def test_f64_puts_nan_where_bit32_does(kind, alpha, gamma):
    # a NaN presynaptic state reaches the same x and eps positions in both
    # precisions: every kind's f propagates it, relu's included
    cfg = NetworkConfig(
        layer_sizes=[2, 3, 2], activations=[kind, kind, "identity"],
        alpha=alpha, gamma=gamma, seed=11,
    )
    ds32 = build_network(cfg).snapshot()
    ds32.states_in[1][0] = np.nan
    ds64 = ds32
    for t in range(3):
        ds32 = oracle_tick(ds32, mode="bit32")
        ds64 = oracle_tick(ds64, mode="f64")
        if t == 0:
            assert np.isnan(ds32.eps[1]).all()
        for name in ("x", "eps"):
            for a, b in zip(getattr(ds32, name), getattr(ds64, name)):
                assert np.array_equal(np.isnan(a), np.isnan(b)), (t, name)


# ---------------------------------------------------------------------------
# lane order of the ordered sums
# ---------------------------------------------------------------------------

# Sequential binary32 addition absorbs every 1 into 2**24; a pairwise sum
# (np.sum, np.add.reduce) adds the ones to each other first and ends higher.
ABSORBING = [2.0**24] + [1.0] * 15


def _ascending(values):
    """Test-side sequential binary32 sum from +0.0, ascending lanes."""
    acc = F32(0.0)
    for v in np.asarray(values, np.float32):
        acc = acc + v
    return acc


def _lane_state():
    """Identity net whose layer 1 has one core with 16 presyn lanes and 16
    back inputs, stored x = -0.0 and gamma = 1."""
    ds = dense_zeros((16, 1, 16), gamma=F32(1.0), clamp_hard=False)
    ds.x[1][0] = F32(-0.0)
    return ds


def _mu(tick, lane_products, bias):
    """mu of the layer-1 core after ``tick`` (``oracle_tick`` or
    ``engine_tick``), read back as -eps with x_eff = -0.0 (exact)."""
    ds = _lane_state()
    ds.theta[1][0, :16] = 1.0
    ds.theta[1][0, 16] = bias
    ds.states_in[1][:] = lane_products
    return -tick(ds).eps[1][0]


def _b(tick, back_products):
    """b of the layer-1 core after ``tick``: with zero weights and a soft
    clamp at +0.0, eps = +0.0 and the stepped x is -0.0 + 1*(1*b - 0) = b,
    sign included."""
    ds = _lane_state()
    ds.back_in[1][:, 0] = back_products
    return tick(ds, {1: clamp_layer([0.0])}).x[1][0]


def test_oracle_sums_lanes_in_ascending_order():
    # the oracle's prefix sums and the engine's scalar loops
    products = np.array(ABSORBING, np.float32)
    assert np.sum(products) != _ascending(products)  # the order is visible
    for tick in (oracle_tick, engine_tick):
        mu = _mu(tick, products, 0.0)  # the bias lane adds 0.0*1
        assert mu.tobytes() == _ascending(products).tobytes(), tick
        assert mu == F32(2.0**24), tick
        b = _b(tick, products)
        assert b.tobytes() == _ascending(products).tobytes(), tick
        assert b == F32(2.0**24), tick


def test_oracle_sums_start_from_positive_zero():
    # -0.0 + -0.0 stays -0.0; only the +0.0 seed makes these sums +0.0, in
    # the oracle and the engine
    neg = np.full(16, -0.0, np.float32)
    for tick in (oracle_tick, engine_tick):
        mu = _mu(tick, neg, -0.0)
        assert mu.tobytes() == F32(0.0).tobytes(), tick
        b = _b(tick, neg)
        assert b.tobytes() == F32(0.0).tobytes(), tick


# ---------------------------------------------------------------------------
# structural no-ops, both precisions
# ---------------------------------------------------------------------------

MODE_DTYPES = [("bit32", np.float32), ("f64", np.float64)]


def _state_in(dtype, **kw):
    """Snapshot of a ticked random 2-3-2 net, every array cast to ``dtype``."""
    cfg = NetworkConfig(
        layer_sizes=[2, 3, 2],
        activations=["tanh", "relu", "identity"],
        seed=11,
        **kw,
    )
    net = build_network(cfg)
    for _ in range(3):
        net.tick({0: clamp_layer([0.5, -0.25])}, alpha=0.01, gamma=0.05)
    ds = net.snapshot()
    for name in FIELDS:
        setattr(ds, name, [a.astype(dtype) for a in getattr(ds, name)])
    return ds


def _assert_mode_dtype(ds, dtype):
    for name in FIELDS:
        for a in getattr(ds, name):
            assert a.dtype == dtype, name


@pytest.mark.parametrize("mode,dtype", MODE_DTYPES)
def test_gamma_zero_keeps_non_finite_states(mode, dtype):
    # gamma = 0 skips STATE: an inf or NaN x is not turned into
    # x + 0*(...) = NaN
    ds = _state_in(dtype, alpha=0.01, gamma=0.0)
    ds.x[1][0] = np.inf
    ds.x[1][2] = -np.inf
    ds.x[2][1] = np.nan
    out = oracle_tick(ds, mode=mode)
    for s in range(3):
        assert out.x[s].tobytes() == ds.x[s].tobytes()
    _assert_mode_dtype(out, dtype)


@pytest.mark.parametrize("mode,dtype", MODE_DTYPES)
def test_alpha_zero_keeps_weights_under_nan_error(mode, dtype):
    # alpha = 0 skips WUP: a NaN eps does not reach theta through 0*NaN
    ds = _state_in(dtype, alpha=0.0, gamma=0.05)
    ds.x[1][1] = np.nan
    ds.x[2][0] = np.nan
    out = oracle_tick(ds, mode=mode)
    assert np.isnan(out.eps[1][1]) and np.isnan(out.eps[2][0])
    for s in range(3):
        assert out.theta[s].tobytes() == ds.theta[s].tobytes()
    _assert_mode_dtype(out, dtype)


# ---------------------------------------------------------------------------
# the result owns its arrays
# ---------------------------------------------------------------------------

OWNERSHIP_CLAMPS = {
    "unclamped": None,
    "every_core": {0: clamp_layer([0.5, -0.25]), 2: clamp_layer([0.1, -0.3])},
    "some_cores": {
        0: [ClampSignal(True, 0.5), ClampSignal(False, 0.0)],
        2: [ClampSignal(False, 0.0), ClampSignal(True, -0.3)],
    },
}


@pytest.mark.parametrize("clamp", OWNERSHIP_CLAMPS.values(), ids=OWNERSHIP_CLAMPS)
@pytest.mark.parametrize("clamp_hard", [True, False], ids=["hard", "soft"])
@pytest.mark.parametrize("gamma", [0.0, 0.05])
@pytest.mark.parametrize("alpha", [0.0, 0.01])
@pytest.mark.parametrize("in_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode,dtype", MODE_DTYPES)
def test_oracle_tick_result_owns_its_arrays(
    mode, dtype, in_dtype, alpha, gamma, clamp_hard, clamp
):
    # an input that has the mode's dtype is read where it lies: the tick
    # must still leave its bytes alone and hand back arrays of its own
    ds = _state_in(in_dtype, alpha=alpha, gamma=gamma, clamp_hard=clamp_hard)
    before = copy.deepcopy(ds)
    out = oracle_tick(ds, clamp, mode=mode)
    assert_same_state(ds, before, exact=True)
    _assert_mode_dtype(out, dtype)
    ins = [a for name in FIELDS for a in getattr(ds, name)]
    outs = [a for name in FIELDS for a in getattr(out, name)]
    for o in outs:
        assert not any(np.shares_memory(o, i) for i in ins)
    for a, b in itertools.combinations(outs, 2):
        assert not np.shares_memory(a, b)


def test_sweep_states_own_their_arrays(monkeypatch):
    # the sweep converts a net's clamp once and hands the same arrays to
    # every tick: no state it makes may take one of them, or an array of
    # the state it came from, as its own
    step = oracle._step
    ticks = []

    def checked(state, clamps, *args):
        out = step(state, clamps, *args)
        held = [a for layer in clamps if layer for a in layer if a is not None]
        held += [a for name in FIELDS for a in getattr(state, name)]
        for o in (a for name in FIELDS for a in getattr(out, name)):
            assert not any(np.shares_memory(o, h) for h in held)
        ticks.append(out)
        return out

    monkeypatch.setattr(oracle, "_step", checked)
    assert run_equivalence_suite(n_nets=12, n_ticks=3, seed=5)["ok"]
    assert len(ticks) == 36
