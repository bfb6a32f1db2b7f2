"""Dense oracle tests: hand cases, bit-exact equivalence, f64 drift bound."""

import numpy as np
import pytest

from pcsub.errors import ConfigurationError
from pcsub.network import ClampSignal, NetworkConfig, build_network, clamp_layer
from pcsub.oracle import (
    DenseState,
    compare_to_network,
    oracle_tick,
    run_equivalence_suite,
)

F32 = np.float32


def dense_zeros(sizes, acts=None, **kw):
    """All-zero state; step sizes default to 0 unless given in ``kw``."""
    kw = {"alpha": 0.0, "gamma": 0.0, **kw}
    n = len(sizes)
    return DenseState(
        cfg=NetworkConfig(layer_sizes=sizes, activations=acts, **kw),
        x=[np.zeros(k, np.float32) for k in sizes],
        eps=[np.zeros(k, np.float32) for k in sizes],
        theta=[
            np.zeros((k, (sizes[s - 1] if s else 0) + 1), np.float32)
            for s, k in enumerate(sizes)
        ],
        states_in=[
            np.zeros(sizes[s - 1] if s else 0, np.float32) for s in range(n)
        ],
        back_in=[
            np.zeros((sizes[s + 1] if s < n - 1 else 0, k), np.float32)
            for s, k in enumerate(sizes)
        ],
    )


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
    "value", [float("nan"), float("inf"), -float("inf"), 1e39, -0.01]
)
@pytest.mark.parametrize("key", ["alpha", "gamma"])
def test_bad_step_override_rejected_like_network(key, value):
    net = build_network(NetworkConfig(layer_sizes=[2, 3], seed=5))
    ds = net.snapshot()
    for tick in (net.tick, lambda **kw: oracle_tick(ds, **kw)):
        with pytest.raises(ConfigurationError, match=key):
            tick(**{key: value})


def _state_bytes(state) -> list:
    return [
        a.tobytes()
        for name in ("x", "eps", "theta", "states_in", "back_in")
        for a in getattr(state, name)
    ]


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
    before = _state_bytes(ds)
    with pytest.raises(ConfigurationError) as from_net:
        net.tick(clamp())
    with pytest.raises(ConfigurationError) as from_oracle:
        oracle_tick(ds, clamp())
    assert str(from_oracle.value) == str(from_net.value)
    assert _state_bytes(net.state) == before


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
    cfg = NetworkConfig(
        layer_sizes=[2, 4, 3],
        activations=["identity", "relu", "identity"],
        alpha=0.01,
        gamma=0.05,
        seed=314,
    )
    net = build_network(cfg)
    ds = DenseState.from_network(net)
    clamp = {0: clamp_layer([0.4, -0.2]), 2: clamp_layer([0.1, 0.0, -0.5])}
    for _ in range(25):
        net.tick(clamp)
        ds = oracle_tick(ds, clamp)
        assert compare_to_network(net, ds) is None
    # 16 distinct per-tick step-size overrides, interleaved with the
    # built-in step sizes
    for t in range(24):
        steps = {} if t % 3 == 0 else {"alpha": 0.001 * t, "gamma": 0.1 - 0.002 * t}
        net.tick(clamp, **steps)
        ds = oracle_tick(ds, clamp, **steps)
        assert compare_to_network(net, ds) is None


def test_equivalence_suite_small():
    result = run_equivalence_suite(n_nets=12, n_ticks=10, seed=5)
    assert result["ok"], result


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


def _oracle_mu(lane_products, bias):
    """mu of the layer-1 core, read back as -eps with x_eff = -0.0 (exact)."""
    ds = _lane_state()
    ds.theta[1][0, :16] = 1.0
    ds.theta[1][0, 16] = bias
    ds.states_in[1][:] = lane_products
    return -oracle_tick(ds).eps[1][0]


def _oracle_b(back_products):
    """b of the layer-1 core: with zero weights and a soft clamp at +0.0,
    eps = +0.0 and the stepped x is -0.0 + 1*(1*b - 0) = b, sign included."""
    ds = _lane_state()
    ds.back_in[1][:, 0] = back_products
    return oracle_tick(ds, {1: clamp_layer([0.0])}).x[1][0]


def test_oracle_sums_lanes_in_ascending_order():
    products = np.array(ABSORBING, np.float32)
    assert np.sum(products) != _ascending(products)  # the order is visible
    mu = _oracle_mu(products, 0.0)  # the bias lane adds 0.0*1
    assert mu.tobytes() == _ascending(products).tobytes()
    assert mu == F32(2.0**24)
    b = _oracle_b(products)
    assert b.tobytes() == _ascending(products).tobytes()
    assert b == F32(2.0**24)


def test_oracle_sums_start_from_positive_zero():
    # -0.0 + -0.0 stays -0.0; only the +0.0 seed makes these sums +0.0
    neg = np.full(16, -0.0, np.float32)
    mu = _oracle_mu(neg, -0.0)
    assert mu.tobytes() == F32(0.0).tobytes()
    b = _oracle_b(neg)
    assert b.tobytes() == F32(0.0).tobytes()


# ---------------------------------------------------------------------------
# structural no-ops, both precisions
# ---------------------------------------------------------------------------

MODE_DTYPES = [("bit32", np.float32), ("f64", np.float64)]
FIELDS = ("x", "eps", "theta", "states_in", "back_in")


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
