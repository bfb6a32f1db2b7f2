"""Dense oracle tests: hand cases, bit-exact equivalence, f64 drift bound."""

import numpy as np
import pytest


from pcsub.errors import ConfigurationError
from pcsub.network import NetworkConfig, build_network, clamp_layer
from pcsub.oracle import (
    DenseState,
    compare_to_network,
    oracle_tick,
    run_equivalence_suite,
)

F32 = np.float32


def dense_zeros(sizes, acts=None, **kw):
    acts = acts or tuple("identity" for _ in sizes)
    n = len(sizes)
    return DenseState(
        layer_sizes=tuple(sizes),
        activations=tuple(acts),
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
        **kw,
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


def test_shape_validation():
    with pytest.raises(ConfigurationError):
        DenseState(
            layer_sizes=(2, 2),
            activations=("identity", "identity"),
            x=[np.zeros(2, np.float32), np.zeros(3, np.float32)],
            eps=[np.zeros(2, np.float32), np.zeros(2, np.float32)],
            theta=[np.zeros((2, 1), np.float32), np.zeros((2, 3), np.float32)],
            states_in=[np.zeros(0, np.float32), np.zeros(2, np.float32)],
            back_in=[np.zeros((2, 2), np.float32), np.zeros((0, 2), np.float32)],
        )


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
