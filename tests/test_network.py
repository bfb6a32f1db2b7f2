"""Network composition, tick scheduling, buses, energy, determinism."""

import threading

import numpy as np
import pytest

from pcsub.core import NO_CLAMP, ClampSignal, core_tick
from pcsub.errors import ConfigurationError
from pcsub.network import NetworkConfig, build_network, clamp_layer
from pcsub.prng import Prng
from pcsub.scalar32 import activation64, apply_activation_vec

F32 = np.float32


def mknet(sizes, **kw):
    kw.setdefault("seed", 11)
    return build_network(NetworkConfig(layer_sizes=sizes, **kw))


# ---------------------------------------------------------------------------
# construction and wiring
# ---------------------------------------------------------------------------


def test_build_2_4_3():
    net = mknet([2, 4, 3])
    assert sum(layer.size for layer in net.layers) == 9
    hidden = net.layers[1]
    assert hidden.cfg.n_presyn == 2 and hidden.cfg.m_back == 3
    top = net.layers[0]
    assert top.cfg.n_presyn == 0 and not top.cfg.has_upper
    bottom = net.layers[2]
    assert bottom.cfg.n_presyn == 4 and bottom.cfg.m_back == 0
    assert top.weights().shape == (2, 1)
    assert hidden.weights().shape == (4, 3)
    assert bottom.weights().shape == (3, 5)


def test_build_rejects_single_layer():
    with pytest.raises(ConfigurationError):
        mknet([2])


def test_build_rejects_zero_width():
    with pytest.raises(ConfigurationError):
        mknet([2, 0, 3])


def test_same_seed_same_weights():
    a = mknet([3, 5, 2], seed=77)
    b = mknet([3, 5, 2], seed=77)
    for la, lb in zip(a.layers, b.layers):
        assert la.weights().tobytes() == lb.weights().tobytes()
    c = mknet([3, 5, 2], seed=78)
    assert any(
        la.weights().tobytes() != lc.weights().tobytes()
        for la, lc in zip(a.layers, c.layers)
    )


def test_weights_match_prng_stream():
    net = mknet([2, 3, 2], seed=5, init_scale=0.25)
    rng = Prng(5)
    for layer in net.layers:
        w = layer.weights()
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                assert w[i, j] == rng.uniform(-0.25, 0.25)


def test_states_start_at_zero():
    net = mknet([2, 4, 3])
    for layer in net.layers:
        assert layer.states().tolist() == [0.0] * layer.size
        assert not layer.states_in.any()
        assert not layer.back_in.any()


# ---------------------------------------------------------------------------
# tick behavior
# ---------------------------------------------------------------------------


def test_zero_net_stays_zero():
    net = mknet([2, 4, 3], init_scale=0.0, alpha=0.01, gamma=0.05)
    for _ in range(5):
        report = net.tick()
        assert not report.diverged
    for layer in net.layers:
        assert layer.states().tolist() == [0.0] * layer.size


def test_network_cycles_2_4_3():
    net = mknet([2, 4, 3])
    report = net.tick()
    # top: M+2 = 6; hidden: 3*2+3+4 = 13; bottom: 3*4+0+4 = 16
    assert report.per_core_cycles[(0, 0)] == 6
    assert report.per_core_cycles[(1, 0)] == 13
    assert report.per_core_cycles[(2, 0)] == 16
    assert report.network_cycles == 16
    assert report.network_cycles == max(report.per_core_cycles.values())
    assert net.tick_latency() == 16
    # one read-only entry per core: 3N+M+4, or M+2 for the topmost layer
    cycles = {0: 2 + 4, 1: 3 * 2 + 3 + 4, 2: 3 * 4 + 0 + 4}
    want = {(s, i): cycles[s] for s, n in enumerate((2, 4, 3)) for i in range(n)}
    assert dict(report.per_core_cycles) == want
    with pytest.raises(TypeError):
        report.per_core_cycles[(0, 0)] = 0
    assert dict(net.tick().per_core_cycles) == want


def test_hard_clamped_input_absorbs():
    net = mknet([2, 4, 3], clamp_hard=True)
    clamp = {0: clamp_layer([0.25, -0.75])}
    report = net.tick(clamp)
    assert report.states[0].tolist() == [F32(0.25), F32(-0.75)]


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
    for s in range(len(net.layers) - 1):
        lower = net.layers[s + 1]
        w = snap_after.theta[s + 1][:, :-1]
        eps = snap_after.eps[s + 1]
        expected = (w * eps[:, None]).astype(np.float32)  # (n_lower, n_s)
        assert net.layers[s].back_in.tobytes() == expected.tobytes()


def test_registered_states_bus_lags_one_tick():
    net = mknet([1, 1], seed=9, gamma=0.0, alpha=0.0, clamp_hard=True)
    clamp = {0: clamp_layer([0.5])}
    net.tick(clamp)
    # emission was the pre-tick (zero) state
    assert net.layers[1].states_in.tolist() == [0.0]
    net.tick(clamp)
    # now the clamped value from the end of tick 1 is visible
    assert net.layers[1].states_in.tolist() == [F32(0.5)]


def test_snapshot_alpha_zero_preserves_weights():
    net = mknet([2, 4, 3], seed=21)
    before = net.snapshot()
    for _ in range(10):
        net.tick({0: clamp_layer([0.3, 0.4])}, alpha=0.0)
    after = net.snapshot()
    for wa, wb in zip(before.theta, after.theta):
        assert wa.tobytes() == wb.tobytes()


def _snapshot_bytes(net) -> list:
    snap = net.snapshot()
    return [
        a.tobytes()
        for field in (snap.x, snap.eps, snap.theta, snap.states_in, snap.back_in)
        for a in field
    ]


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), 1e39, -0.01]
)
@pytest.mark.parametrize("key", ["alpha", "gamma"])
def test_bad_step_override_rejected_network_untouched(key, value):
    net = mknet([2, 4, 3], seed=19, alpha=0.01, gamma=0.05)
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    for _ in range(3):
        net.tick(clamp)
    before = _snapshot_bytes(net)
    with pytest.raises(ConfigurationError, match=key):
        net.tick(clamp, **{key: value})
    assert _snapshot_bytes(net) == before


def test_snapshot_shapes():
    net = mknet([4, 6, 2], seed=2)
    net.tick()
    snap = net.snapshot()
    assert [w.shape for w in snap.theta] == [(4, 1), (6, 5), (2, 7)]
    assert [x.shape for x in snap.x] == [(4,), (6,), (2,)]


# ---------------------------------------------------------------------------
# schedule independence
# ---------------------------------------------------------------------------


def _run_ticks(net, n, clamp):
    for _ in range(n):
        net.tick(clamp)
    return net.snapshot()


def _tick_bottom_up_reversed(net, clamp):
    """One tick that runs the layers bottom-up and the cores of each layer
    last-to-first, against the same latches, then swaps the buses."""
    layers = net.layers
    cfg = net.cfg
    alpha, gamma = F32(cfg.alpha), F32(cfg.gamma)
    pre_x = [layer.states() for layer in layers]
    emitted = {}
    for s in reversed(range(len(layers))):
        layer = layers[s]
        kind = cfg.activations[s - 1] if s else "identity"
        presyn_f = apply_activation_vec(kind, layer.states_in)
        signals = clamp.get(s)
        rows = [None] * layer.size
        for i in reversed(range(layer.size)):
            rows[i] = core_tick(
                layer.cores[i], layer.cfg, alpha, gamma, presyn_f,
                layer.back_in[:, i], signals[i] if signals else NO_CLAMP,
                cfg.clamp_hard,
            )
        emitted[s] = np.array(rows, dtype=np.float32).reshape(layer.size, -1)
    for s, layer in enumerate(layers):
        if s > 0:
            layer.states_in = pre_x[s - 1]
        if s < len(layers) - 1:
            layer.back_in = emitted[s + 1]


def test_core_order_does_not_matter():
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    a = _run_ticks(mknet([2, 4, 3], seed=13, alpha=0.02, gamma=0.1), 20, clamp)
    net = mknet([2, 4, 3], seed=13, alpha=0.02, gamma=0.1)
    for _ in range(20):
        _tick_bottom_up_reversed(net, clamp)
    b = net.snapshot()
    for field in ("x", "eps", "theta", "states_in", "back_in"):
        for fa, fb in zip(getattr(a, field), getattr(b, field)):
            assert fa.tobytes() == fb.tobytes(), field


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
    b = result["b"]
    for xa, xb in zip(a.x, b.x):
        assert xa.tobytes() == xb.tobytes()
    for ta, tb in zip(a.theta, b.theta):
        assert ta.tobytes() == tb.tobytes()


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_zero_network():
    net = mknet([2, 4, 3], init_scale=0.0)
    assert net.energy() == 0.0


def test_energy_single_nonzero_output():
    net = mknet([1, 1, 1], init_scale=0.0)
    net.layers[2].cores[0].x = F32(0.5)
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


def test_energy_descends_when_clamped_alpha_zero():
    # identity activations, both boundaries hard clamped, alpha=0,
    # gamma=0.01: energy after each tick is non-increasing over 200 ticks
    rng = Prng(2024)
    for trial in range(20):
        net = mknet(
            [2, 4, 3],
            seed=1000 + trial,
            alpha=0.0,
            gamma=0.01,
            clamp_hard=True,
        )
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


def test_reset_states_clears_dynamics_only():
    net = mknet([2, 3, 2], seed=8)
    net.tick({0: clamp_layer([0.5, 0.5])})
    w_before = [layer.weights().tobytes() for layer in net.layers]
    net.reset_states()
    for layer, wb in zip(net.layers, w_before):
        assert layer.states().tolist() == [0.0] * layer.size
        assert layer.errors().tolist() == [0.0] * layer.size
        assert not layer.states_in.any() and not layer.back_in.any()
        assert layer.weights().tobytes() == wb
