"""Network composition, tick scheduling, buses, energy, determinism."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsub.checkpoint import load_checkpoint, save_checkpoint
from pcsub.core import NO_CLAMP, ClampSignal, core_tick
from pcsub.errors import ConfigurationError
from pcsub.network import NetworkConfig, build_network, clamp_layer
from pcsub.oracle import DenseState, oracle_tick
from pcsub.prng import Prng
from pcsub.scalar32 import ACTIVATION_KINDS, activation64, apply_activation_vec

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


def test_report_arrays_do_not_alias_the_network():
    # a report's arrays are its own: writing into them changes neither the
    # network nor a later report, and each report keeps its own tick
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    nets = [mknet([2, 4, 3], seed=23, alpha=0.01, gamma=0.1) for _ in range(2)]
    for _ in range(3):
        for net in nets:
            net.tick(clamp)
    mutated, twin = nets
    report = mutated.tick(clamp)
    twin.tick(clamp)
    for s in range(len(report.states)):
        report.states[s][:] = F32(7.0)
        report.errors[s][:] = F32(-7.0)
    assert _snapshot_bytes(mutated) == _snapshot_bytes(twin)
    got, want = mutated.tick(clamp), twin.tick(clamp)
    assert _snapshot_bytes(mutated) == _snapshot_bytes(twin)
    assert [a.tobytes() for a in got.states + got.errors] == [
        a.tobytes() for a in want.states + want.errors
    ]

    first = twin.tick(clamp)
    first_snap = twin.snapshot()
    second = twin.tick(clamp)
    second_snap = twin.snapshot()
    for report, snap in ((first, first_snap), (second, second_snap)):
        for s in range(len(snap.x)):
            assert report.states[s].tobytes() == snap.x[s].tobytes()
            assert report.errors[s].tobytes() == snap.eps[s].tobytes()
    assert any(
        a.tobytes() != b.tobytes() for a, b in zip(first.states, second.states)
    )


def test_cores_share_the_layer_weight_matrix(tmp_path):
    cfg = NetworkConfig(layer_sizes=(2, 4, 3), seed=29, alpha=0.01, gamma=0.1)
    built = build_network(cfg)
    save_checkpoint(built, tmp_path / "built.ckpt")
    loaded = load_checkpoint(tmp_path / "built.ckpt", cfg)
    for name, net in (("built", built), ("loaded", loaded)):
        net.tick({0: clamp_layer([0.3, -0.6])})
        for layer in net.layers:
            for core in layer.cores:
                assert np.shares_memory(layer.theta, core.theta)
        # a write through one core's theta shows in every layer-level view
        core = net.layers[2].cores[1]
        core.theta[3] = F32(0.125)
        assert net.layers[2].weights()[1, 3] == F32(0.125)
        assert net.snapshot().theta[2][1, 3] == F32(0.125)
        path = tmp_path / f"{name}.written.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        payload = np.frombuffer(blob, dtype="<f4", offset=blob.index(b"\n") + 1)
        # weights are stored layer-major, row-major: layers 0 and 1 first
        offset = sum(layer.theta.size for layer in net.layers[:2]) + 1 * 5 + 3
        assert payload[offset] == F32(0.125)
        stored = payload[: sum(layer.theta.size for layer in net.layers)]
        assert stored.tobytes() == b"".join(
            layer.theta.astype("<f4").tobytes() for layer in net.layers
        )


def test_snapshot_shapes():
    net = mknet([4, 6, 2], seed=2)
    net.tick()
    snap = net.snapshot()
    assert [w.shape for w in snap.theta] == [(4, 1), (6, 5), (2, 7)]
    assert [x.shape for x in snap.x] == [(4,), (6,), (2,)]


# ---------------------------------------------------------------------------
# differential checks against the dense bit32 oracle
# ---------------------------------------------------------------------------

# NaN, infinities, binary32 overflow, the smallest subnormal and -0.0
SPECIAL_OBS = (float("nan"), float("inf"), -float("inf"), 1e39, 1e-45, -0.0)
STEP_CORNERS = (0.0, 1e-40, 0.01, 0.5)


def _same_bits_but_nan_payload(a, b) -> bool:
    """NaN at the same places and every other element byte-identical.

    NaN sign and payload are left out: numpy's scalar ``+`` (the per-core
    engine) returns the second of two NaN operands and its array add (the
    oracle) the first, so a sum of two differently signed NaNs differs.
    """
    a, b = np.asarray(a, np.float32), np.asarray(b, np.float32)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (
        a.shape == b.shape
        and np.array_equal(nan_a, nan_b)
        and a[~nan_a].tobytes() == b[~nan_b].tobytes()
    )


def _assert_matches_oracle(net, state, where) -> None:
    """x, eps, theta and both latches equal the oracle's bit for bit,
    NaN payloads aside."""
    snap = net.snapshot()
    for field in ("x", "eps", "theta", "states_in", "back_in"):
        for s, (a, b) in enumerate(zip(getattr(snap, field), getattr(state, field))):
            assert _same_bits_but_nan_payload(a, b), (where, field, s)


@pytest.mark.parametrize("clamp_hard", [True, False], ids=["hard", "soft"])
def test_special_clamp_observations_match_oracle(clamp_hard):
    # every observation is read inside the tick; a binary32 conversion that
    # runs outside the tick's errstate raises here instead of warning
    net = mknet(
        [3, 4, 3],
        seed=17,
        activations=["tanh", "relu", "tanh"],
        alpha=0.01,
        gamma=0.05,
        clamp_hard=clamp_hard,
    )
    state = DenseState.from_network(net)
    k = len(SPECIAL_OBS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in range(2 * k):
            # rotate the specials over the boundary neurons; a disabled
            # signal carries one too and must never be read
            clamp = {
                0: [ClampSignal(i != 1 or t % 2 == 0, SPECIAL_OBS[(t + i) % k])
                    for i in range(3)],
                2: [ClampSignal(True, SPECIAL_OBS[(t + i + 3) % k])
                    for i in range(3)],
            }
            net.tick(clamp)
            state = oracle_tick(state, clamp, mode="bit32")
            _assert_matches_oracle(net, state, t)


_obs = st.one_of(
    st.sampled_from(SPECIAL_OBS), st.floats(-2.0, 2.0, allow_subnormal=True)
)


@st.composite
def _tick_cases(draw):
    depth = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=depth, max_size=depth))
    acts = draw(
        st.lists(st.sampled_from(ACTIVATION_KINDS), min_size=depth, max_size=depth)
    )
    cfg = NetworkConfig(
        layer_sizes=sizes,
        activations=acts,
        alpha=draw(st.sampled_from(STEP_CORNERS)),
        gamma=draw(st.sampled_from(STEP_CORNERS)),
        clamp_hard=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    clamp = {}
    for s, n in enumerate(sizes):
        if draw(st.booleans()):
            clamp[s] = [ClampSignal(draw(st.booleans()), draw(_obs)) for _ in range(n)]
    return cfg, clamp, draw(st.integers(1, 6))


@given(case=_tick_cases())
@settings(max_examples=300, deadline=None)
def test_tick_matches_oracle_property(case):
    cfg, clamp, n_ticks = case
    net = build_network(cfg)
    state = DenseState.from_network(net)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in range(n_ticks):
            net.tick(clamp)
            state = oracle_tick(state, clamp, mode="bit32")
            _assert_matches_oracle(net, state, t)


def test_wide_net_matches_oracle_bytes():
    # widths past the 8-lane point where a pairwise sum would change bits
    net = mknet(
        [64, 128, 64],
        seed=5,
        activations=["identity", "tanh", "identity"],
        alpha=0.01,
        gamma=0.05,
    )
    rng = Prng(77)
    clamp = {
        0: clamp_layer([rng.uniform(-1, 1) for _ in range(64)]),
        2: clamp_layer([rng.uniform(-1, 1) for _ in range(64)]),
    }
    state = DenseState.from_network(net)
    for t, alpha in enumerate([0.0] * 4 + [0.01] * 4):
        net.tick(clamp, alpha=alpha)
        state = oracle_tick(state, clamp, mode="bit32", alpha=alpha)
        snap = net.snapshot()
        for field in ("x", "eps", "theta", "states_in", "back_in"):
            pairs = zip(getattr(snap, field), getattr(state, field))
            for s, (a, b) in enumerate(pairs):
                assert a.tobytes() == b.tobytes(), (t, field, s)


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


def test_energy_of_diverged_network_is_non_finite_without_warning():
    # the inf weight meets a zero state (inf * 0) in the binary64 matmul;
    # pytest.ini turns a RuntimeWarning into an error, so a warning would
    # fail this test
    net = mknet([2, 3, 2], seed=6)
    net.layers[1].cores[0].x = F32("nan")
    net.layers[1].theta[0, 1] = F32("inf")
    assert not np.isfinite(net.energy())


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
