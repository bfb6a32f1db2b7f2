"""Network composition, tick scheduling, buses, energy, determinism."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsub import core
from pcsub.checkpoint import load_checkpoint, save_checkpoint
from pcsub.core import core_tick
from pcsub.errors import ConfigurationError
from pcsub.network import (
    NO_CLAMP,
    ClampSignal,
    NetworkConfig,
    _ClampLayer,
    build_network,
    clamp_layer,
    layer_wiring,
)
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


def test_same_seed_same_weights():
    a = mknet([3, 5, 2], seed=77)
    b = mknet([3, 5, 2], seed=77)
    for wa, wb in zip(a.state.theta, b.state.theta):
        assert wa.tobytes() == wb.tobytes()
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


def test_cores_share_the_layer_weight_matrix(tmp_path):
    # core i's weights are row i of its layer's matrix: a write to
    # state.theta is what the tick, snapshot() and a checkpoint read
    cfg = NetworkConfig(layer_sizes=(2, 4, 3), seed=29, alpha=0.01, gamma=0.1)
    built = build_network(cfg)
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


# ---------------------------------------------------------------------------
# differential checks against the dense bit32 oracle
# ---------------------------------------------------------------------------

# NaN, infinities, binary32 overflow, the smallest subnormal and -0.0
# any real number is an observation: Python and numpy floats, and ints
SPECIAL_OBS = (
    float("nan"), float("inf"), -float("inf"), 1e39, 1e-45, -0.0,
    np.float32(-1e-45), np.float64(1e39), -1,
)
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
    """The per-core reference tick: the layers bottom-up and the cores of
    each layer last-to-first, each a stateless ``core_tick`` on row i of
    its layer's arrays against the same latches, then the bus swap."""
    st = net.state
    cfg = net.cfg
    alpha, gamma = F32(cfg.alpha), F32(cfg.gamma)
    sizes = cfg.layer_sizes
    new = {}
    for s in reversed(range(len(sizes))):
        n = sizes[s]
        kind = cfg.activations[s - 1] if s else "identity"
        presyn_f = apply_activation_vec(kind, st.states_in[s])
        signals = clamp.get(s)
        x, eps, rows = [None] * n, [None] * n, [None] * n
        with np.errstate(all="ignore"):  # as in Network.tick
            for i in reversed(range(n)):
                x[i], eps[i], rows[i] = core_tick(
                    cfg, s, st.x[s][i], st.theta[s][i], alpha, gamma,
                    presyn_f, st.back_in[s][:, i],
                    signals[i] if signals else NO_CLAMP,
                )
        new[s] = (
            np.array(x, dtype=np.float32),
            np.array(eps, dtype=np.float32),
            np.array(rows, dtype=np.float32).reshape(n, -1),
        )
    last = len(sizes) - 1
    st.states_in = st.states_in[:1] + st.x[:-1]
    st.back_in = [new[s + 1][2] for s in range(last)] + st.back_in[-1:]
    st.x = [new[s][0] for s in range(last + 1)]
    st.eps = [new[s][1] for s in range(last + 1)]


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


@given(case=_tick_cases())
@settings(max_examples=300, deadline=None)
def test_engine_matches_per_core_reference(case):
    """``Network.tick`` equals ``core_tick`` driven core by core over the
    latches, on every field after every tick: NaN at the same places and
    every other element byte-identical.

    NaN sign and payload are left out. The engine's BACKVEC and bias update
    are one array operation per layer, and an array operation can keep the
    other of two NaN operands than the reference's per-core scalar one, so
    theta and back_in can differ in NaN bytes on special-value ticks. One
    NaN rule for every implementation is ROADMAP item 4.
    """
    cfg, clamp, n_ticks = case
    engine, reference = build_network(cfg), build_network(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in range(n_ticks):
            engine.tick(clamp)
            _tick_bottom_up_reversed(reference, clamp)
            a, b = engine.snapshot(), reference.snapshot()
            for field in ("x", "eps", "theta", "states_in", "back_in"):
                pairs = zip(getattr(a, field), getattr(b, field))
                for s, (fa, fb) in enumerate(pairs):
                    assert _same_bits_but_nan_payload(fa, fb), (t, field, s)


def _prepared(clamp) -> dict:
    """``clamp`` with every layer prepared once: by ``clamp_layer`` where
    every signal is enabled, else as the prepared layer it makes."""
    return {
        s: clamp_layer([sig.x_obs for sig in signals])
        if all(sig.x_set_en for sig in signals)
        else _ClampLayer(signals)
        for s, signals in clamp.items()
    }


@given(case=_tick_cases())
@settings(max_examples=200, deadline=None)
def test_prepared_clamp_ticks_like_plain_lists(case):
    # a layer clamp prepared once and the same signals as a plain list,
    # converted on every tick, leave the same bytes. Both sides run the
    # same engine, so NaN bytes are compared too
    cfg, plain, n_ticks = case
    prepared = _prepared(plain)
    a, b = build_network(cfg), build_network(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in range(n_ticks):
            ra, rb = a.tick(prepared), b.tick(plain)
            assert ra == rb, t
            for field in ("x", "eps", "theta", "states_in", "back_in"):
                pairs = zip(getattr(a.state, field), getattr(b.state, field))
                for s, (fa, fb) in enumerate(pairs):
                    assert fa.tobytes() == fb.tobytes(), (t, field, s)
    for layer in prepared.values():
        assert isinstance(layer, tuple)
        with pytest.raises(TypeError):
            layer[0] = NO_CLAMP
        with pytest.raises(TypeError):
            layer.obs[0] = None
        with pytest.raises(AttributeError):
            layer.obs = ()
        with pytest.raises(AttributeError):
            del layer.obs


def test_clamp_rounds_overflow_and_nan_without_warning():
    # 1e39 overflows binary32: clamp_layer rounds it to +inf once, where it
    # builds the layer, and neither that nor the tick warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    clamp = {0: clamp_layer([0.3, -0.6]), 2: clamp_layer([0.2, 0.1, -0.4])}
    state = net.snapshot()
    for t in range(5):
        net.tick(clamp)
        state = oracle_tick(state, clamp)
        _assert_matches_oracle(net, state, t)


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
    w_before = [w.tobytes() for w in net.state.theta]
    net.reset_states()
    st = net.state
    for x, eps in zip(st.x, st.eps):
        assert x.tolist() == eps.tolist() == [0.0] * x.shape[0]
    assert not any(a.any() for a in st.states_in + st.back_in)
    assert [w.tobytes() for w in st.theta] == w_before
