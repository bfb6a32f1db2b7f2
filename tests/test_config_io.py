"""PRNG golden vectors, config parsing, checkpoint round trips."""

import contextlib
import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pcsub import rules
from pcsub.checkpoint import load_checkpoint, save_checkpoint
from pcsub.config import DEFAULTS, experiment_config, parse_config
from pcsub.harness import HARNESS_RULES, TeacherSpec, TrainProtocol, generate_dataset
from pcsub.network import NETWORK_RULES, Network, NetworkConfig, clamp_layer
from pcsub.rules import (
    CheckpointError,
    ClampSignal,
    ConfigParseError,
    ConfigurationError,
)
from pcsub.oracle import oracle_tick
from pcsub.prng import Prng

F32 = np.float32

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------


def test_prng_golden_vectors():
    vectors = {}
    for line in (DATA / "prng_vectors.txt").read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        seed, idx, hexval = line.split()
        vectors[(int(seed), int(idx))] = float.fromhex(hexval)
    assert len(vectors) == 48
    for seed in (0, 1, 42):
        gen = Prng(seed)
        for idx in range(16):
            assert gen.uniform01() == vectors[(seed, idx)], (seed, idx)


def test_prng_first_draw_seed1():
    # frozen from the reference algorithm
    assert Prng(1).uniform(0.0, 1.0) == F32(0.5665616)


def test_prng_lo_equals_hi():
    assert Prng(9).uniform(0.25, 0.25) == F32(0.25)


def test_prng_same_seed_same_stream():
    a, b = Prng(123), Prng(123)
    assert [a.uniform(-1, 1) for _ in range(64)] == [
        b.uniform(-1, 1) for _ in range(64)
    ]


def test_prng_range():
    gen = Prng(5)
    draws = [float(gen.uniform(-0.5, 0.5)) for _ in range(1000)]
    assert all(-0.5 <= d <= 0.5 for d in draws)
    assert min(draws) < -0.4 and max(draws) > 0.4


def test_prng_rejects_inverted_range():
    with pytest.raises(ValueError):
        Prng(0).uniform(1.0, 0.0)


def test_prng_binary32_bounds_map_in_binary64():
    lo, hi = F32(-0.3), F32(0.7)
    a, b = Prng(7), Prng(7)
    got = a.fill_uniform(2000, lo, hi)
    assert got.tobytes() == b.fill_uniform(2000, float(lo), float(hi)).tobytes()
    assert a.uniform(lo, hi) == b.uniform(float(lo), float(hi))


def _scalar_fill(gen, shape, lo, hi):
    """The scalar definition: one ``uniform`` call per element, C-order."""
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for i in range(flat.size):
        flat[i] = gen.uniform(lo, hi)
    return out


_SEEDS = st.integers(0, 2**64 - 1)
# hypothesis favours small integers; the second range keeps draws of
# 1,000-2,000 elements, where a defect may show only late, in play
_LENGTHS = st.one_of(st.integers(0, 64), st.integers(1000, 2000))
_SHAPES = st.one_of(
    st.just(()),
    st.tuples(_LENGTHS),
    st.tuples(st.integers(0, 45), st.integers(0, 45)),
)
_BOUND = st.floats(-1e38, 1e38)
_RANGES = st.one_of(
    st.tuples(_BOUND, _BOUND).map(sorted),
    st.one_of(st.sampled_from([0.0, -0.0]), _BOUND).map(lambda v: (v, v)),
)


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, shape=_SHAPES, bounds=_RANGES)
@example(seed=2**64 - 1, shape=(2000,), bounds=(-1.0, 1.0))
@example(seed=12345678901234567, shape=(45, 45), bounds=(-1e30, 1e30))
def test_fill_uniform_matches_scalar_stream(seed, shape, bounds):
    lo, hi = bounds
    fast, slow = Prng(seed), Prng(seed)
    got = fast.fill_uniform(shape, lo, hi)
    want = _scalar_fill(slow, shape, lo, hi)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert fast.state == slow.state
    if lo == hi:
        assert fast.state == seed  # no draw consumed
    # a later scalar draw continues the same stream
    assert fast.uniform(-1.0, 1.0).tobytes() == slow.uniform(-1.0, 1.0).tobytes()


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, shape=_SHAPES, bounds=st.tuples(_BOUND, _BOUND))
def test_fill_uniform_rejects_inverted_range_before_drawing(seed, shape, bounds):
    hi, lo = sorted(bounds)
    if lo == hi:
        lo = np.nextafter(hi, np.inf)
    gen = Prng(seed)
    with pytest.raises(ValueError):
        gen.fill_uniform(shape, lo, hi)
    assert gen.state == seed


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_layer_sizes():
    cfg = parse_config("layer_sizes = 2,4,3\n")
    assert cfg.layer_sizes == [2, 4, 3]


@pytest.mark.parametrize(
    "key, raw", [("layer_sizes", "2,,3"), ("layer_sizes", "2, 3,"),
                 ("activations", "relu,, identity"), ("activations", ", relu")],
)
def test_empty_list_item_rejected_on_its_line(key, raw):
    with pytest.raises(ConfigParseError) as exc:
        parse_config(f"seed = 2\n{key} = {raw}\n")
    assert exc.value.errors == [(2, f"{key}: empty list item in {raw!r}")]


def test_parse_negative_gamma_rejected():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("gamma = -0.1\n")
    assert any("gamma" in msg for _, msg in exc.value.errors)


FLOAT_KEYS = (
    "alpha", "gamma", "init_scale", "alpha_bias_scale", "teacher_weight_scale"
)


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e39", "-3.5e38"])
def test_parse_non_finite_binary32_rejected(key, raw):
    with pytest.raises(ConfigParseError) as exc:
        parse_config(f"seed = 2\n{key} = {raw}\n")
    want = f"{key} must be finite in binary32, got {float(raw)!r}"
    assert exc.value.errors == [(2, want)]


@pytest.mark.parametrize("key", ["alpha", "gamma", "init_scale", "alpha_bias_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e39])
def test_network_config_non_finite_binary32_rejected(key, value):
    with pytest.raises(ConfigurationError, match=key):
        NetworkConfig(layer_sizes=(2, 3), **{key: value})


@pytest.mark.parametrize("key", ["alpha", "gamma", "init_scale"])
def test_network_config_negative_rejected(key):
    with pytest.raises(ConfigurationError, match=f"{key} must be >= 0"):
        NetworkConfig(layer_sizes=(2, 3), **{key: -0.5})


@pytest.mark.parametrize(
    "sizes", [[2, 2.7], [True, 3], [2, 2.0], [np.bool_(True), 3], ["2", 3]]
)
def test_network_config_non_integer_layer_size_rejected(sizes):
    # int() would turn 2.7 into 2 and True into 1
    with pytest.raises(ConfigurationError, match="layer_sizes must be an integer"):
        NetworkConfig(sizes)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
def test_network_config_seed_outside_64_bits_rejected(seed):
    # Prng keeps seed mod 2**64: 2**64 would build seed 0's weights
    with pytest.raises(ConfigurationError, match="seed"):
        NetworkConfig((2, 3), seed=seed)


def test_network_config_integer_values_accepted():
    cfg = NetworkConfig((np.int64(2), np.uint8(3)), seed=np.uint64(2**64 - 1))
    assert cfg.layer_sizes == (2, 3) and cfg.seed == 2**64 - 1
    assert all(type(v) is int for v in cfg.layer_sizes + (cfg.seed,))
    assert NetworkConfig((2, 3), seed=0).seed == 0


@pytest.mark.parametrize("raw", ["-1", "0x10000000000000000"])
def test_parse_seed_outside_64_bits_rejected(raw):
    with pytest.raises(ConfigParseError) as exc:
        parse_config(f"seed = {raw}\nteacher_seed = {raw}\n")
    assert [line for line, _ in exc.value.errors] == [1, 2]
    assert "seed" in exc.value.errors[0][1]
    assert "teacher_seed" in exc.value.errors[1][1]


def test_parse_empty_file_defaults_with_notice(caplog):
    with caplog.at_level(logging.INFO, logger="pcsub.config"):
        cfg = parse_config("")
    assert cfg.alpha == DEFAULTS["alpha"]
    assert cfg.layer_sizes == DEFAULTS["layer_sizes"]
    assert "defaults" in caplog.text
    # the notice names every key, each once
    named = caplog.records[-1].getMessage().rpartition(": ")[2].split(", ")
    assert sorted(named) == sorted(DEFAULTS)


def test_parse_unknown_key_line_number():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("alpha = 0.01\nbogus = 3\n")
    assert exc.value.errors == [(2, "unknown key 'bogus'")]


def test_parse_type_mismatch():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("epochs = many\n")
    assert exc.value.errors[0][0] == 1


def test_parse_duplicate_key():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("alpha = 0.1\nalpha = 0.2\n")
    assert "duplicate" in exc.value.errors[0][1]


def test_parse_comments_and_bools():
    cfg = parse_config(
        "# experiment setup\n"
        "clamp_hard = false  # soft clamping\n"
        "activations = identity, tanh, identity\n"
        "layer_sizes = 2, 2, 1\n"
    )
    assert cfg.clamp_hard is False
    assert cfg.activations == ["identity", "tanh", "identity"]


def test_parse_activation_count_mismatch():
    with pytest.raises(ConfigParseError):
        parse_config("layer_sizes = 2,4,3\nactivations = relu,identity\n")


def test_parse_empty_out_csv_rejected():
    # an empty path would name the working directory, found only once the
    # whole run is trained and its curve written
    with pytest.raises(ConfigParseError) as exc:
        parse_config("seed = 2\nout_csv =\n")
    assert exc.value.errors == [(2, "out_csv: must name a file, got an empty value")]


def test_parse_collects_multiple_errors():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("whats = this\nepochs = x\n")
    assert len(exc.value.errors) == 2


# key -> (a bad value as file text, the same value given to the object that
# consumes the key). The bool keys are missing: a file's bool text parses
# to True or False or fails to parse, so their rule cannot fail there.
_NET = dict(layer_sizes=(2, 4, 3))
_PROTO = dict(infer_ticks=1, learn_ticks=1, epochs=1, eval_ticks=1)
_SPEC = dict(kind="relu_teacher", dims=(2, 4, 3), seed=1, weight_scale=1.0)
DRIFT_CASES = {
    "layer_sizes": ("2, 0", lambda: NetworkConfig((2, 0))),
    "activations": (
        "identity, bogus, identity",
        lambda: NetworkConfig(activations=("identity", "bogus", "identity"), **_NET),
    ),
    "alpha": ("-0.5", lambda: NetworkConfig(alpha=-0.5, **_NET)),
    "gamma": ("inf", lambda: NetworkConfig(gamma=float("inf"), **_NET)),
    "init_scale": ("-1", lambda: NetworkConfig(init_scale=-1.0, **_NET)),
    "alpha_bias_scale": ("1e39", lambda: NetworkConfig(alpha_bias_scale=1e39, **_NET)),
    "seed": ("-1", lambda: NetworkConfig(seed=-1, **_NET)),
    "infer_ticks": ("0", lambda: TrainProtocol(**dict(_PROTO, infer_ticks=0))),
    "learn_ticks": ("-1", lambda: TrainProtocol(**dict(_PROTO, learn_ticks=-1))),
    "epochs": ("0", lambda: TrainProtocol(**dict(_PROTO, epochs=0))),
    "eval_ticks": ("0", lambda: TrainProtocol(**dict(_PROTO, eval_ticks=0))),
    "n_samples": ("0", lambda: generate_dataset(TeacherSpec(**_SPEC), 0)),
    "teacher_kind": ("x", lambda: TeacherSpec(**dict(_SPEC, kind="x"))),
    "teacher_seed": (
        "0x10000000000000000", lambda: TeacherSpec(**dict(_SPEC, seed=2**64))
    ),
    "teacher_weight_scale": (
        "nan", lambda: TeacherSpec(**dict(_SPEC, weight_scale=float("nan")))
    ),
}
BOOL_KEYS = {"clamp_hard", "bias_frozen", "reset_between_samples"}


def test_drift_cases_cover_every_rule():
    ruled = set(NETWORK_RULES) | set(HARNESS_RULES) | {"activations"}
    assert set(DRIFT_CASES) == ruled - BOOL_KEYS


@pytest.mark.parametrize("key", sorted(DRIFT_CASES))
def test_file_and_library_reject_a_bad_value_alike(key):
    raw, build = DRIFT_CASES[key]
    with pytest.raises(ConfigurationError) as api:
        build()
    with pytest.raises(ConfigParseError) as text:
        parse_config(f"# {key} on line 2\n{key} = {raw}\n")
    assert text.value.errors == [(2, str(api.value))]


def test_parse_reports_errors_in_line_order():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("teacher_seed = -1\nepochs = 0\nbogus = 1\nseed = -1\n")
    assert [line for line, _ in exc.value.errors] == [1, 2, 3, 4]


SWITCHES = {
    "clamp_hard": lambda v: NetworkConfig((1, 1), clamp_hard=v),
    "bias_frozen": lambda v: NetworkConfig((1, 1), bias_frozen=v),
    "reset_between_samples": (
        lambda v: TrainProtocol(1, 1, 1, 1, reset_between_samples=v)
    ),
    "x_set_en": lambda v: ClampSignal(x_set_en=v),
}


@pytest.mark.parametrize("key", sorted(SWITCHES))
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None, np.float64(1.0)])
def test_switches_reject_non_bools(key, value):
    # read by truthiness, NetworkConfig((1, 1), clamp_hard='false') would
    # clamp hard
    with pytest.raises(ConfigurationError) as exc:
        SWITCHES[key](value)
    with pytest.raises(ConfigurationError) as rule:
        rules.boolean(key, value)
    assert str(exc.value) == str(rule.value) == f"{key} must be a bool, got {value!r}"


@pytest.mark.parametrize("key", sorted(SWITCHES))
@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
def test_switches_accept_python_and_numpy_bools(key, value):
    built = SWITCHES[key](value)
    assert getattr(built, key) == value
    assert type(getattr(built, key)) is bool


_DTYPES = st.sampled_from(
    [np.bool_, np.int8, np.int64, np.uint64, np.float16, np.float32, np.float64,
     np.complex128]
).map(np.dtype)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.complex_numbers(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([10**400, -(10**400), 2**64, 2**128]),
    st.floats(),  # NaN and infinities included
    _DTYPES.flatmap(lambda dtype: npst.from_dtype(dtype).map(dtype.type)),
    npst.arrays(_DTYPES, npst.array_shapes(min_dims=0, max_dims=2, max_side=3)),
    # names that some rule accepts, so its accepting path runs too
    st.sampled_from(["relu", "tanh", "bit32", "f64", "tanh_teacher", "tanh_ts"]),
)
_ANY_VALUE = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=4,
)


def _net22():
    return Network(NetworkConfig((2, 2)))


def _entry_points(value) -> list:
    """Calls that each hand ``value`` to one input rule, with every other
    argument valid."""
    net = _net22()
    calls = [
        lambda key=key, rule=rule: rule(key, value)
        for key, rule in {**NETWORK_RULES, **HARNESS_RULES}.items()
    ]
    calls += [
        lambda: rules.activations(value, 2),
        lambda: ClampSignal(True, value),
        lambda: ClampSignal(value, 0.0),
        lambda: net.tick(alpha=value),
        lambda: net.tick(gamma=value),
        lambda: oracle_tick(net.snapshot(), mode=value),
        lambda: experiment_config(value),
    ]
    calls += [
        lambda name=name: TeacherSpec(**dict(_SPEC, **{name: value}))
        for name in _SPEC
    ]
    calls += [
        lambda name=name: TrainProtocol(**dict(_PROTO, **{name: value}))
        for name in [*_PROTO, "reset_between_samples"]
    ]
    return calls


@settings(max_examples=200, deadline=None)
@given(value=_ANY_VALUE)
@example(value=None)
@example(value=True)
@example(value="0.1")
@example(value=10**400)
@example(value=["bit32"])
def test_every_input_rule_returns_or_raises_configuration_error(value):
    # any Python object: a rule returns, or raises ConfigurationError and
    # nothing else (pytest.ini makes a RuntimeWarning an error too)
    for call in _entry_points(value):
        with contextlib.suppress(ConfigurationError):
            call()


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(
            lambda: NetworkConfig((2, 2), alpha=True),
            "alpha must be a real number",
            id="alpha-bool",
        ),
        pytest.param(
            lambda: NetworkConfig((2, 2), alpha="0.1"),
            "alpha must be a real number",
            id="alpha-text",
        ),
        pytest.param(
            lambda: _net22().tick(gamma=10**400),
            "gamma must be finite",
            id="tick-gamma-huge-int",
        ),
        pytest.param(
            lambda: oracle_tick(_net22().snapshot(), mode=["bit32"]),
            "unknown oracle mode",
            id="oracle-mode-list",
        ),
        pytest.param(
            lambda: NetworkConfig(layer_sizes=5),
            "layer_sizes must be a list or tuple",
            id="layer_sizes-int",
        ),
        pytest.param(
            lambda: TeacherSpec("relu_teacher", 3, 1, 1.0),
            "teacher dims must be a list or tuple",
            id="teacher-dims-int",
        ),
    ],
)
def test_bad_value_rejected_naming_its_key(call, message):
    # each was accepted, or escaped as TypeError or OverflowError, before
    # every kind of input had one rule
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_to_network_config():
    cfg = parse_config("layer_sizes = 3,5,2\nalpha = 0.02\nseed = 7\n")
    ncfg = cfg.to_network_config()
    assert ncfg.layer_sizes == (3, 5, 2)
    assert ncfg.alpha == 0.02
    assert ncfg.activations == ("identity",) * 3


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _fresh_net(seed=3):
    return Network(
        NetworkConfig(layer_sizes=[2, 4, 3], seed=seed, alpha=0.01, gamma=0.05)
    )


def test_checkpoint_round_trip_bits(tmp_path):
    net = _fresh_net()
    for _ in range(5):
        net.tick({0: clamp_layer([0.3, -0.8])})
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path, net.cfg)
    for name in ("theta", "x"):
        for a, b in zip(getattr(net.state, name), getattr(loaded.state, name)):
            assert a.tobytes() == b.tobytes()


def test_checkpoint_round_trip_nan_payload(tmp_path):
    net = _fresh_net()
    # a quiet NaN with a nonstandard payload
    weird = np.uint32(0x7FC00ABC).view(np.float32)
    net.state.theta[1][0, 1] = weird
    net.state.x[2] = np.array([0.0, 0.0, weird], dtype=np.float32)
    path = tmp_path / "nan.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.state.theta[1][0, 1].view(np.uint32) == np.uint32(0x7FC00ABC)
    assert loaded.state.x[2][2].view(np.uint32) == np.uint32(0x7FC00ABC)


def test_checkpoint_header_magic_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE 2 2 4 3\n" + b"\x00" * 16)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert "PCSUB1" in str(exc.value)


def test_checkpoint_truncation_error(tmp_path):
    net = _fresh_net()
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_dimension_mismatch(tmp_path):
    net = _fresh_net()
    path = tmp_path / "dims.ckpt"
    save_checkpoint(net, path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, NetworkConfig(layer_sizes=[2, 5, 3]))


def test_checkpoint_header_contents(tmp_path):
    net = _fresh_net()
    path = tmp_path / "hdr.ckpt"
    save_checkpoint(net, path)
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == b"PCSUB1 2 2 4 3"


@pytest.mark.parametrize("with_cfg", [False, True], ids=["no_cfg", "cfg"])
def test_checkpoint_huge_header_rejected_before_allocation(tmp_path, with_cfg):
    # 8e18 claimed bytes of payload: the size check must refuse the file
    # before anything of that size is built
    sizes = [1_000_000_000, 1_000_000_000, 1]
    path = tmp_path / "huge.ckpt"
    path.write_bytes(b"PCSUB1 2 1000000000 1000000000 1\n" + b"\x00" * 4)
    cfg = NetworkConfig(layer_sizes=sizes) if with_cfg else None
    n_weights = sizes[0] + sizes[1] * (sizes[0] + 1) + sizes[2] * (sizes[1] + 1)
    expected = 4 * (n_weights + sum(sizes))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"expected {expected}" in str(exc.value)
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "header",
    [
        b"PCSUB1 1 +2 3",
        b"PCSUB1 1 0_2 3",
        b"PCSUB1 1 02 3",
        b"PCSUB1\t1 2 3",
        b"PCSUB1  1 2 3\r",
    ],
    ids=["sign", "underscore", "leading_zero", "tab", "double_space_cr"],
)
def test_checkpoint_non_canonical_header_rejected(tmp_path, header):
    # each parses to sizes (2, 3) and has the right payload size, but only
    # the canonical header would be saved back byte for byte
    path = tmp_path / "net.ckpt"
    save_checkpoint(Network(NetworkConfig(layer_sizes=[2, 3], seed=4)), path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert "'PCSUB1 1 2 3'" in str(exc.value)


def _replacement_tokens(old: bytes):
    """Other numbers, junk, raw bytes, or ``old`` respelled with a sign,
    leading zeros or extra whitespace."""
    return st.one_of(
        st.integers(-3, 10**12).map(lambda v: str(v).encode()),
        st.text("0123456789+-_ \t\r\nx", max_size=6).map(str.encode),
        st.binary(max_size=4),
        st.tuples(
            st.sampled_from([b"", b"+", b"0", b"00", b" ", b"\t"]),
            st.sampled_from([b"", b" ", b"\r", b"\t"]),
        ).map(lambda affixes: affixes[0] + old + affixes[1]),
    )


@st.composite
def _damaged_checkpoints(draw, blob):
    """``blob`` with one header token replaced, or truncated, or with some
    payload bytes flipped."""
    nl = blob.index(b"\n")
    kind = draw(st.sampled_from(["token", "truncate", "flip"]))
    if kind == "token":
        tokens = blob[:nl].split(b" ")
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(_replacement_tokens(tokens[i]))
        return b" ".join(tokens) + blob[nl:]
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    damaged = bytearray(blob)
    for pos in draw(st.lists(st.integers(nl + 1, len(blob) - 1), min_size=1)):
        damaged[pos] ^= draw(st.integers(1, 255))
    return bytes(damaged)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding ``valid.ckpt``, a 2-4-3 network after 3 ticks."""
    path = tmp_path_factory.mktemp("checkpoint_fuzz")
    net = _fresh_net(seed=12)
    for _ in range(3):
        net.tick({0: clamp_layer([0.3, -0.8])})
    save_checkpoint(net, path / "valid.ckpt")
    return path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_checkpoint_fuzz_rejects_or_round_trips(fuzz_dir, data):
    # every input is refused with CheckpointError, or loads into a network
    # that saves back to the same bytes
    blob = data.draw(_damaged_checkpoints((fuzz_dir / "valid.ckpt").read_bytes()))
    path = fuzz_dir / "damaged.ckpt"
    path.write_bytes(blob)
    try:
        net = load_checkpoint(path)
    except CheckpointError:
        return
    save_checkpoint(net, fuzz_dir / "saved.ckpt")
    assert (fuzz_dir / "saved.ckpt").read_bytes() == blob
