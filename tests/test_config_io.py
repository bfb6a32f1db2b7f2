"""PRNG golden vectors, config parsing, checkpoint round trips."""

import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pcsub.checkpoint import load_checkpoint, save_checkpoint
from pcsub.config import DEFAULTS, parse_config
from pcsub.errors import CheckpointError, ConfigParseError, ConfigurationError
from pcsub.network import NetworkConfig, build_network, clamp_layer
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


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_layer_sizes():
    cfg = parse_config("layer_sizes = 2,4,3\n")
    assert cfg.layer_sizes == [2, 4, 3]


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


def test_parse_empty_file_defaults_with_notice(caplog):
    with caplog.at_level(logging.INFO, logger="pcsub.config"):
        cfg = parse_config("")
    assert cfg.alpha == DEFAULTS["alpha"]
    assert cfg.layer_sizes == DEFAULTS["layer_sizes"]
    assert "defaults" in caplog.text
    assert len(cfg.defaulted) == len(DEFAULTS)


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


def test_parse_collects_multiple_errors():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("whats = this\nepochs = x\n")
    assert len(exc.value.errors) == 2


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
    return build_network(
        NetworkConfig(layer_sizes=[2, 4, 3], seed=seed, alpha=0.01, gamma=0.05)
    )


def test_checkpoint_round_trip_bits(tmp_path):
    net = _fresh_net()
    for _ in range(5):
        net.tick({0: clamp_layer([0.3, -0.8])})
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path, net.cfg)
    for a, b in zip(net.layers, loaded.layers):
        assert a.weights().tobytes() == b.weights().tobytes()
        assert a.states().tobytes() == b.states().tobytes()


def test_checkpoint_round_trip_nan_payload(tmp_path):
    net = _fresh_net()
    # a quiet NaN with a nonstandard payload
    weird = np.uint32(0x7FC00ABC).view(np.float32)
    net.layers[1].cores[0].theta[1] = weird
    net.layers[2].cores[2].x = weird
    path = tmp_path / "nan.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert (
        loaded.layers[1].cores[0].theta[1].view(np.uint32) == np.uint32(0x7FC00ABC)
    )
    assert loaded.layers[2].cores[2].x.view(np.uint32) == np.uint32(0x7FC00ABC)


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
