"""Golden bits: tick digests, epoch-0 MSEs and full-curve CSV hashes.

Every value in ``tests/data/golden.json`` was recorded from the per-core
engine before any scheduler change and must stay byte-identical through
every refactor. The tick cases together cover every activation, hard,
soft and absent clamping, alpha in {0, 0.01} x gamma in {0, 0.05},
per-tick alpha/gamma overrides, ``bias_frozen`` and
``alpha_bias_scale != 1``. ``deep_reverse_gamma_override`` and
``relu_soft_threads3`` were recorded with the scheduling arguments
``reverse_order=True`` and ``threads=3`` of an earlier ``Network.tick``;
those arguments are gone, and the cases keep their names and digests as
proof that they never changed a bit.

The sha256 of each canned experiment's full 25-epoch CSV is checked on
the CSV of the session-wide ``canned_curves`` fixture (``conftest.py``),
which acceptance criteria 5, 6 and 7 also read, so in a full run each
curve is computed once. ``relu_ts_8x2_no_reset`` pins the one curve that
trains without a reset between samples: ``relu_ts`` cut to 8 samples and
2 epochs.

Regenerate (only when a change is meant to alter the bits, and say so):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pcsub.config import EXPERIMENTS, experiment_config, run_experiment
from pcsub.harness import dataset_for, evaluate_dataset, run_config
from pcsub.network import Network, NetworkConfig, clamp_layer
from pcsub.prng import Prng

GOLDEN = Path(__file__).parent / "data" / "golden.json"
N_TICKS = 50

# name -> (NetworkConfig kwargs, clamp mode, tick schedule)
# clamp mode: "hard"/"soft" clamp top and bottom layers, "none" clamps nothing.
# schedule: "plain" ticks with the built-in step sizes; "harness" alternates
# 3 ticks at an alpha = 0 override with 2 at the built-in alpha; "gamma"
# overrides gamma to 0.05 on every third tick.
TICK_CASES = {
    "identity_hard_a01_g05": (
        dict(layer_sizes=(2, 4, 3), alpha=0.01, gamma=0.05, seed=3),
        "hard", "plain",
    ),
    "relu_soft_a01_g05_bias_scale": (
        dict(layer_sizes=(3, 5, 2), activations=("identity", "relu", "identity"),
             alpha=0.01, gamma=0.05, alpha_bias_scale=0.5, seed=4),
        "soft", "plain",
    ),
    "tanh_hard_harness_bias_frozen": (
        dict(layer_sizes=(2, 3, 1), activations=("identity", "tanh", "identity"),
             alpha=0.01, gamma=0.05, bias_frozen=True, seed=5),
        "hard", "harness",
    ),
    "tanh_all_noclamp_a01_g05": (
        dict(layer_sizes=(2, 4, 3), activations=("tanh", "tanh", "tanh"),
             alpha=0.01, gamma=0.05, seed=6, init_scale=0.9),
        "none", "plain",
    ),
    "relu_hard_a0_g0": (
        dict(layer_sizes=(4, 3, 2), activations=("relu", "relu", "identity"),
             alpha=0.0, gamma=0.0, seed=7),
        "hard", "plain",
    ),
    "mixed_soft_a0_g05": (
        dict(layer_sizes=(2, 4, 3), activations=("identity", "relu", "tanh"),
             alpha=0.0, gamma=0.05, seed=8),
        "soft", "plain",
    ),
    "deep_hard_a01_g0": (
        dict(layer_sizes=(3, 3, 3, 3), activations=("identity", "tanh", "relu", "identity"),
             alpha=0.01, gamma=0.0, seed=9),
        "hard", "plain",
    ),
    "deep_reverse_gamma_override": (
        dict(layer_sizes=(2, 5, 4, 2), activations=("tanh", "relu", "tanh", "identity"),
             alpha=0.01, gamma=0.1, alpha_bias_scale=2.0, seed=10),
        "hard", "gamma",
    ),
    "relu_soft_threads3": (
        dict(layer_sizes=(2, 4, 3), activations=("identity", "relu", "identity"),
             alpha=0.01, gamma=0.05, seed=12),
        "soft", "harness",
    ),
}


def _f32_bytes(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tick_overrides(schedule: str, t: int) -> dict:
    if schedule == "harness":
        return {"alpha": 0.0} if t % 5 < 3 else {}
    if schedule == "gamma":
        return {"gamma": 0.05} if t % 3 == 0 else {}
    return {}


def tick_digest(name: str) -> dict:
    """Run one case for N_TICKS ticks; sha256 of x/eps/theta and of every
    tick's report (cycles, divergence flag) and post-tick x and eps."""
    kwargs, mode, schedule = TICK_CASES[name]
    if mode == "soft":
        kwargs = dict(kwargs, clamp_hard=False)
    cfg = NetworkConfig(**kwargs)
    net = Network(cfg)
    sizes = cfg.layer_sizes
    rng = Prng(1000 + cfg.seed)
    clamp = {}
    if mode != "none":
        clamp = {
            0: clamp_layer(rng.fill_uniform(sizes[0], -1.0, 1.0)),
            len(sizes) - 1: clamp_layer(rng.fill_uniform(sizes[-1], -1.0, 1.0)),
        }
    reports = hashlib.sha256()
    for t in range(N_TICKS):
        report = net.tick(clamp, **_tick_overrides(schedule, t))
        reports.update(b"%d %d " % (report.network_cycles, report.diverged))
        reports.update(_f32_bytes(net.state.x) + _f32_bytes(net.state.eps))
    snap = net.snapshot()
    return {
        "x": _sha(_f32_bytes(snap.x)),
        "eps": _sha(_f32_bytes(snap.eps)),
        "theta": _sha(_f32_bytes(snap.theta)),
        "reports": reports.hexdigest(),
    }


def epoch0_mse(name: str) -> float:
    cfg = experiment_config(name)
    net = Network(cfg.to_network_config())
    return evaluate_dataset(net, dataset_for(cfg), cfg.eval_ticks)[0]


def curve_sha(name: str, out_dir) -> str:
    _, path = run_experiment(name, out_dir=out_dir)
    return _sha(path.read_bytes())


NO_RESET = "relu_ts_8x2_no_reset"


def short_relu_ts_csv(reset: bool, out_dir) -> bytes:
    """The curve CSV of ``relu_ts`` cut to 8 samples and 2 epochs, with
    ``reset_between_samples = reset``."""
    cfg = replace(
        experiment_config("relu_ts"), n_samples=8, epochs=2, reset_between_samples=reset
    )
    path = Path(out_dir) / f"relu_ts_8x2_reset_{reset}.csv"
    run_config(cfg, path)
    return path.read_bytes()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(TICK_CASES))
def test_tick_digest(name):
    assert tick_digest(name) == _golden()["ticks"][name]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_epoch0_mse(name):
    want = _golden()["epoch0_mse"][name]
    mse = epoch0_mse(name)
    assert mse.hex() == want["hex"]
    assert f"{mse:.6f}" == want["csv"]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_full_curve_csv(name, canned_curves):
    canned_curves.assert_golden(name)


def test_curve_without_reset_between_samples(tmp_path):
    # states carried from one sample into the next change the curve
    no_reset = short_relu_ts_csv(False, tmp_path)
    assert _sha(no_reset) == _golden()["curve_csv_sha256"][NO_RESET]
    assert no_reset != short_relu_ts_csv(True, tmp_path)


def _write(path: Path) -> None:
    import tempfile

    golden = {
        "ticks": {name: tick_digest(name) for name in sorted(TICK_CASES)},
        "epoch0_mse": {},
        "curve_csv_sha256": {},
    }
    for name in EXPERIMENTS:
        mse = epoch0_mse(name)
        golden["epoch0_mse"][name] = {"hex": mse.hex(), "csv": f"{mse:.6f}"}
        with tempfile.TemporaryDirectory() as tmp:
            golden["curve_csv_sha256"][name] = curve_sha(name, tmp)
    with tempfile.TemporaryDirectory() as tmp:
        golden["curve_csv_sha256"][NO_RESET] = _sha(short_relu_ts_csv(False, tmp))
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write(GOLDEN)
