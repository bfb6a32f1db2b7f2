"""CLI subcommands, exit codes, and output files (subprocess harness)."""

import subprocess
import sys
from pathlib import Path

import pytest

import pcsub
from pcsub.checkpoint import save_checkpoint
from pcsub.cli import main as cli_main
from pcsub.network import Network, NetworkConfig

FAST_CFG = """
layer_sizes = 2, 4, 3
activations = identity, relu, identity
alpha = 0.01
gamma = 0.1
seed = 3
infer_ticks = 5
learn_ticks = 2
epochs = 2
eval_ticks = 10
n_samples = 4
teacher_kind = relu_teacher
teacher_seed = 11
teacher_weight_scale = 1.0
"""

DIVERGENT_CFG = """
layer_sizes = 2, 4, 3
alpha = 0.5
gamma = 5.0
seed = 3
infer_ticks = 5
learn_ticks = 3
epochs = 1
eval_ticks = 5
n_samples = 2
teacher_seed = 11
"""


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "pcsub", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_unknown_subcommand_exits_1():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_cycles_2_4_3(tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("layer_sizes = 2, 4, 3\n")
    proc = run_cli("cycles", str(cfg))
    assert proc.returncode == 0
    assert "network tick latency: 16" in proc.stdout


def test_run_writes_csv_and_is_deterministic(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    pa = run_cli("run", str(cfg), "--out", str(out_a))
    pb = run_cli("run", str(cfg), "--out", str(out_b))
    assert pa.returncode == 0 and pb.returncode == 0
    csv_a = (out_a / "fast.csv").read_bytes()
    csv_b = (out_b / "fast.csv").read_bytes()
    assert csv_a == csv_b
    lines = csv_a.decode().splitlines()
    assert lines[0] == "epoch,mse" and len(lines) == 4


def test_run_bad_config_exit_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma = -1\nwhat = ever\n")
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    cfg.write_text("seed = 2\n\ninit_scale = inf\n")
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 1
    assert "config error (line 3): init_scale must be finite" in proc.stderr
    cfg.write_text("n_samples = 4\nseed = -1\n")
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 1
    assert "config error (line 2): seed must be >= 0" in proc.stderr


def test_run_file_system_error_exit_1(tmp_path, monkeypatch, capsys):
    # an output path that cannot be written and a config path that is not a
    # file end in one message line, not a traceback, and before any training
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    taken = tmp_path / "taken"
    taken.write_text("")
    into_dir = tmp_path / "into_dir.cfg"
    into_dir.write_text(FAST_CFG + f"out_csv = {tmp_path}\n")
    cases = (
        ("run", str(cfg), "--out", str(taken)),  # --out names a file
        ("run", str(tmp_path)),  # the config is a directory
        ("run", str(into_dir)),  # out_csv names a directory
    )
    for args in cases:
        proc = run_cli(*args)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error: "), (args, proc.stderr)
        assert "Traceback" not in proc.stderr, args

    def no_training(*args, **kwargs):
        raise AssertionError("train_network ran")

    monkeypatch.setattr(pcsub.harness, "train_network", no_training)
    for args in cases + (("experiment", "tanh_ts", "--out", str(taken)),):
        assert cli_main(list(args)) == 1, args
        assert capsys.readouterr().err.startswith("error: "), args


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be >= 0, got -1"), (2**64, "seed must be < 2**64")],
    ids=["negative", "2**64"],
)
def test_experiment_rejected_seed_leaves_no_files(tmp_path, capsys, seed, message):
    # --seed replaces the canned config's seed without its rule; the network
    # config is checked before the output directory is made
    out = tmp_path / "out"
    argv = ["experiment", "tanh_ts", "--seed", str(seed), "--out", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_run_divergence_exit_2_curve_still_written(tmp_path):
    cfg = tmp_path / "boom.cfg"
    cfg.write_text(DIVERGENT_CFG)
    proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert (tmp_path / "out" / "boom.csv").exists()


def test_out_dir_env_var(tmp_path):
    import os

    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    env = dict(os.environ, PCSUB_OUT_DIR=str(tmp_path / "envout"))
    proc = run_cli("run", str(cfg), env=env)
    assert proc.returncode == 0
    assert (tmp_path / "envout" / "fast.csv").exists()


def test_tick_checkpoint(tmp_path):
    net = Network(NetworkConfig([2, 4, 3], seed=5, gamma=0.05))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(net, ckpt)
    proc = run_cli("tick", str(ckpt), "--ticks", "3")
    assert proc.returncode == 0
    assert "network tick latency: 16" in proc.stdout
    assert "energy:" in proc.stdout


def test_tick_missing_file_exit_1(tmp_path):
    proc = run_cli("tick", str(tmp_path / "nope.ckpt"), "--ticks", "1")
    assert proc.returncode == 1


def test_tick_count_checked_before_checkpoint_read(tmp_path, monkeypatch, capsys):
    # a bad --ticks fails where it enters, before the file is even opened
    def no_load(*args, **kwargs):
        raise AssertionError("load_checkpoint ran")

    monkeypatch.setattr(pcsub.cli, "load_checkpoint", no_load)
    assert cli_main(["tick", str(tmp_path / "nope.ckpt"), "--ticks", "0"]) == 1
    assert "--ticks" in capsys.readouterr().err


def test_eval_checkpoint(tmp_path):
    cfg_text = FAST_CFG
    cfg_path = tmp_path / "task.cfg"
    cfg_path.write_text(cfg_text)
    net = Network(
        NetworkConfig(
            [2, 4, 3],
            activations=["identity", "relu", "identity"],
            seed=3,
            gamma=0.1,
        )
    )
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(net, ckpt)
    proc = run_cli("eval", str(ckpt), str(cfg_path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("mse: ")


def test_eval_dimension_mismatch_exit_1(tmp_path):
    cfg_path = tmp_path / "task.cfg"
    cfg_path.write_text(FAST_CFG)
    net = Network(NetworkConfig([3, 4, 3], seed=3))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(net, ckpt)
    proc = run_cli("eval", str(ckpt), str(cfg_path))
    assert proc.returncode == 1
    assert "error" in proc.stderr


@pytest.mark.slow
def test_verify_subcommand():
    proc = run_cli("verify")
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS")


def test_run_out_csv_key_overrides_path(tmp_path):
    cfg = tmp_path / "fast.cfg"
    target = tmp_path / "elsewhere" / "curve.csv"
    cfg.write_text(FAST_CFG + f"out_csv = {target}\n")
    proc = run_cli("run", str(cfg))
    assert proc.returncode == 0
    assert target.exists()


def test_experiment_seed_writes_what_run_writes(canned_curves, tmp_path):
    # `pcsub experiment tanh_ts --seed S` (the session's canned curve, S the
    # seed in tanh_ts.cfg) and `pcsub run` on tanh_ts.cfg take one path
    # and write the same bytes
    cfg = Path(pcsub.__file__).parent / "configs" / "tanh_ts.cfg"
    assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    _, experiment_csv = canned_curves.run("tanh_ts")
    assert (tmp_path / "tanh_ts.csv").read_bytes() == experiment_csv.read_bytes()


def test_experiment_seed_is_run_with_that_seed(tmp_path, short_experiments):
    # a seed other than the canned one, on the canned config cut short
    # both ways: by name for `experiment`, in the file for `run`
    text = (Path(pcsub.__file__).parent / "configs" / "tanh_ts.cfg").read_text()
    cut = dict(short_experiments, seed=9)
    lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip() not in cut]
    cfg = tmp_path / "tanh_ts.cfg"
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in cut.items()]) + "\n")
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    argv = ["experiment", "tanh_ts", "--seed", "9", "--out", str(tmp_path / "exp")]
    assert cli_main(argv) == 0
    run_csv = (tmp_path / "run" / "tanh_ts.csv").read_bytes()
    assert run_csv == (tmp_path / "exp" / "tanh_ts.csv").read_bytes()
    assert len(run_csv.splitlines()) == 1 + 3
