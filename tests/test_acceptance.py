"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``-s``):

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pcsub
from pcsub.cli import main as cli_main
from pcsub.network import ClampSignal, Network, NetworkConfig, layer_wiring
from pcsub.oracle import run_equivalence_suite

from refimpl import (
    Case,
    check_cycle_sweep,
    check_energy_descent,
    check_state_gradient,
    check_weight_gradient,
)

F32 = np.float32


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "simulator vs bit32 oracle, 100 nets x 50 ticks, bit-exact"):
        t0 = time.perf_counter()
        result = run_equivalence_suite(n_nets=100, n_ticks=50)
        elapsed = time.perf_counter() - t0
        assert result["ok"], result["mismatch"]
        assert result["ticks"] == 5000
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_2_cycle_model():
    with criterion(2, "per-core cycles = 3N+M+4 (boundary-adjusted), latency = max"):
        # a core of layer 1 (0: the top) with N lanes and M back inputs,
        # for every N, M in 0..16: test_core.py's sweep
        check_cycle_sweep()
        # a network's wiring gives the model for every N, M in 1..16 (its
        # hidden layer) and the boundary layers, and a tick reports the
        # slowest core as latency
        for n in range(1, 17):
            for m in range(1, 17):
                sizes = [n, 1, m]
                cycles = [c for _, _, _, c in layer_wiring(sizes)]
                assert cycles == [1 + 2, 3 * n + m + 4, 3 * 1 + 0 + 4]
                net = Network(NetworkConfig(sizes, seed=1))
                assert net.tick().network_cycles == max(cycles)
        # network latency equals the slowest core
        for sizes, want in [([2, 4, 3], 16), ([8, 16, 8], 52), ([1, 1], 7)]:
            net = Network(NetworkConfig(sizes, seed=1))
            report = net.tick()
            assert report.network_cycles == max(c for *_, c in layer_wiring(sizes))
            assert report.network_cycles == want


def test_criterion_3_gradient_checks():
    with criterion(3, "state/weight increments match FD energy gradients (1e-3 rel)"):
        assert check_state_gradient(np.random.default_rng(2099), 100) == 100
        assert check_weight_gradient(np.random.default_rng(3001), 100) == 100


def test_criterion_4_clamp_semantics():
    with criterion(4, "hard-clamp absorption and soft-clamp tick semantics, bit-exact"):
        rng = np.random.default_rng(777)
        for _ in range(300):
            n = int(rng.integers(0, 5))
            m = int(rng.integers(0, 5))
            kinds = ["identity", "relu", "tanh"]
            activation = kinds[rng.integers(0, 3)]
            presyn_kind = kinds[rng.integers(0, 3)]
            # the core is in layer 1, below a layer of presyn_kind
            hard = NetworkConfig((1, 1), (presyn_kind, activation), clamp_hard=True)
            alpha, gamma = F32(0.01), F32(0.1)
            theta = rng.uniform(-1, 1, n + 1).astype(np.float32)
            presyn = rng.uniform(-1, 1, n).astype(np.float32)
            back = rng.uniform(-1, 1, m).astype(np.float32)
            x0 = float(rng.uniform(-1, 1))
            obs = float(rng.uniform(-1, 1))
            case = Case(
                hard, 1, F32(x0), theta, alpha, gamma, presyn, back,
                ClampSignal(True, obs),
            )

            # hard clamp: stored state is exactly the observation
            x, _, _ = case.tick(theta=theta.copy())
            assert x.tobytes() == F32(obs).tobytes()

            # soft clamp: eps from the observation, state update from the
            # stored x; both match the binary64 equations to 1e-5, and the
            # engine matches this tick bit for bit (test_network.py)
            soft = case._replace(cfg=case.soft())
            ref_x, ref_theta, ref_eps = soft.reference()
            x, eps, _ = soft.tick()
            assert abs(float(eps) - ref_eps) < 1e-5
            assert abs(float(x) - ref_x) < 1e-5
            assert np.allclose(theta, ref_theta, rtol=0, atol=1e-5)


def _read_curve(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mse"
    return [float(line.split(",")[1]) for line in lines[1:]]


def test_criterion_5_relu_teacher_student(canned_curves):
    with criterion(5, "relu_ts: epoch-25 MSE < 0.05 and >= 90% below epoch 0"):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pcsub", "experiment", "relu_ts",
             "--out", str(canned_curves.out_dir)],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        csv = canned_curves.out_dir / "relu_ts.csv"
        mse = _read_curve(csv)
        assert len(mse) == 26
        assert mse[25] < 0.05, mse
        assert mse[25] <= 0.1 * mse[0], mse
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
        canned_curves.assert_golden("relu_ts")


def test_criterion_6_tanh_teacher_student(canned_curves):
    with criterion(6, "tanh_ts: >= 2 orders below post-spike peak by epoch 6"):
        curve, _ = canned_curves.run("tanh_ts")
        m = curve.mse
        assert len(m) == 26
        collapsed = any(m[e] <= max(m[: e + 1]) / 100.0 for e in range(1, 7))
        assert collapsed, m[:7]
        assert m[25] < 0.05, m[25]
        canned_curves.assert_golden("tanh_ts")


def test_criterion_7_scaling_sweep(canned_curves):
    with criterion(7, "scaling sweep: >= 50% drop by epoch 1, epoch-25 <= 0.05"):
        floors = {}
        for name in ("scale_small", "scale_medium", "scale_large"):
            curve, _ = canned_curves.run(name)
            m = curve.mse
            assert not any(curve.diverged), name
            assert m[1] <= 0.5 * m[0], (name, m[0], m[1])
            assert m[25] <= 0.05, (name, m[25])
            assert m[25] < m[0], name
            canned_curves.assert_golden(name)
            floors[name] = m[25]
        # the residual-floor-vs-size trend is reported, not asserted
        print(
            "residual floors: "
            + ", ".join(f"{k}={v:.6f}" for k, v in floors.items())
        )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "fixed-seed CSV byte-identical across runs and --threads"):
        src = Path(pcsub.__file__).parent / "configs" / "relu_ts.cfg"
        cfg = tmp_path / "relu_short.cfg"
        overrides = {"epochs": "3", "n_samples": "16", "eval_ticks": "50"}
        lines = []
        for line in src.read_text().splitlines():
            key = line.split("=")[0].strip()
            lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
        cfg.write_text("\n".join(lines) + "\n")
        blobs = []
        for run in range(2):
            for threads in ("1", "3"):
                out = tmp_path / f"r{run}t{threads}"
                argv = ["run", str(cfg), "--out", str(out), "--threads", threads]
                assert cli_main(argv) == 0
                blobs.append((out / "relu_short.csv").read_bytes())
        assert len(blobs[0].splitlines()) == 1 + 4
        assert all(b == blobs[0] for b in blobs)


def test_criterion_9_energy_descent():
    with criterion(9, "clamped identity nets: energy non-increasing over 200 ticks"):
        # test_network.py's energy-descent loop
        check_energy_descent()
