"""The package's public names: exactly this list, each one importable."""

import os
import subprocess
import sys
from pathlib import Path

import pcsub

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "ACTIVATION_KINDS",
    "CheckpointError",
    "ClampSignal",
    "ConfigFile",
    "ConfigParseError",
    "ConfigurationError",
    "CoreConfig",
    "Dataset",
    "DenseState",
    "EXPERIMENTS",
    "LearningCurve",
    "Network",
    "NetworkConfig",
    "Prng",
    "TeacherSpec",
    "TickReport",
    "TrainProtocol",
    "activation_derivative",
    "apply_activation",
    "build_network",
    "clamp_layer",
    "core_tick",
    "generate_dataset",
    "load_checkpoint",
    "load_config",
    "oracle_tick",
    "parse_config",
    "run_equivalence_suite",
    "run_experiment",
    "save_checkpoint",
    "tick_cycles",
    "train_network",
    "write_curve_csv",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(pcsub.__all__) == PUBLIC
    # a stale name in __all__ makes ``import *`` raise AttributeError
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "from pcsub import *\n"
        "import pcsub\n"
        "missing = [n for n in pcsub.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "print(len(pcsub.__all__))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(PUBLIC))]
