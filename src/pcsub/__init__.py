"""pcsub: tick-accurate simulator of a layered predictive-coding fabric.

Per-neuron cores run a fixed six-stage schedule (predict, error,
back-sum, back-emit, weight update, state update) in IEEE-754 binary32,
communicate only with adjacent layers through registered buses, and
learn supervised tasks purely through boundary clamping. A dense
reference oracle reproduces the tick bit-for-bit, up to NaN sign and
payload, and the harness reproduces teacher-student learning curves as
CSV.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import EXPERIMENTS, ConfigFile, load_config, parse_config, run_experiment
from .core import core_tick
from .harness import (
    Dataset,
    LearningCurve,
    TeacherSpec,
    TrainProtocol,
    generate_dataset,
    train_network,
    write_curve_csv,
)
from .network import (
    DenseState,
    Network,
    NetworkConfig,
    TickReport,
    clamp_layer,
    tick_cycles,
)
from .oracle import oracle_tick, run_equivalence_suite
from .prng import Prng
from .rules import CheckpointError, ClampSignal, ConfigParseError, ConfigurationError
from .scalar32 import ACTIVATION_KINDS

__version__ = "0.1.0"

__all__ = [
    "ACTIVATION_KINDS",
    "CheckpointError",
    "ClampSignal",
    "ConfigFile",
    "ConfigParseError",
    "ConfigurationError",
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
