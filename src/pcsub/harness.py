"""Supervised training and evaluation protocols driven purely by clamping.

Training clamps the top (input) layer to x and the bottom (output) layer
to y, then alternates an inference phase (alpha = 0, states settle) with
a learning phase (alpha > 0, weights update while states keep evolving)
for a fixed tick budget per sample. Nothing about the per-core schedule
changes between phases.

MSE is measured by a separate inference-only pass: free states reset to
zero, input clamped, ``eval_ticks`` ticks at alpha = 0, then the free
output states are read and compared against targets in binary64. With
alpha = 0 the weights are bit-identical before and after evaluation.

Teacher functions for dataset generation:

    relu_teacher:  y = A @ relu(B @ x)
    tanh_teacher:  y = A @ tanh(B @ x + b1) + b2

Teacher parameters and inputs are drawn from a SplitMix64 stream (see
``prng``): first the parameter matrices row-major in the order listed
above, each entry uniform in [-weight_scale, +weight_scale], then the
inputs sample-major with components uniform in [-1, 1]. Targets are
evaluated in binary64, with the datapath's relu and tanh
(``scalar32.ACTIVATIONS_VEC``: tanh is ``math.tanh`` per element, whose
bits do not depend on numpy's vector code), and rounded once to binary32.

``HARNESS_RULES`` holds the rule of each config key the harness consumes;
the objects here and ``config.parse_config`` apply the same rules.
``run_config`` is the one path from a parsed config to a written curve.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigurationError
from .network import (
    Network,
    _boolean,
    _choice,
    _integer,
    _real,
    _seed,
    _sizes,
    build_network,
    clamp_layer,
)
from .prng import Prng
from .scalar32 import ACTIVATIONS_VEC, RELU, TANH

if TYPE_CHECKING:
    from .config import ConfigFile

TEACHER_KINDS = ("relu_teacher", "tanh_teacher")

# alpha of every inference and evaluation tick: binary32 already, so a tick
# takes it as it is instead of checking and rounding 0.0 each time
_ALPHA_ZERO = np.float32(0.0)


_count = partial(_integer, lo=1)

# rule(key, value) of each config key the harness consumes: TrainProtocol
# applies the first five to its fields, TeacherSpec and generate_dataset
# the rest, and parse_config all of them to the same keys of a file
HARNESS_RULES = {
    "infer_ticks": _count,
    "learn_ticks": partial(_integer, lo=0),
    "epochs": _count,
    "eval_ticks": _count,
    "reset_between_samples": _boolean,
    "n_samples": _count,
    "teacher_kind": partial(_choice, choices=TEACHER_KINDS),
    "teacher_seed": _seed,
    "teacher_weight_scale": _real,
}


def _check(key: str, value):
    """``value`` through the rule of config key ``key``."""
    return HARNESS_RULES[key](key, value)


@dataclass(frozen=True)
class TeacherSpec:
    kind: str  # relu_teacher | tanh_teacher
    dims: tuple  # (input, hidden, output)
    seed: int
    weight_scale: float

    def __post_init__(self):
        checked = {
            "kind": _check("teacher_kind", self.kind),
            "dims": _sizes("teacher dims", self.dims, 3, 3),
            "seed": _check("teacher_seed", self.seed),
            "weight_scale": _check("teacher_weight_scale", self.weight_scale),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass
class Dataset:
    inputs: np.ndarray  # (n, d_in) binary32
    targets: np.ndarray  # (n, d_out) binary32

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dims(self) -> tuple:
        return self.inputs.shape[1], self.targets.shape[1]


@dataclass(frozen=True)
class TrainProtocol:
    """The tick counts and reset rule of a training run. Every field passes
    its rule when the protocol is built, ``dataclasses.replace`` included,
    and cannot be written after."""

    infer_ticks: int
    learn_ticks: int
    epochs: int
    eval_ticks: int
    reset_between_samples: bool = True

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _check(f.name, getattr(self, f.name)))


@dataclass
class LearningCurve:
    """Per-epoch MSE (binary64) and divergence flags; entry 0 is pre-training."""

    mse: list = field(default_factory=list)
    diverged: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.mse)


def teacher_params(spec: TeacherSpec, rng: Optional[Prng] = None) -> dict:
    """Draw teacher parameters; see module docstring for stream order."""
    d_in, d_hid, d_out = spec.dims
    rng = Prng(spec.seed) if rng is None else rng
    w = float(spec.weight_scale)
    params = {"B": rng.fill_uniform((d_hid, d_in), -w, w)}
    if spec.kind == "tanh_teacher":
        params["b1"] = rng.fill_uniform(d_hid, -w, w)
    params["A"] = rng.fill_uniform((d_out, d_hid), -w, w)
    if spec.kind == "tanh_teacher":
        params["b2"] = rng.fill_uniform(d_out, -w, w)
    return params


def teacher_apply(kind: str, params: dict, x) -> np.ndarray:
    """Evaluate the teacher in binary64."""
    x = np.asarray(x, dtype=np.float64)
    b_mat = params["B"].astype(np.float64)
    a_mat = params["A"].astype(np.float64)
    if kind == "relu_teacher":
        return a_mat @ ACTIVATIONS_VEC[RELU](b_mat @ x)
    hidden = ACTIVATIONS_VEC[TANH](b_mat @ x + params["b1"].astype(np.float64))
    return a_mat @ hidden + params["b2"].astype(np.float64)


def generate_dataset(spec: TeacherSpec, n_samples: int) -> Dataset:
    """Deterministic teacher-student samples with uniform [-1, 1] inputs."""
    n_samples = _check("n_samples", n_samples)
    rng = Prng(spec.seed)
    params = teacher_params(spec, rng)  # inputs continue the same stream
    d_in, _, d_out = spec.dims
    inputs = rng.fill_uniform((n_samples, d_in), -1.0, 1.0)
    targets = np.empty((n_samples, d_out), dtype=np.float32)
    for i in range(n_samples):
        # one sample at a time: a batched matmul may reorder its sums
        targets[i] = teacher_apply(spec.kind, params, inputs[i]).astype(np.float32)
    return Dataset(inputs=inputs, targets=targets)


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


def _check_dims(net: Network, ds: Dataset) -> None:
    d_in, d_out = ds.dims
    sizes = net.cfg.layer_sizes
    if d_in != sizes[0] or d_out != sizes[-1]:
        raise ConfigurationError(
            f"dataset dims {d_in}->{d_out} do not match boundary layers "
            f"{sizes[0]}->{sizes[-1]}"
        )


def evaluate_dataset(net: Network, ds: Dataset, eval_ticks: int):
    """Inference-only pass over the dataset: (mse, diverged).

    Per sample: free states reset to zero, input hard-clamped, eval_ticks
    ticks at alpha = 0, output-layer states read; squared error is
    accumulated in binary64 over samples and output components.
    """
    eval_ticks = _check("eval_ticks", eval_ticks)
    if len(ds) == 0:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    _check_dims(net, ds)
    total = 0.0
    diverged = False
    for x, y in zip(ds.inputs, ds.targets):
        net.reset_states()
        clamp = {0: clamp_layer(x)}
        for _ in range(eval_ticks):
            report = net.tick(clamp, alpha=_ALPHA_ZERO)
            diverged = diverged or report.diverged
        out = net.state.x[-1].astype(np.float64)
        d = out - y.astype(np.float64)
        total += float(d @ d)
    return total / (len(ds) * ds.dims[1]), diverged


def train_network(net: Network, ds: Dataset, proto: TrainProtocol) -> LearningCurve:
    """Clamped supervised training on an existing network, in place."""
    _check_dims(net, ds)
    last = len(net.cfg.layer_sizes) - 1
    curve = LearningCurve()
    mse0, div0 = evaluate_dataset(net, ds, proto.eval_ticks)
    curve.mse.append(mse0)
    curve.diverged.append(div0)
    for _ in range(proto.epochs):
        epoch_div = False
        for x, y in zip(ds.inputs, ds.targets):
            if proto.reset_between_samples:
                net.reset_states()
            clamp = {0: clamp_layer(x), last: clamp_layer(y)}
            for _ in range(proto.infer_ticks):
                report = net.tick(clamp, alpha=_ALPHA_ZERO)
                epoch_div = epoch_div or report.diverged
            for _ in range(proto.learn_ticks):
                report = net.tick(clamp)
                epoch_div = epoch_div or report.diverged
        mse, ediv = evaluate_dataset(net, ds, proto.eval_ticks)
        curve.mse.append(mse)
        curve.diverged.append(epoch_div or ediv)
    return curve


# ---------------------------------------------------------------------------
# from a config to a curve
# ---------------------------------------------------------------------------


def dataset_for(cfg: ConfigFile) -> Dataset:
    spec = TeacherSpec(
        kind=cfg.teacher_kind,
        dims=(cfg.layer_sizes[0], cfg.layer_sizes[1], cfg.layer_sizes[-1]),
        seed=cfg.teacher_seed,
        weight_scale=cfg.teacher_weight_scale,
    )
    return generate_dataset(spec, cfg.n_samples)


def protocol_for(cfg: ConfigFile) -> TrainProtocol:
    # every TrainProtocol field is a config key of the same name
    keys = [f.name for f in fields(TrainProtocol)]
    return TrainProtocol(**{key: getattr(cfg, key) for key in keys})


def output_dir(override: Optional[str] = None) -> Path:
    if override is not None:
        return Path(override)
    return Path(os.environ.get("PCSUB_OUT_DIR", "runs"))


def _check_writable(path: Path) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise, before any
    work is done: its directory is made as ``write_curve_csv`` makes it,
    and a directory or a path that cannot be written is refused."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def write_curve_csv(curve: LearningCurve, path) -> None:
    """CSV with header ``epoch,mse``, six fractional digits, epoch 0 first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["epoch,mse"]
    for i, v in enumerate(curve.mse):
        lines.append(f"{i},{v:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def run_config(cfg: ConfigFile, csv_path) -> LearningCurve:
    """Train a new network as ``cfg`` says on its teacher's dataset and write
    the curve to ``csv_path``: the one path from a config to a curve, taken
    by ``pcsub run``, ``pcsub experiment`` and ``run_experiment``. The
    network config and the protocol are checked first, so a rejected value
    (a seed that ``dataclasses.replace`` set unchecked) leaves no directory
    behind; then a path that cannot be written fails, before the network
    trains."""
    csv_path = Path(csv_path)
    net_cfg = cfg.to_network_config()
    proto = protocol_for(cfg)
    _check_writable(csv_path)
    ds = dataset_for(cfg)
    net = build_network(net_cfg)
    curve = train_network(net, ds, proto)
    write_curve_csv(curve, csv_path)
    return curve
