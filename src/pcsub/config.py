"""Line-oriented ``key = value`` experiment configuration files.

The format is deliberately minimal so it parses identically in any
language: one assignment per line, ``#`` starts a comment, lists are
comma-separated, booleans are ``true``/``false``. Unknown and duplicate
keys are rejected; missing keys fall back to the built-in defaults and
the fallback is logged once per parse.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigParseError, ConfigurationError
from .network import NetworkConfig, _seed
from .scalar32 import ACTIVATION_KINDS, is_finite_f32

log = logging.getLogger(__name__)

TEACHER_KINDS = ("relu_teacher", "tanh_teacher")

DEFAULTS = {
    "layer_sizes": [2, 4, 3],
    "activations": None,  # identity for every layer when omitted
    "alpha": 0.01,
    "gamma": 0.1,
    "clamp_hard": True,
    "seed": 1,
    "init_scale": 0.5,
    "alpha_bias_scale": 1.0,
    "bias_frozen": False,
    "infer_ticks": 20,
    "learn_ticks": 5,
    "epochs": 25,
    "eval_ticks": 100,
    "reset_between_samples": True,
    "n_samples": 64,
    "teacher_kind": "relu_teacher",
    "teacher_seed": 101,
    "teacher_weight_scale": 1.0,
    "out_csv": None,
}

_INT_KEYS = {"seed", "infer_ticks", "learn_ticks", "epochs", "eval_ticks",
             "n_samples", "teacher_seed"}
_FLOAT_KEYS = {"alpha", "gamma", "init_scale", "alpha_bias_scale",
               "teacher_weight_scale"}
_NONNEGATIVE_KEYS = {"alpha", "gamma", "init_scale", "teacher_weight_scale"}
_BOOL_KEYS = {"clamp_hard", "bias_frozen", "reset_between_samples"}
_STR_KEYS = {"teacher_kind", "out_csv"}
_LIST_INT_KEYS = {"layer_sizes"}
_LIST_STR_KEYS = {"activations"}


@dataclass
class ConfigFile:
    """Validated flat configuration; see DEFAULTS for the key set."""

    layer_sizes: list
    activations: Optional[list]
    alpha: float
    gamma: float
    clamp_hard: bool
    seed: int
    init_scale: float
    alpha_bias_scale: float
    bias_frozen: bool
    infer_ticks: int
    learn_ticks: int
    epochs: int
    eval_ticks: int
    reset_between_samples: bool
    n_samples: int
    teacher_kind: str
    teacher_seed: int
    teacher_weight_scale: float
    out_csv: Optional[str]
    defaulted: list = field(default_factory=list)

    def to_network_config(self) -> NetworkConfig:
        return NetworkConfig(
            layer_sizes=self.layer_sizes,
            activations=self.activations,
            alpha=self.alpha,
            gamma=self.gamma,
            clamp_hard=self.clamp_hard,
            alpha_bias_scale=self.alpha_bias_scale,
            bias_frozen=self.bias_frozen,
            seed=self.seed,
            init_scale=self.init_scale,
        )


def _parse_value(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw, 0)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if key in _LIST_INT_KEYS:
        return [int(tok.strip(), 0) for tok in raw.split(",") if tok.strip()]
    if key in _LIST_STR_KEYS:
        return [tok.strip() for tok in raw.split(",") if tok.strip()]
    return raw


def _validate(values: dict, lines: dict, errors: list) -> None:
    def bad(key, msg):
        errors.append((lines.get(key, 0), msg))

    sizes = values["layer_sizes"]
    if len(sizes) < 2:
        bad("layer_sizes", "layer_sizes needs at least 2 layers")
    if any(n < 1 for n in sizes):
        bad("layer_sizes", "layer sizes must be >= 1")
    acts = values["activations"]
    if acts is not None:
        if len(acts) != len(sizes):
            bad("activations", "need one activation per layer")
        for kind in acts:
            if kind not in ACTIVATION_KINDS:
                bad("activations", f"unknown activation: {kind!r}")
    for key in sorted(_FLOAT_KEYS):
        if not is_finite_f32(values[key]):
            bad(key, f"{key} must be finite in binary32, got {values[key]!r}")
        elif key in _NONNEGATIVE_KEYS and values[key] < 0:
            bad(key, f"{key} must be >= 0")
    for key in ("infer_ticks", "epochs", "eval_ticks", "n_samples"):
        if values[key] < 1:
            bad(key, f"{key} must be >= 1")
    if values["learn_ticks"] < 0:
        bad("learn_ticks", "learn_ticks must be >= 0")
    for key in ("seed", "teacher_seed"):
        try:
            _seed(key, values[key])
        except ConfigurationError as exc:
            bad(key, str(exc))
    if values["teacher_kind"] not in TEACHER_KINDS:
        bad("teacher_kind", f"teacher_kind must be one of {TEACHER_KINDS}")


def parse_config(text: str) -> ConfigFile:
    """Parse and validate config text.

    Raises ConfigParseError carrying (line, message) pairs for every
    problem found, rather than stopping at the first.
    """
    values = dict(DEFAULTS)
    values["layer_sizes"] = list(DEFAULTS["layer_sizes"])
    seen: dict = {}
    errors: list = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'key = value', got {raw_line!r}"))
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in DEFAULTS:
            errors.append((lineno, f"unknown key {key!r}"))
            continue
        if key in seen:
            errors.append((lineno, f"duplicate key {key!r} (first on line {seen[key]})"))
            continue
        seen[key] = lineno
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            errors.append((lineno, f"{key}: {exc}"))

    if not errors:
        _validate(values, seen, errors)
    if errors:
        raise ConfigParseError(errors)

    defaulted = sorted(set(DEFAULTS) - set(seen))
    if defaulted:
        log.info("config: using defaults for: %s", ", ".join(defaulted))
    return ConfigFile(**values, defaulted=defaulted)


def load_config(path) -> ConfigFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
