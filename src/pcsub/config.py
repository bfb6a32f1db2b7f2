"""Line-oriented ``key = value`` experiment configuration files.

The format is deliberately minimal so it parses identically in any
language: one assignment per line, ``#`` starts a comment, lists are
comma-separated with no empty item, booleans are ``true``/``false``.
Unknown and duplicate keys are rejected; missing keys fall back to the
built-in defaults and the fallback is logged once per parse.

``ConfigFile`` declares the key set and each key's default, once: a
field per key, whose default is read from the consumer's class where the
consumer declares one (``NetworkConfig``, ``TrainProtocol``). Each key's
value rule is written once, by the module that consumes the key:
``NETWORK_RULES`` in ``network``, ``HARNESS_RULES`` in ``harness``.
``parse_config`` applies those rules and reports every failure with its
key's line.

The canned experiments are config files under ``configs/``;
``run_experiment`` runs one through ``harness.run_config``, the path
``pcsub run`` takes for any config file.
"""

from __future__ import annotations

import logging
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigParseError, ConfigurationError
from .harness import HARNESS_RULES, TrainProtocol, output_dir, run_config
from .network import NETWORK_RULES, NetworkConfig, _activations, _choice

log = logging.getLogger(__name__)

EXPERIMENTS = ("relu_ts", "tanh_ts", "scale_small", "scale_medium", "scale_large")

_CONFIG_DIR = Path(__file__).parent / "configs"

_RULES = {**NETWORK_RULES, **HARNESS_RULES}


@dataclass
class ConfigFile:
    """Validated flat configuration: one field per config key, with the
    key's default."""

    layer_sizes: list = field(default_factory=lambda: [2, 4, 3])
    activations: Optional[list] = NetworkConfig.activations
    alpha: float = NetworkConfig.alpha
    gamma: float = NetworkConfig.gamma
    clamp_hard: bool = NetworkConfig.clamp_hard
    seed: int = NetworkConfig.seed
    init_scale: float = NetworkConfig.init_scale
    alpha_bias_scale: float = NetworkConfig.alpha_bias_scale
    bias_frozen: bool = NetworkConfig.bias_frozen
    infer_ticks: int = 20
    learn_ticks: int = 5
    epochs: int = 25
    eval_ticks: int = 100
    reset_between_samples: bool = TrainProtocol.reset_between_samples
    n_samples: int = 64
    teacher_kind: str = "relu_teacher"
    teacher_seed: int = 101
    teacher_weight_scale: float = 1.0
    out_csv: Optional[str] = None

    def to_network_config(self) -> NetworkConfig:
        # every NetworkConfig field is a config key of the same name
        keys = [f.name for f in fields(NetworkConfig)]
        return NetworkConfig(**{key: getattr(self, key) for key in keys})


# the key set, key -> default, as ConfigFile declares it
DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default
    for f in fields(ConfigFile)
}


def _parse_value(key: str, raw: str):
    """The text of ``key``'s value as a Python value of its default's type,
    or the list or name that ``layer_sizes``, ``activations`` and
    ``out_csv`` take; its rule comes later."""
    kind = type(DEFAULTS[key])
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind is int:
        return int(raw, 0)
    if kind is float:
        return float(raw)
    if key in ("layer_sizes", "activations"):
        items = [tok.strip() for tok in raw.split(",")]
        if "" in items:
            raise ValueError(f"empty list item in {raw!r}")
        return [int(tok, 0) for tok in items] if key == "layer_sizes" else items
    if key == "out_csv" and not raw:
        raise ValueError("must name a file, got an empty value")
    return raw


def parse_config(text: str) -> ConfigFile:
    """Parse and validate config text.

    Raises ConfigParseError carrying (line, message) pairs for every
    problem found, in line order, rather than stopping at the first.
    """
    values: dict = {}
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

    cfg = ConfigFile(**values)

    def check(key, rule, *args):
        try:
            rule(*args)
        except ConfigurationError as exc:
            errors.append((seen.get(key, 0), str(exc)))

    for key, rule in _RULES.items():
        check(key, rule, key, getattr(cfg, key))
    check("activations", _activations, cfg.activations, len(cfg.layer_sizes))
    if errors:
        raise ConfigParseError(sorted(errors, key=lambda error: error[0]))
    defaulted = sorted(set(DEFAULTS) - set(seen))
    if defaulted:
        log.info("config: using defaults for: %s", ", ".join(defaulted))
    return cfg


def load_config(path) -> ConfigFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# canned experiments
# ---------------------------------------------------------------------------


def experiment_config(name: str) -> ConfigFile:
    name = _choice("experiment", name, EXPERIMENTS)
    return load_config(_CONFIG_DIR / f"{name}.cfg")


def run_experiment(
    name: str, seed: Optional[int] = None, out_dir: Optional[str] = None
):
    """Run one canned experiment, with ``seed`` replacing its network seed
    when given; returns (curve, csv_path)."""
    cfg = experiment_config(name)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    path = output_dir(out_dir) / f"{name}.csv"
    return run_config(cfg, path), path
