"""Fixtures shared across test modules."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from pcsub import config
from pcsub.config import experiment_config, run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden.json"


class CannedCurves:
    """The five canned 25-epoch curves, each computed at most once per
    session: the acceptance criteria and the golden CSV checks share them."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._runs = {}

    def run(self, name: str):
        """``pcsub experiment NAME --seed S --out out_dir`` in process, S the
        canned config's own seed; returns (curve, csv_path)."""
        if name not in self._runs:
            seed = experiment_config(name).seed
            self._runs[name] = run_experiment(name, seed=seed, out_dir=self.out_dir)
        return self._runs[name]

    def csv(self, name: str) -> Path:
        """The experiment's CSV in ``out_dir``, computed only if no run
        (``run`` or ``pcsub experiment --out out_dir``) has written it."""
        path = self.out_dir / f"{name}.csv"
        return path if path.exists() else self.run(name)[1]

    def assert_golden(self, name: str) -> None:
        """The full CSV is byte-identical to the one pinned in golden.json."""
        want = json.loads(GOLDEN.read_text())["curve_csv_sha256"][name]
        got = hashlib.sha256(self.csv(name).read_bytes()).hexdigest()
        assert got == want, name


@pytest.fixture(scope="session")
def canned_curves(tmp_path_factory):
    return CannedCurves(tmp_path_factory.mktemp("canned_curves"))


@pytest.fixture
def short_experiments(monkeypatch):
    """Cut the canned configs, wherever they are loaded by name, to the
    returned key values: 2 epochs of 4 samples and few ticks."""
    short = dict(epochs=2, n_samples=4, infer_ticks=5, learn_ticks=2, eval_ticks=10)
    canned = config.experiment_config
    monkeypatch.setattr(
        config, "experiment_config", lambda name: replace(canned(name), **short)
    )
    return short
