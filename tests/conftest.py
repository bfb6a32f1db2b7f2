"""Fixtures shared across test modules."""

import hashlib
import json
from pathlib import Path

import pytest

from pcsub.harness import run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden.json"


class CannedCurves:
    """The five canned 25-epoch curves, each computed at most once per
    session: the acceptance criteria and the golden CSV checks share them."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._runs = {}

    def run(self, name: str):
        """``run_experiment(name)`` into ``out_dir``; returns (curve, csv_path)."""
        if name not in self._runs:
            self._runs[name] = run_experiment(name, out_dir=self.out_dir)
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
