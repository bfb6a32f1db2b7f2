"""The benchmark runs against this checkout and passes its output checks.

``bench/run.py`` drives the package through its API (``snapshot``,
checkpoints, ``DenseState.from_network``, ``oracle_tick``,
``run_equivalence_suite``, the CLI). A change that breaks one of those
calls, the sweep's summary dict or a digest of ``bench/digests.json``
fails here, not only when the benchmark itself is run. ``--seconds 0``
times the minimum number of repetitions. ``--trace 1`` also imports the
modules ``bench/spans.py`` names and wraps their public functions and
methods, so one traced case checks that every name it wraps still
resolves.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace",
    [
        *[
            pytest.param(w, "0", id=w)
            for w in ["tick_wide", "exp_tanh_ts", "exp_scale_large", "verify"]
        ],
        pytest.param("exp_tanh_ts", "1", id="exp_tanh_ts-traced"),
    ],
)
def test_bench_workload_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", workload, "--seconds", "0", "--trace", trace,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
