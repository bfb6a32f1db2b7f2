"""Hand-made faults the tests must catch, and a runner that checks it.

Each entry of ``MUTANTS`` is one fault: its name, the file it changes
(from the repository root), the exact text it replaces there, the text
it puts in its place, and the ids of the tests that fail under it. Only
deterministic tests are named as killers: which Hypothesis test catches a
fault varies from run to run, with no example database committed.

Run every mutant, or the named ones, from the repository root:

    python tests/mutants.py [NAME ...]

The runner copies ``src/``, ``tests/``, ``pytest.ini`` and ``README.md``
to a temporary directory, applies one mutant there and runs ``pytest -x``
on its killers, one subprocess at a time. A mutant is killed when a
killer fails; the exit status is 0 when every mutant is. ``test_mutants``
checks in milliseconds that each replaced text occurs exactly once in the
current source, so a change to the code updates this list with it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pytest.ini", "README.md")
CORE = "src/pcsub/core.py"
NETWORK = "src/pcsub/network.py"
ORACLE = "src/pcsub/oracle.py"
# killers that catch several mutants
CORE_TESTS = "tests/test_core.py"
ORDER = "tests/test_network.py::test_core_order_does_not_matter"
WIDE = "tests/test_network.py::test_wide_net_matches_oracle_bytes"
CRITERION_4 = "tests/test_acceptance.py::test_criterion_4_clamp_semantics"
COMPARE = "tests/test_oracle.py::test_compare_names_the_first_differing_field"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killers: tuple


MUTANTS = (
    # core.py, the per-core reference
    Mutant(
        "pred_descending", CORE,
        "    for j in range(n):\n        acc = round32(round32(theta[j]",
        "    for j in reversed(range(n)):\n        acc = round32(round32(theta[j]",
        (ORDER, WIDE),
    ),
    Mutant(
        "backsum_descending", CORE,
        "for v in back:",
        "for v in reversed(back):",
        (f"{CORE_TESTS}::test_stage_backsum_derived", ORDER),
    ),
    Mutant(
        "pred_fused_mac", CORE,
        "acc = round32(round32(theta[j] * presyn_f[j]) + acc)",
        "acc = round32(theta[j] * presyn_f[j] + acc)",
        ("tests/test_scalar32.py::test_mul_add_two_rounding_derived", ORDER),
    ),
    Mutant(
        "wup_coeff_unrounded", CORE,
        "coeff = round32(alpha * eps)",
        "coeff = alpha * eps",
        (ORDER, WIDE),
    ),
    Mutant(
        "state_fprime_b_unrounded", CORE,
        "round32(float(fprime(x_eff)) * b)",
        "float(fprime(x_eff)) * b",
        (WIDE,),
    ),
    Mutant(
        "bias_scale_unrounded", CORE,
        "round32(cfg.alpha_bias_scale)",
        "cfg.alpha_bias_scale",
        (ORDER,),
    ),
    Mutant(
        "backvec_post_update", CORE,
        "    products = [] if top else stage_backvec(row, eps)\n"
        "    if not top and alpha != 0.0:\n"
        "        stage_wup(cfg, row, presyn_f, eps, alpha)\n",
        "    if not top and alpha != 0.0:\n"
        "        stage_wup(cfg, row, presyn_f, eps, alpha)\n"
        "    products = [] if top else stage_backvec(row, eps)\n"
        "    if not top and alpha != 0.0:\n",
        (f"{CORE_TESTS}::test_tick_registered_output_is_pre_tick_state", ORDER),
    ),
    Mutant(
        "state_fprime_of_stored_x", CORE,
        "float(fprime(x_eff))",
        "float(fprime(x))",
        (f"{CORE_TESTS}::test_soft_clamp_effect", CRITERION_4),
    ),
    Mutant(
        "state_steps_at_gamma_zero", CORE,
        "    if gamma == 0.0:\n        return x\n",
        "",
        (f"{CORE_TESTS}::test_gamma_zero_unclamped_tick_preserves_x_bits",),
    ),
    Mutant(
        "wup_alpha_zero_writes", CORE,
        "    if alpha == 0.0:\n        return\n",
        "",
        (f"{CORE_TESTS}::test_stage_wup_alpha_zero_bit_identical",),
    ),
    Mutant(
        "err_ignores_clamp", CORE,
        "x_eff = float(clamp.x_obs) if clamp.x_set_en else x",
        "x_eff = x",
        (f"{CORE_TESTS}::test_effective_state", ORDER),
    ),
    Mutant(
        "hard_clamp_ignored", CORE,
        "if cfg.clamp_hard and clamp.x_set_en:",
        "if False:",
        (f"{CORE_TESTS}::test_stage_state_hard_clamp_overrides", CRITERION_4),
    ),
    Mutant(
        "core_bias_frozen_ignored", CORE,
        "    if not cfg.bias_frozen:\n        coeff_b",
        "    if True:\n        coeff_b",
        (f"{CORE_TESTS}::test_stage_wup_bias_frozen", ORDER),
    ),
    # the engine
    Mutant(
        "engine_bias_frozen_ignored", NETWORK,
        "if not cfg.bias_frozen:",
        "if True:",
        (ORDER,),
    ),
    # the oracle's comparison of two states
    Mutant(
        "compare_casts_to_binary32", ORACLE,
        "(a.dtype, a.shape, a.tobytes())",
        "np.asarray(a, np.float32).tobytes()",
        (COMPARE,),
    ),
    Mutant(
        "compare_ignores_dtype", ORACLE,
        "(a.dtype, a.shape, a.tobytes())",
        "(a.shape, a.tobytes())",
        (COMPARE,),
    ),
    Mutant(
        "compare_ignores_shape", ORACLE,
        "(a.dtype, a.shape, a.tobytes())",
        "(a.dtype, a.tobytes())",
        (COMPARE,),
    ),
    Mutant(
        "compare_skips_extra_layers", ORACLE,
        "max(map(len, mine + other))",
        "len(mine[0])",
        (COMPARE,),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write ``mutant`` into the copy of the repository at ``root``."""
    target = root / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text is not in {mutant.path} once")
    target.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """``killed`` when a killer fails under ``mutant``, ``survived`` when
    all pass, else ``error`` with pytest's exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(
                    ROOT / name, root / name,
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
                )
            else:
                shutil.copy2(ROOT / name, root / name)
        apply(mutant, root)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.killers],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True,
        )
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"error {proc.returncode}")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    killed = 0
    for mutant in chosen:
        start = time.perf_counter()
        verdict = run(mutant)
        killed += verdict == "killed"
        seconds = time.perf_counter() - start
        print(f"{mutant.name:28} {verdict:9} {seconds:5.1f} s  {' '.join(mutant.killers)}")
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
