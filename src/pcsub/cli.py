"""Command-line interface.

Exit codes: 0 success, 1 validation or file-system error, 2 divergence
detected (the learning curve is still written in that case). Outputs
default to the ``runs/`` directory; ``PCSUB_OUT_DIR`` or ``--out``
override it.

``run`` and ``experiment`` take one path, ``harness.run_config``:
``experiment NAME --seed S`` is ``run`` on NAME's canned config file with
``seed = S``, written to ``NAME.csv``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .config import EXPERIMENTS, load_config, run_experiment
from .errors import CheckpointError, ConfigParseError, ConfigurationError
from .harness import dataset_for, evaluate_dataset, output_dir, run_config
from .network import _integer, layer_wiring
from .oracle import run_equivalence_suite

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DIVERGED = 2

_THREADS_HELP = "accepted for compatibility and ignored: cores run in one thread"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsub",
        description="Tick-accurate layered predictive-coding core simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train per a config file and write the curve CSV")
    p.add_argument("config", help="path to a key = value config file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p = sub.add_parser("experiment", help="run a canned experiment")
    p.add_argument("name", choices=list(EXPERIMENTS))
    p.add_argument("--seed", type=int, default=None, help="override network seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p = sub.add_parser("tick", help="advance a checkpointed network, no clamping")
    p.add_argument("checkpoint")
    p.add_argument("--ticks", type=int, required=True)

    p = sub.add_parser("eval", help="MSE of a checkpoint on a config's dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset_config")

    sub.add_parser("verify", help="bitwise simulator/oracle equivalence suite")

    p = sub.add_parser("cycles", help="print per-core and network cycle counts")
    p.add_argument("config")

    return parser


def _report(curve, path) -> int:
    print(f"wrote {path} ({len(curve)} epochs)")
    print(f"mse: {curve.mse[0]:.6f} -> {curve.mse[-1]:.6f}")
    if any(curve.diverged):
        print("divergence detected during training", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if cfg.out_csv is not None:
        path = Path(cfg.out_csv)
    else:
        path = output_dir(args.out) / (Path(args.config).stem + ".csv")
    return _report(run_config(cfg, path), path)


def _cmd_experiment(args) -> int:
    return _report(*run_experiment(args.name, seed=args.seed, out_dir=args.out))


def _cmd_tick(args) -> int:
    _integer("--ticks", args.ticks, 1)  # before the checkpoint is read
    net = load_checkpoint(args.checkpoint)
    diverged = False
    for _ in range(args.ticks):
        report = net.tick(alpha=0.0)
        diverged = diverged or report.diverged
    print(f"ticks: {args.ticks}")
    print(f"network tick latency: {report.network_cycles} cycles")
    print(f"energy: {net.energy():.9g}")
    print(f"diverged: {diverged}")
    return EXIT_DIVERGED if diverged else EXIT_OK


def _cmd_eval(args) -> int:
    cfg = load_config(args.dataset_config)
    net = load_checkpoint(args.checkpoint, cfg.to_network_config())
    ds = dataset_for(cfg)
    mse, diverged = evaluate_dataset(net, ds, cfg.eval_ticks)
    print(f"mse: {mse:.6f} ({len(ds)} samples, {cfg.eval_ticks} ticks each)")
    if diverged:
        print("divergence detected during evaluation", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_verify(_args) -> int:
    result = run_equivalence_suite(n_nets=100, n_ticks=50)
    status = "PASS" if result["ok"] else "FAIL"
    print(
        f"{status}: {result['nets']} networks, {result['ticks']} ticks "
        f"compared bit-exactly"
    )
    if not result["ok"]:
        print(f"first mismatch: {result['mismatch']}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _cmd_cycles(args) -> int:
    cfg = load_config(args.config).to_network_config()
    wiring = layer_wiring(cfg.layer_sizes)
    for s, (n, n_pre, m_back, cycles) in enumerate(wiring):
        print(f"layer {s}: {n} cores, N={n_pre}, M={m_back}, {cycles} cycles/tick")
    print(f"network tick latency: {max(w[3] for w in wiring)}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "tick": _cmd_tick,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "cycles": _cmd_cycles,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigParseError as exc:
        for line, msg in exc.errors:
            print(f"config error (line {line}): {msg}", file=sys.stderr)
        return EXIT_INVALID
    except (ConfigurationError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
