#!/usr/bin/env python3
"""pcsub benchmark: four seeded workloads through pcsub's public entry points.

Run from the repository root:

    python3 bench/run.py --workload exp_tanh_ts --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each was chosen):

    exp_tanh_ts      `pcsub run` on configs/tanh_ts.cfg, seed and epochs substituted
    exp_scale_large  `pcsub run` on configs/scale_large.cfg, likewise
    tick_wide        Network.tick on a 64-128-64 network, alpha = 0 then alpha > 0
    verify           run_equivalence_suite(seed=S), the `pcsub verify` path

Everything runs in this one process with threads=1, except the fresh
interpreters that time `import pcsub.cli` for setup_s. After set-up, one
untimed repetition warms up and produces the outputs the checks compare
against; then repetitions are timed until ``--seconds`` is used up. Host
times are taken with hostclock.HostClock, normalised to a reference host
speed. With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed, with
``--trace 1`` its per-layer metrics, taken from one traced set-up and one
traced repetition (bench/spans.py). The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted/failed
count the output checks run and failed. Trace spans are written under
.bench_tmp/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from hostclock import HostClock
from spans import MODULES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

SETUP_REPEATS = 7
MIN_TIMED_REPS = 3
DEFAULT_SEEDS = {"exp_tanh_ts": 1, "exp_scale_large": 1, "tick_wide": 1, "verify": 12345}
# Epoch-0 MSE of the canned experiments at their committed seed (README table).
README_EPOCH0_MSE = {"exp_tanh_ts": "1.356662", "exp_scale_large": "0.111048"}

IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from hostclock import HostClock\n"
    "with HostClock() as clock: import pcsub.cli\n"
    "print(clock.seconds, pcsub.__file__)"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


class Checks:
    """Output checks; every one counts into attempted, and into failed when false."""

    def __init__(self):
        self.run = 0
        self.failed = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.run += 1
        if not ok:
            self.failed.append(name)
            print(f"check FAILED: {name} {detail}".rstrip(), file=sys.stderr)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One seeded workload: ``setup`` builds its inputs, ``rep`` runs and
    times one repetition and returns ``(HostClock, output bytes)``, ``check``
    verifies the output of the untimed repetition against an expectation
    computed outside the code under test."""

    final_mse = None

    def __init__(self, name: str, seed: int, tmp: Path, pcsub):
        self.name, self.seed, self.tmp, self.P = name, seed, tmp, pcsub

    def digest_input(self, out: bytes, seen: dict) -> bytes:
        return out


class Experiment(Workload):
    """`pcsub run` on a canned config with the seed and epoch count substituted.

    One repetition is the whole command: config parse, dataset generation,
    network build, the epoch-0 evaluation, EPOCHS training epochs with their
    evaluations, and the CSV write.

    One epoch keeps a repetition short enough to time several in a run. It
    raises the share of eval ticks above the canned 25-epoch run's: 89 %
    instead of 81 % for tanh_ts, 87 % instead of 78 % for scale_large.
    """

    EPOCHS = 1

    def __init__(self, name: str, seed: int, tmp: Path, pcsub, canned: str):
        super().__init__(name, seed, tmp, pcsub)
        self.canned = canned
        self.cfg_path = tmp / f"{canned}.cfg"
        self.csv_path = tmp / f"{canned}.csv"
        self.ckpt_path = tmp / f"{canned}.ckpt"

    def setup(self) -> None:
        P = self.P
        text = (Path(P.__file__).parent / "configs" / f"{self.canned}.cfg").read_text()
        lines = [
            ln for ln in text.splitlines()
            if ln.split("#", 1)[0].split("=", 1)[0].strip() not in ("seed", "epochs")
        ]
        lines += [f"seed = {self.seed}", f"epochs = {self.EPOCHS}"]
        self.cfg_path.write_text("\n".join(lines) + "\n")
        self.cfg = P.config.load_config(self.cfg_path)
        self.ds = P.harness.dataset_for(self.cfg)
        net_cfg = self.cfg.to_network_config()
        self.net = P.network.build_network(net_cfg)
        P.checkpoint.save_checkpoint(self.net, self.ckpt_path)
        self.loaded = P.checkpoint.load_checkpoint(self.ckpt_path, net_cfg)

    def phase_ticks(self) -> dict:
        c = self.cfg
        return reference.protocol_ticks(
            c.n_samples, c.infer_ticks, c.learn_ticks, c.eval_ticks, c.epochs
        )

    def ticks_per_rep(self) -> int:
        return sum(self.phase_ticks().values())

    def rep(self):
        self.csv_path.unlink(missing_ok=True)
        argv = ["run", str(self.cfg_path), "--out", str(self.tmp), "--threads", "1"]
        with contextlib.redirect_stdout(io.StringIO()), HostClock() as clock:
            rc = self.P.cli.main(argv)
        out = self.csv_path.read_bytes() if rc == 0 else f"exit {rc}".encode()
        return clock, out

    def digest_input(self, out: bytes, seen: dict) -> bytes:
        return out + reference.network_bytes(seen["net"])

    def check(self, checks: Checks, out: bytes, seen: dict) -> None:
        checks(
            "checkpoint round trip is bit-exact",
            reference.network_bytes(self.net) == reference.network_bytes(self.loaded),
        )
        csv, final = reference.replay_training(
            self.P, self.net, self.ds.inputs, self.ds.targets, self.cfg
        )
        checks("curve CSV equals the oracle replay", out == csv,
               f"program {out!r} oracle {csv!r}")
        checks("final x/eps/theta equal the oracle replay",
               reference.network_bytes(seen["net"]) == reference.dense_bytes(final))
        if self.seed == DEFAULT_SEEDS[self.name]:
            epoch0 = out.decode("ascii", "replace").splitlines()[1:2]
            want = f"0,{README_EPOCH0_MSE[self.name]}"
            checks("epoch-0 MSE equals the README table", epoch0 == [want],
                   f"got {epoch0}, want {want}")

    @staticmethod
    def final_mse(out: bytes) -> float:
        return float(out.decode("ascii").strip().splitlines()[-1].split(",")[1])


class TickWide(Workload):
    """Network.tick on a wide 64-128-64 network, both boundaries hard-clamped.

    One repetition reloads the checkpoint (untimed), then times INFER_TICKS
    ticks at alpha = 0 followed by LEARN_TICKS ticks at LEARN_ALPHA, with no
    resets and no harness.
    """

    SIZES = (64, 128, 64)
    ACTIVATIONS = ("identity", "tanh", "identity")
    INFER_TICKS = 16
    LEARN_TICKS = 16
    LEARN_ALPHA = 0.01

    def __init__(self, name: str, seed: int, tmp: Path, pcsub):
        super().__init__(name, seed, tmp, pcsub)
        self.ckpt_path = tmp / "tick_wide.ckpt"
        self.schedule = [0.0] * self.INFER_TICKS + [self.LEARN_ALPHA] * self.LEARN_TICKS

    def setup(self) -> None:
        P = self.P
        self.cfg = P.network.NetworkConfig(
            self.SIZES, self.ACTIVATIONS, alpha=self.LEARN_ALPHA, gamma=0.1,
            clamp_hard=True, seed=self.seed, init_scale=0.5,
        )
        self.net = P.network.build_network(self.cfg)
        P.checkpoint.save_checkpoint(self.net, self.ckpt_path)
        self.loaded = P.checkpoint.load_checkpoint(self.ckpt_path, self.cfg)
        rng = np.random.default_rng(self.seed)
        top = rng.uniform(-1.0, 1.0, self.SIZES[0]).astype(np.float32)
        bottom = rng.uniform(-1.0, 1.0, self.SIZES[-1]).astype(np.float32)
        self.clamp = {
            0: P.network.clamp_layer(top),
            len(self.SIZES) - 1: P.network.clamp_layer(bottom),
        }

    def ticks_per_rep(self) -> int:
        return len(self.schedule)

    def rep(self):
        net = self.P.checkpoint.load_checkpoint(self.ckpt_path, self.cfg)
        clamp = self.clamp
        diverged = False
        with HostClock() as clock:
            for alpha in self.schedule:
                diverged = net.tick(clamp, alpha=alpha).diverged or diverged
        self.diverged = diverged
        return clock, reference.network_bytes(net)

    def check(self, checks: Checks, out: bytes, seen: dict) -> None:
        P = self.P
        checks(
            "checkpoint round trip is bit-exact",
            reference.network_bytes(self.net) == reference.network_bytes(self.loaded),
        )
        checks("no tick diverged", not self.diverged)
        net = P.checkpoint.load_checkpoint(self.ckpt_path, self.cfg)
        state = P.oracle.DenseState.from_network(net)
        first_bad = None
        for t, alpha in enumerate(self.schedule):
            net.tick(self.clamp, alpha=alpha)
            state = P.oracle.oracle_tick(state, self.clamp, alpha=alpha)
            if first_bad is None and reference.network_bytes(net) != reference.dense_bytes(state):
                first_bad = t
        checks("every tick equals oracle_tick bitwise", first_bad is None,
               f"first mismatch at tick {first_bad}")
        checks("oracle-checked rerun reproduces the output",
               reference.network_bytes(net) == out)


class Verify(Workload):
    """run_equivalence_suite(seed=S) with the `pcsub verify` sizes."""

    N_NETS = 100
    N_TICKS = 50

    def setup(self) -> None:
        pass

    def ticks_per_rep(self) -> int:
        return self.N_NETS * self.N_TICKS

    def rep(self):
        with HostClock() as clock:
            summary = self.P.oracle.run_equivalence_suite(
                n_nets=self.N_NETS, n_ticks=self.N_TICKS, seed=self.seed
            )
        return clock, json.dumps(summary, sort_keys=True).encode()

    def digest_input(self, out: bytes, seen: dict) -> bytes:
        return out + b" sim_cycles=%d" % seen["reported"]

    def check(self, checks: Checks, out: bytes, seen: dict) -> None:
        summary = json.loads(out)
        want = {"ok": True, "nets": self.N_NETS, "ticks": self.ticks_per_rep(), "mismatch": None}
        checks("equivalence suite passes in full", summary == want, f"got {summary}")


WORKLOADS = {
    "exp_tanh_ts": lambda *a: Experiment(*a, canned="tanh_ts"),
    "exp_scale_large": lambda *a: Experiment(*a, canned="scale_large"),
    "tick_wide": TickWide,
    "verify": Verify,
}


@contextlib.contextmanager
def observed_ticks(network_cls):
    """Count Network.tick calls with their reported and modelled cycles and
    keep the last network ticked. Used on the untimed repetition only."""
    original = network_cls.tick
    seen = {"ticks": 0, "reported": 0, "model": 0, "net": None}

    def tick(net, *args, **kwargs):
        report = original(net, *args, **kwargs)
        seen["ticks"] += 1
        seen["reported"] += report.network_cycles
        seen["model"] += reference.latency_cycles(net.cfg.layer_sizes)
        seen["net"] = net
        return report

    network_cls.tick = tick
    try:
        yield seen
    finally:
        network_cls.tick = original


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def import_pcsub():
    if not (SRC / "pcsub" / "__init__.py").is_file():
        raise BenchError(f"no pcsub sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    pcsub = importlib.import_module("pcsub")
    for name in MODULES:
        importlib.import_module(f"pcsub.{name}")
    if Path(pcsub.__file__).resolve().parent != SRC / "pcsub":
        raise BenchError(f"imported pcsub from {pcsub.__file__}, not from {SRC}")
    return pcsub


def import_seconds() -> float:
    """`import pcsub.cli` (everything the `pcsub` command loads) in a fresh
    interpreter, timed inside that interpreter at reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = proc.stdout.split()
    if Path(path).resolve().parent != SRC / "pcsub":
        raise BenchError(f"import probe loaded pcsub from {path}")
    return float(seconds)


def setup_seconds(workload) -> float:
    """One set-up: a fresh interpreter's import, then the in-process set-up."""
    imported = import_seconds()
    with HostClock() as clock:
        workload.setup()
    return imported + clock.seconds


def timed_reps(rep, seconds: float, min_reps: int):
    """Repeat ``rep`` until another repetition would overrun ``seconds``."""
    clocks, outs = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        clock, out = rep()
        clocks.append(clock)
        outs.append(out)
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(clocks)
        if len(clocks) >= min_reps and elapsed + per_rep > seconds:
            return clocks, outs


def check_outputs(checks: Checks, workload, ref_out: bytes, seen: dict) -> None:
    """Checks on the untimed repetition that hold for every workload."""
    checks("Network.tick ran as often as the workload prescribes",
           seen["ticks"] == workload.ticks_per_rep(),
           f"observed {seen['ticks']}, prescribed {workload.ticks_per_rep()}")
    checks("reported cycles equal the cycle model", seen["reported"] == seen["model"],
           f"reported {seen['reported']}, model {seen['model']}")
    workload.check(checks, ref_out, seen)
    digest = hashlib.sha256(workload.digest_input(ref_out, seen)).hexdigest()
    print(f"output sha256 {digest}")
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    recorded = digests.get(workload.name, {}).get(str(workload.seed))
    if recorded is not None:
        checks("output digest equals the recorded one", digest == recorded,
               f"got {digest}, recorded {recorded}")


def check_repeats(checks: Checks, ref_out: bytes, outs: list) -> None:
    checks("timed repetitions reproduce the checked output",
           all(o == ref_out for o in outs), f"{sum(o != ref_out for o in outs)} differ")


def trace_hooks(tracer: Tracer, counters: dict, tick_us: list) -> None:
    def on_tick(args, kwargs, report, dur_ns):
        net = args[0]
        if tracer.is_open("harness.evaluate_dataset"):
            phase = "eval"
        else:
            alpha = kwargs.get("alpha", args[2] if len(args) > 2 else None)
            alpha = net.cfg.alpha if alpha is None else alpha
            phase = "infer" if alpha == 0 else "learn"
        counters[f"network.Network.tick.{phase}_s"] += dur_ns * 1e-9
        if phase == "eval" or tracer.is_open("harness.train_network"):
            counters[f"harness.ticks.{phase}"] += 1
        tick_us.append(dur_ns * 1e-3)

    tracer.hooks["network.Network.tick"] = on_tick

    kind_fns = [
        f"scalar32.{n}" for n in (
            "apply_activation", "activation_derivative", "activation64",
            "derivative64", "apply_activation_vec", "activation_derivative_vec",
        )
    ]

    def on_scalar(args, kwargs, result, dur_ns):
        # count each requested element once, at the outermost scalar32 call
        if args and args[0] == "tanh" and not any(tracer.is_open(n) for n in kind_fns):
            counters["scalar32.tanh_elems"] += int(np.size(args[1]))

    for name in kind_fns:
        tracer.hooks[name] = on_scalar

    def on_save(args, kwargs, result, dur_ns):
        counters["checkpoint.bytes"] = os.path.getsize(args[1])

    tracer.hooks["checkpoint.save_checkpoint"] = on_save


def traced_metrics(P, workload, checks: Checks, seconds: float, ref_out: bytes) -> dict:
    base_clocks, base_outs = timed_reps(workload.rep, seconds / 2, 1)
    untraced = statistics.median(c.seconds for c in base_clocks)

    tracer = Tracer(P)
    counters = {
        "network.Network.tick.infer_s": 0.0, "network.Network.tick.learn_s": 0.0,
        "network.Network.tick.eval_s": 0.0, "harness.ticks.infer": 0,
        "harness.ticks.learn": 0, "harness.ticks.eval": 0, "scalar32.tanh_elems": 0,
        "checkpoint.bytes": 0,
    }
    tick_us: list = []
    trace_hooks(tracer, counters, tick_us)
    tracer.install()
    try:
        workload.setup()
        gc.collect()
        traced_clock, out = workload.rep()
    finally:
        tracer.uninstall()
    check_repeats(checks, ref_out, base_outs + [out])

    phases = ("infer", "learn", "eval")
    got = {p: counters[f"harness.ticks.{p}"] for p in phases}
    if isinstance(workload, Experiment):
        want = workload.phase_ticks()
        checks("harness tick counts equal the protocol", got == want,
               f"traced {got}, protocol {want}")

    harness_ticks = sum(got.values())
    pct = statistics.quantiles(tick_us, n=100, method="inclusive")
    derived = dict(counters)
    derived.update({
        "network.Network.tick.us_p50": pct[49],
        "network.Network.tick.us_p99": pct[98],
        "harness.ticks.total": harness_ticks,
        "harness.eval_tick_share": counters["harness.ticks.eval"] / harness_ticks if harness_ticks else 0.0,
        "harness.final_mse": workload.final_mse(out) if workload.final_mse else 0.0,
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced_clock.seconds,
        "trace.overhead_ratio": traced_clock.seconds / untraced,
    })
    TMP_ROOT.mkdir(exist_ok=True)
    span_file = TMP_ROOT / f"trace-{workload.name}-seed{workload.seed}.spans"
    tracer.dump(span_file)
    print(f"spans written to {span_file.relative_to(ROOT)}")

    def value(name: str):
        if name in derived:
            return derived[name]
        fn, _, stat = name.rpartition(".")
        if stat not in ("calls", "s", "self_s"):
            raise BenchError(f"per-layer metric {name} has no known stat suffix")
        if fn not in tracer.ids:
            # a function that no longer exists or is no longer called: its
            # work, if any, now shows in its caller's self_s
            print(f"per-layer metric {name}: {fn} was not traced, reporting 0",
                  file=sys.stderr)
        calls, total, self_s = tracer.stat(fn)
        return {"calls": calls, "s": total, "self_s": self_s}[stat]

    return value


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the committed seed of the workload)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    P = import_pcsub()
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.workload, seed, tmp, P)
        checks = Checks()
        print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")

        if args.trace:
            workload.setup()
        else:
            setup_walls = [setup_seconds(workload) for _ in range(SETUP_REPEATS)]

        gc.collect()
        with observed_ticks(P.network.Network) as seen:
            _, ref_out = workload.rep()
        check_outputs(checks, workload, ref_out, seen)

        if args.trace:
            value = traced_metrics(P, workload, checks, args.seconds, ref_out)
            metrics = {
                m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
                for m in spec["per_layer"]
            }
        else:
            clocks, outs = timed_reps(workload.rep, args.seconds, MIN_TIMED_REPS)
            check_repeats(checks, ref_out, outs)
            wall = statistics.median(c.seconds for c in clocks)
            raw = [c.raw_s for c in clocks]
            speed = [c.speed for c in clocks]
            print(f"timed repetitions {len(clocks)}; unnormalised wall s median "
                  f"{statistics.median(raw):.4f} min {min(raw):.4f} max {max(raw):.4f}; "
                  f"host speed min {min(speed):.3f} max {max(speed):.3f}")
            if workload.final_mse:
                print(f"final_mse {workload.final_mse(ref_out):.6f} (simulated output, must repeat exactly)")
            values = {
                "setup_s": statistics.median(setup_walls),
                "wall_s": wall,
                "sample_ticks_per_s": workload.ticks_per_rep() / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "sim_cycles": seen["reported"],
            }
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
        print(f"checks {checks.run - len(checks.failed)}/{checks.run} passed")
        print(json.dumps({
            "correct": not checks.failed,
            "attempted": checks.run,
            "failed": len(checks.failed),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
