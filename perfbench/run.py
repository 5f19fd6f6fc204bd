"""Benchmark of the coghier engine: end-to-end metrics, or per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload servo --seed 42 --seconds 20 --trace 0

Workloads: ``servo``, ``bp-suite`` and ``chain-400`` (see README.md). The
package is imported from ``src/`` beside this directory and from nowhere
else. With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run. The line before it is the full result entry (host,
commit, seed, repeat counts, digests), which is also written to
``.perfbench_out/`` together with the raw spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import workloads  # this script's directory is first on sys.path
from tracer import Tracer, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# String hashing is randomised per process, and with it the layout of every
# dict and set keyed by node id; the servo tick alone varies by half between
# hash seeds. Every run uses this one, and numpy's BLAS gets no thread pool.
RUN_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5
BASELINE_SHARE = 0.25  # a traced run first runs untraced for this share of --seconds
PHASE_LIMIT_S = 50.0  # a timed phase stops here even short of its minimum passes
MODULES = ("cli", "kernel", "bp", "servo", "documents")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "tick_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Per pass of the timed phase, except setup.* (one traced set-up), chain100.*
# (per tick of a 100-node chain) and trace.* (tracing overhead).
PER_LAYER = {
    "kernel.order.ms": "ms",
    "kernel.order.calls": "count",
    "kernel.node_update.self_ms": "ms",
    "kernel.node_update.calls": "count",
    "kernel.sweep.self_ms": "ms",
    "kernel.process_update.ms.p50": "ms",
    "kernel.process_update.ms.p90": "ms",
    "kernel.process_update.calls": "count",
    "kernel.validate.ms": "ms",
    "kernel.init_active.ms": "ms",
    "kernel.init_active.calls": "count",
    "kernel.payloads_close.ms": "ms",
    "op.edge.ms": "ms",
    "op.edge.calls": "count",
    "op.edge.payloads": "count",
    "op.node.ms": "ms",
    "op.node.calls": "count",
    "bp.propagate.ms": "ms",
    "bp.encode.ms": "ms",
    "bp.node_belief.ms": "ms",
    "bp.tree_violations.ms": "ms",
    "bp.random_tree.ms": "ms",
    "bp.ticks": "count",
    "servo.advance_world.ms": "ms",
    "servo.build_hierarchy.ms": "ms",
    "servo.run_episode.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "setup.import.ms": "ms",
    "setup.documents.load.ms": "ms",
    "setup.documents.default_registry.ms": "ms",
    "setup.kernel.validate.ms": "ms",
    "setup.kernel.init_active.ms": "ms",
    "chain100.kernel.process_update.ms.p50": "ms",
    "chain100.kernel.order.ms": "ms",
    "chain100.kernel.node_update.self_ms": "ms",
    "chain100.op.node.ms": "ms",
    "chain100.op.edge.ms": "ms",
    "chain.tick_ratio_400_100": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.slowdown": "ratio",
}


def import_coghier() -> dict:
    """Import the package afresh from ``src/``; returns the modules by name."""
    for name in [m for m in sys.modules if m == "coghier" or m.startswith("coghier.")]:
        del sys.modules[name]
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"coghier.{name}")
        except ModuleNotFoundError:
            continue
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"coghier was imported from {mods['cli'].__file__}, not from src/")
    return mods


class TickSamples:
    """Durations of every ``stride``-th tick in a fixed buffer; the stride doubles when it fills.

    Memory stays constant however many ticks a run makes, so the harness
    does not move ``peak_rss_mb``, and every kept value is a measured one.
    """

    def __init__(self, capacity: int = 1 << 17):
        self.buffer = array("d", bytes(8 * capacity))
        self.kept = 0
        self.seen = 0
        self.stride = 1

    def add(self, duration: float) -> None:
        self.seen += 1
        if (self.seen - 1) % self.stride:
            return
        self.buffer[self.kept] = duration
        self.kept += 1
        if self.kept == len(self.buffer):  # keep every other one
            self.kept //= 2
            self.buffer[: self.kept] = self.buffer[::2]
            self.stride *= 2

    def values(self) -> array:
        return self.buffer[: self.kept]


def time_ticks(kernel, samples: TickSamples):
    """Wrap ``kernel.process_update`` so each tick's duration goes into ``samples``."""
    inner = kernel.process_update
    add = samples.add

    def process_update(*args, **kwargs):
        start = perf_counter()
        result = inner(*args, **kwargs)
        add(perf_counter() - start)
        return result

    kernel.process_update = process_update


class Phase:
    """Outcome of one timed phase: pass durations, ops, failures, output digests."""

    def __init__(self):
        self.durations: list[float] = []
        self.ops = 0
        self.failed = 0
        self.digests: list[str | None] = []  # per pass; None where a pass has none
        self.extras: dict = {}

    @property
    def ops_per_s(self) -> float:
        """Ops of a pass over the 90th-percentile pass duration: the rate nine passes in ten meet."""
        return self.ops / len(self.durations) / quantile(self.durations, 0.9)

    @property
    def digest(self) -> str | None:
        """The first output digest of the phase."""
        return next((d for d in self.digests if d is not None), None)


def timed_phase(workload, mods, state, seconds: float, tracer=None) -> Phase:
    """Closed loop: one caller, each pass starts when the previous one has returned.

    Only the call into ``coghier`` is timed; checking the output is not.
    """
    phase = Phase()
    start = perf_counter()
    while True:
        now = perf_counter()
        enough = len(phase.durations) >= workload.min_passes
        if (enough and now - start >= seconds) or now - start >= PHASE_LIMIT_S:
            return phase
        if tracer is not None:
            tracer.op = len(phase.durations)
        begin = perf_counter()
        try:
            raw, error = workload.call(mods, state), None
        except Exception as exc:  # a failing op is counted, never fatal to the run
            raw, error = None, exc
        took = perf_counter() - begin
        ops, failed, digest, extras = workload.check(state, raw, error)
        phase.digests.append(digest)
        phase.ops += ops
        phase.failed += failed
        phase.extras.update(extras)
        phase.durations.append(took)


def set_up(workload, seed: int):
    """Import and set up ``SETUP_REPEATS`` times; the last set-up is the one used."""
    times = []
    for _ in range(SETUP_REPEATS):
        begin = perf_counter()
        mods = import_coghier()
        import_s = perf_counter() - begin
        state = workload.setup(mods, seed)
        times.append((perf_counter() - begin, import_s))
    gc.collect()
    return mods, state, times


def make_workload(name: str):
    if name == "servo":
        return workloads.Servo(WORK)
    if name == "bp-suite":
        return workloads.BpSuite()
    if name == "chain-400":
        return workloads.Chain(400)
    raise SystemExit(f"unknown workload {name!r}")


def run_untraced(workload, seed: int, seconds: float) -> tuple[Phase, dict]:
    mods, state, setups = set_up(workload, seed)
    samples = TickSamples()
    time_ticks(mods["kernel"], samples)
    phase = timed_phase(workload, mods, state, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before sorting ticks
    ticks = samples.values()
    metrics = {
        "setup_s": statistics.median(total for total, _ in setups),
        "ops_per_s": phase.ops_per_s,
        "tick_ms.p90": 1000.0 * quantile(ticks, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    # The median tick is printed but not bounded: on a shared 2-core host it
    # jumps between a fast and a slow mode as co-tenant load comes and goes.
    phase.extras["tick_ms.p50"] = 1000.0 * quantile(ticks, 0.5)
    repeats = {
        "setup": len(setups),
        "passes": len(phase.durations),
        "ticks": samples.seen,
        "ticks_sampled": samples.kept,
    }
    return phase, {"metrics": metrics, "repeats": repeats, "digests": {"untraced": phase.digest}}


def run_traced(workload, seed: int, seconds: float) -> tuple[Phase, dict]:
    """Untraced passes first (digest and speed to compare against), then traced ones."""
    mods, state, setups = set_up(workload, seed)
    baseline = timed_phase(workload, mods, state, BASELINE_SHARE * seconds)

    tracer = Tracer(mods["kernel"])
    tracer.install(mods)
    state = workload.setup(mods, seed)
    setup_layers = tracer.layer_metrics(1)
    tracer.reset()
    tracer.keep_raw = True
    gc.collect()
    phase = timed_phase(workload, mods, state, seconds, tracer)
    tracer.keep_raw = False
    metrics = tracer.layer_metrics(len(phase.durations))
    raw_spans = tracer.raw
    for name in ("documents.load", "documents.default_registry", "kernel.validate", "kernel.init_active"):
        metrics[f"setup.{name}.ms"] = setup_layers.get(f"{name}.ms", 0.0)
    metrics["setup.import.ms"] = 1000.0 * statistics.median(imp for _, imp in setups)

    if isinstance(workload, workloads.Chain):
        small = workloads.Chain(100)
        small_state = small.setup(mods, seed)
        tracer.reset()
        small_phase = timed_phase(small, mods, small_state, 0.0, tracer)
        small_metrics = tracer.layer_metrics(len(small_phase.durations))
        phase.failed += small_phase.failed
        for name in PER_LAYER:
            if name.startswith("chain100."):
                metrics[name] = small_metrics.get(name[len("chain100."):], 0.0)
        base = metrics["chain100.kernel.process_update.ms.p50"]
        metrics["chain.tick_ratio_400_100"] = metrics.get("kernel.process_update.ms.p50", 0.0) / base if base else 0.0
    tracer.uninstall()

    metrics["trace.ops_per_s"] = phase.ops_per_s
    metrics["trace.untraced_ops_per_s"] = baseline.ops_per_s
    metrics["trace.slowdown"] = baseline.ops_per_s / phase.ops_per_s
    common = min(len(baseline.digests), len(phase.digests))
    if baseline.failed or baseline.digests[:common] != phase.digests[:common]:
        phase.failed = phase.ops  # the traced run must reproduce the untraced output
    metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}
    repeats = {
        "setup": len(setups),
        "untraced_passes": len(baseline.durations),
        "passes": len(phase.durations),
        "raw_spans": len(raw_spans),
    }
    digests = {"untraced": baseline.digest, "traced": phase.digest}
    return phase, {"metrics": metrics, "repeats": repeats, "digests": digests, "spans": raw_spans}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("servo", "bp-suite", "chain-400"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coghier" / "__init__.py").is_file():
        print(f"no coghier sources under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):  # replaces this process, starts none
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **RUN_ENV})
    sys.path.insert(0, str(SRC))

    run_host = host()  # imports numpy before any timed set-up
    workload = make_workload(args.workload)
    WORK.mkdir(exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        phase, result = run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": run_host,
        "commit": git_commit(),
        "repeats": result["repeats"],
        "digests": result["digests"],
        "attempted": phase.ops,
        "failed": phase.failed,
        "failed_fraction": phase.failed / phase.ops,
        "pass_s": {f"p{q}": quantile(phase.durations, q / 100) for q in (10, 50, 90)},
        **phase.extras,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(entry, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as handle:
            for span_id, parent, name, start, end, op in result["spans"]:
                record = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end, "op": op}
                handle.write(json.dumps(record) + "\n")

    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_fraction {entry['failed_fraction']:.6g} fraction")
    if "tick_ms.p50" in phase.extras:
        print(f"tick_ms.p50 {phase.extras['tick_ms.p50']:.6g} ms")
    if "max_deviation" in phase.extras:
        print(f"max_deviation {phase.extras['max_deviation']:.3e} abs")
    print(json.dumps(entry))
    summary = {
        "correct": phase.failed == 0,
        "attempted": phase.ops,
        "failed": phase.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
