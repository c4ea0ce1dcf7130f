"""Benchmark of twostate: times seeded workloads through the public API and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  ``--workload all`` runs every workload in its own process and
prints one table of end-to-end metrics with their units.  Each run also writes
a result file (and, when traced, the spans as JSONL) under ``perfbench/out/``.
Run it from anywhere inside a checkout of the repository: it imports
``twostate`` from that checkout's ``src/``.
"""

import time

_STARTED = time.perf_counter()  # the set-up probe measures from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("battery", "deep-timeline", "pointer", "queries")
SETUP_PROBES = 15  # fresh processes whose median set-up time is reported
P90_MIN_OPS = 100  # a 90th percentile needs at least ten samples beyond it
TRACE_MIN_BLOCKS = 2  # a traced run pairs at least this many blocks, even past --seconds


def _use_checkout() -> None:
    """Import twostate from this checkout only, with single-threaded BLAS."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "twostate" / "__init__.py").is_file():
        sys.exit(f"error: no twostate sources under {ROOT / 'src'}; run inside a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def environment(traced: bool) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "trace": traced,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Time to import twostate and build the inputs, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def item(self, index: int):
        return self.inputs[index % len(self.inputs)]

    def run(self, item):
        """One operation; returns (output, raised)."""
        self.attempted += 1
        try:
            return self.workload.run(item), False
        except Exception:  # an operation that raises counts as failed, and the run goes on
            traceback.print_exc(file=sys.stderr)
            return None, True

    def check(self, item, output, raised: bool) -> None:
        if raised:
            self.failed += 1
            return
        from workloads import GateError

        try:
            self.workload.check(item, output, self.reference)
        except GateError as exc:
            print(f"gate failed: {exc}", file=sys.stderr)
            self.failed += 1

    def warm_up(self) -> int:
        for index in range(self.workload.warmup):
            item = self.item(index)
            self.check(item, *self.run(item))
        return self.workload.warmup


def measure(runner: Runner, seconds: float, probe: Callable[[], float]) -> dict:
    """Timed blocks of operations for ``seconds``, with set-up probes spread between blocks.

    Each position of the block is timed by its fastest run over the run's
    blocks: on a shared machine whose speed swings by up to 1.5x within
    seconds, a median over a few samples flips between the fast and slow
    states.  ``ops_per_s`` is the block size over the sum of those times and
    ``op_p50_ms`` is their median.  ``setup_s`` is the median of the probes,
    which run between blocks at evenly spaced times so that they sample the
    whole run rather than one moment of it.
    """
    index = runner.warm_up()
    block = runner.workload.block
    latencies, setup = [], []
    probing = 0.0
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - probing

    while elapsed() < seconds or len(latencies) % block:
        at_block_start = len(latencies) % block == 0
        while at_block_start and len(setup) < SETUP_PROBES and elapsed() >= len(setup) * seconds / SETUP_PROBES:
            t0 = time.perf_counter()
            setup.append(probe())
            probing += time.perf_counter() - t0
        item = runner.item(index)
        t0 = time.perf_counter()
        output, raised = runner.run(item)
        latencies.append(time.perf_counter() - t0)
        runner.check(item, output, raised)
        index += 1
    setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
    typical = [min(latencies[j::block]) for j in range(block)]
    metrics = {
        "ops_per_s": (block / sum(typical), "1/s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }
    if len(latencies) >= P90_MIN_OPS:
        metrics["op_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
    return metrics


def trace(runner: Runner, seconds: float, out_stem: Path) -> tuple[dict, dict]:
    """Each operation run untraced and traced, over whole blocks for ``seconds``; per-op layer metrics.

    The two runs of an operation are back to back, so a slow phase of the
    machine falls on both, and which runs first alternates between blocks, so
    that neither gains from the other having warmed the caches.
    ``trace.overhead_pct`` is the median over these pairs of the traced run's
    time against the untraced one's.
    """
    from spans import Tracer, install, layer_shares, per_layer_metrics

    index = runner.warm_up()
    block = runner.workload.block
    tracer = Tracer()
    walls = {False: [], True: []}
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(walls[True]) < TRACE_MIN_BLOCKS * block
           or len(walls[True]) % block):
        item = runner.item(index)
        order = (False, True) if len(walls[True]) // block % 2 == 0 else (True, False)
        index += 1
        for traced in order:
            restore = install(tracer) if traced else None
            tracer.op += traced
            t0 = time.perf_counter_ns()
            try:
                output, raised = runner.run(item)
            finally:
                walls[traced].append(time.perf_counter_ns() - t0)
                if restore:
                    restore()
            runner.check(item, output, raised)
    ratio = statistics.median(t / u for u, t in zip(walls[False], walls[True]))
    ops = len(walls[True])
    metrics = per_layer_metrics(tracer, ops, 100.0 * (ratio - 1.0))
    tracer.write_jsonl(out_stem.with_suffix(".spans.jsonl"))
    return metrics, {"layer_shares": layer_shares(tracer, sum(walls[True])), "trace_pairs": ops}


def run_one(args) -> int:
    from workloads import WORKLOADS, describe

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.setup_probe:
        print(f"{time.perf_counter() - _STARTED:.9f}")
        return 0
    from spans import per_layer_units

    runner = Runner(workload, inputs, json.loads(REFERENCE.read_text()))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {}
    if args.trace:
        layer, traced = trace(runner, args.seconds, stem)
        extra.update(traced)
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        timed = measure(runner, args.seconds, lambda: setup_probe(args.workload, args.seed))
        timed["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        extra["op_p90_ms"] = timed.pop("op_p90_ms", None)
        extra["error_rate"] = (runner.failed / runner.attempted, "fraction")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in timed.items()}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(bool(args.trace)), "shape": describe(args.workload),
              "extra": extra, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload:14} {name:34} {metric['value']:14.6g} {metric['unit']}")
    for name, value in extra.items():
        if isinstance(value, tuple):
            print(f"{args.workload:14} {name:34} {value[0]:14.6g} {value[1]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of end-to-end metrics with units."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace0.json").read_text())
        result = record["result"]
        status |= not result["correct"]
        values = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        values.update({k: tuple(v) for k, v in record["extra"].items() if v is not None})
        for metric in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "error_rate", "peak_rss_mb"):
            if metric in values:
                rows.append((name, metric, *values[metric]))
        rows.append((name, "attempted", result["attempted"], "ops"))
    for name, metric, value, unit in rows:
        print(f"{name:14} {metric:12} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _use_checkout()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
