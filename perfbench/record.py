"""Record the benchmark's references and baseline.

    python3 perfbench/record.py reference
        Runs every recorded battery seed and deep-timeline scenario once and
        writes their digests to perfbench/reference.json.  Every one must pass.
    python3 perfbench/record.py baseline
        Runs each workload once per seed (1..10) untraced, for BENCHMARK.json's
        run_seconds, and once traced, and writes per-workload medians,
        quartiles and spreads of the end-to-end metrics, the per-layer metrics
        and each layer's share of the traced wall time to
        perfbench/baseline.json.

Both write only under perfbench/; run them from a checkout of the repository.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys

import run

BASELINE = run.BENCH / "baseline.json"
SEEDS = range(1, 11)


def record_reference() -> None:
    import workloads as w

    reference = {"battery": {}, "deep-timeline": {}}
    for pool_seed in w.BATTERY_POOL:
        argv = w.battery_argv(pool_seed)
        code, text = w.run_cli(argv)
        if code != 0:
            sys.exit(f"error: paper-checks {argv} exited {code}")
        reference["battery"][argv[-1]] = hashlib.sha256(text.encode()).hexdigest()
        print("battery", argv[-1], flush=True)
    for key, text in w.deep_inputs(0):
        report = json.loads(w.deep_run((key, text)))
        if report["passed"] is not True:
            sys.exit(f"error: scenario {key} did not pass")
        reference["deep-timeline"][key] = w.tally_digest(report)
        print("deep-timeline", key, flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def _run(workload: str, seed: int, seconds: float, traced: int) -> dict:
    subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads((run.OUT / f"{workload}-seed{seed}-trace{traced}.json").read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median, "values": values}


def record_baseline() -> None:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    baseline = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in run.WORKLOAD_NAMES:
        records = [_run(workload, seed, seconds, 0) for seed in baseline["seeds"]]
        end_to_end = {
            name: spread([r["result"]["metrics"][name]["value"] for r in records])
            for name in records[0]["result"]["metrics"]
        }
        if records[0]["extra"]["op_p90_ms"] is not None:
            end_to_end["op_p90_ms"] = spread([r["extra"]["op_p90_ms"][0] for r in records])
        traced = _run(workload, 1, seconds, 1)
        baseline["environment"] = traced["environment"]
        baseline["workloads"][workload] = {
            "shape": records[0]["shape"],
            "failed": sum(r["result"]["failed"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["result"]["metrics"].items()},
            "layer_shares": traced["extra"]["layer_shares"],
            "trace_pairs": traced["extra"]["trace_pairs"],
        }
        for name, s in end_to_end.items():
            print(f"{workload:14} {name:12} median {s['median']:12.6g}  iqr/median {s['iqr_over_median']:.4f}",
                  flush=True)
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="record the benchmark's references and baseline")
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    sub.add_parser("baseline")
    args = parser.parse_args()
    run._use_checkout()
    if args.what == "reference":
        record_reference()
    else:
        record_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
